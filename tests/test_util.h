// Shared helpers for the CODS test suite: literal table construction,
// multiset comparison of table contents, and random table generation for
// property tests.

#ifndef CODS_TESTS_TEST_UTIL_H_
#define CODS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "rowstore/btree_index.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace cods::testing {

/// A catalog holding `tables` — the seed a test hands to
/// SnapshotCatalog::Reset before binding an engine.
inline Catalog CatalogOf(
    const std::vector<std::shared_ptr<const Table>>& tables) {
  Catalog catalog;
  for (const auto& table : tables) CODS_CHECK_OK(catalog.AddTable(table));
  return catalog;
}

/// Builds a table from a literal row list. Fails the test on error.
inline std::shared_ptr<const Table> MakeTable(
    const std::string& name, const Schema& schema,
    const std::vector<Row>& rows) {
  TableBuilder builder(name, schema);
  for (const Row& r : rows) {
    Status st = builder.AppendRow(r);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  Result<std::shared_ptr<const Table>> table = builder.Finish();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ValueOrDie();
}

/// String columns Employee/Skill/Address from the paper's Figure 1.
inline std::shared_ptr<const Table> Figure1TableR() {
  Schema schema({{"Employee", DataType::kString, false},
                 {"Skill", DataType::kString, false},
                 {"Address", DataType::kString, false}},
                {});
  return MakeTable(
      "R", schema,
      {
          {Value("Jones"), Value("Typing"), Value("425 Grant Ave")},
          {Value("Jones"), Value("Shorthand"), Value("425 Grant Ave")},
          {Value("Roberts"), Value("Light Cleaning"),
           Value("747 Industrial Way")},
          {Value("Ellis"), Value("Alchemy"), Value("747 Industrial Way")},
          {Value("Jones"), Value("Whittling"), Value("425 Grant Ave")},
          {Value("Ellis"), Value("Juggling"), Value("747 Industrial Way")},
          {Value("Harrison"), Value("Light Cleaning"),
           Value("425 Grant Ave")},
      });
}

/// Materializes and sorts a table's rows for order-insensitive equality.
inline std::vector<Row> SortedRows(const Table& table) {
  std::vector<Row> rows = table.Materialize();
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

/// Expects two tables to hold the same multiset of tuples (column order
/// must match; row order may differ).
inline void ExpectSameContent(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(SortedRows(a), SortedRows(b));
}

/// Renders a row for diagnostics.
inline std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

/// Random table R(K, V, P) with the FD K -> P, for decomposition
/// property tests.
inline std::shared_ptr<const Table> RandomFdTable(uint64_t rows,
                                                  uint64_t distinct_keys,
                                                  uint64_t seed) {
  Rng rng(seed);
  Schema schema({{"K", DataType::kInt64, false},
                 {"V", DataType::kInt64, false},
                 {"P", DataType::kInt64, false}},
                {});
  TableBuilder builder("R", schema);
  for (uint64_t r = 0; r < rows; ++r) {
    int64_t k = r < distinct_keys
                    ? static_cast<int64_t>(r)
                    : rng.Uniform(0, static_cast<int64_t>(distinct_keys) - 1);
    int64_t v = rng.Uniform(0, 9);
    int64_t p = (k * 7 + 3) % 11;  // function of k => FD holds
    Status st = builder.AppendRow({Value(k), Value(v), Value(p)});
    EXPECT_TRUE(st.ok());
  }
  auto table = builder.Finish();
  EXPECT_TRUE(table.ok());
  return table.ValueOrDie();
}

/// Appends the v2/v3 image footer (wal_lsn, then the masked CRC32C of
/// every preceding byte) to a hand-assembled image body.
inline std::vector<uint8_t> WithImageFooter(std::vector<uint8_t> image,
                                            uint64_t wal_lsn) {
  for (int i = 0; i < 8; ++i) {
    image.push_back(static_cast<uint8_t>(wal_lsn >> (8 * i)));
  }
  const uint32_t crc = crc32c::Mask(crc32c::Value(image.data(), image.size()));
  for (int i = 0; i < 4; ++i) {
    image.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return image;
}

/// R(K, V, P) with K = r * distinct / rows (non-decreasing, so each key
/// is one run), V = r % 5 and P = (3K + 1) % 7 (FD K -> P). With
/// `declare_sorted`, K and P are declared SORTED; otherwise the same rows
/// make the unsorted-declared twin.
inline std::shared_ptr<const Table> SortedFdTable(uint64_t rows,
                                                  uint64_t distinct,
                                                  bool declare_sorted) {
  Schema schema({{"K", DataType::kInt64, declare_sorted},
                 {"V", DataType::kInt64, false},
                 {"P", DataType::kInt64, declare_sorted}},
                {});
  TableBuilder builder("R", schema);
  for (uint64_t r = 0; r < rows; ++r) {
    int64_t k = static_cast<int64_t>(r * distinct / rows);
    Status st = builder.AppendRow({Value(k), Value(static_cast<int64_t>(r % 5)),
                                   Value((k * 3 + 1) % 7)});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  auto table = builder.Finish();
  EXPECT_TRUE(table.ok());
  return table.ValueOrDie();
}

}  // namespace cods::testing

#endif  // CODS_TESTS_TEST_UTIL_H_
