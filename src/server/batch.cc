#include "server/batch.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "bitmap/wah_filter.h"
#include "exec/parallel_build.h"
#include "query/expr.h"
#include "storage/table.h"

namespace cods::server {

namespace {

/// True when the sharing rules cover this request: single table,
/// plain SELECT/COUNT with a WHERE, no reordering or truncation.
bool Shareable(const QueryRequest& q) {
  if (!q.join_table.empty() || !q.group_by.empty() || !q.order_by.empty()) {
    return false;
  }
  if (q.verb == QueryRequest::Verb::kGroupBy) return false;
  if (q.limit >= 0) return false;
  return q.where != nullptr;
}

/// Key preserved iff every key column survives the projection (the
/// SelectRows contract).
std::vector<std::string> RetainedKey(const std::vector<ColumnSpec>& specs,
                                     std::vector<std::string> key) {
  for (const std::string& k : key) {
    bool kept = std::any_of(specs.begin(), specs.end(),
                            [&](const ColumnSpec& s) { return s.name == k; });
    if (!kept) return {};
  }
  return key;
}

/// SELECT off a precomputed selection: the projection/validation logic
/// of QueryEngine::SelectRows, with the predicate eval replaced by the
/// group's shared position filter.
Result<std::shared_ptr<const Table>> SelectFromFilter(
    const Table& table, const QueryRequest& q, const WahPositionFilter& filter,
    const ExecContext& ctx) {
  std::vector<size_t> indices;
  if (q.columns.empty()) {
    indices.resize(table.num_columns());
    std::iota(indices.begin(), indices.end(), size_t{0});
  } else {
    indices.reserve(q.columns.size());
    for (size_t c = 0; c < q.columns.size(); ++c) {
      CODS_ASSIGN_OR_RETURN(size_t idx, table.ResolveColumnRef(q.columns[c]));
      for (size_t prev = 0; prev < indices.size(); ++prev) {
        if (indices[prev] == idx) {
          return Status::InvalidArgument(
              "duplicate column '" + table.schema().column(idx).name +
              "' in the SELECT list (positions " + std::to_string(prev + 1) +
              " and " + std::to_string(c + 1) + ")");
        }
      }
      indices.push_back(idx);
    }
  }
  std::vector<ColumnSpec> specs;
  specs.reserve(indices.size());
  for (size_t idx : indices) specs.push_back(table.schema().column(idx));
  std::vector<std::string> key = RetainedKey(specs, table.schema().key());
  CODS_ASSIGN_OR_RETURN(Schema schema,
                        Schema::Make(std::move(specs), std::move(key)));
  std::vector<std::shared_ptr<const Column>> cols(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    cols[i] = FilterColumnBitmaps(ctx, *table.column(indices[i]), filter);
  }
  return Table::Make(q.out_name, std::move(schema), std::move(cols),
                     filter.num_positions());
}

BatchOutcome FromResult(Result<QueryResult> r) {
  BatchOutcome out;
  if (r.ok()) {
    out.result = std::move(r).ValueOrDie();
  } else {
    out.status = r.status();
  }
  return out;
}

}  // namespace

std::vector<BatchOutcome> ExecuteQueryBatch(
    const TableStore& store, const std::vector<const QueryRequest*>& requests,
    const ExecContext* ctx, BatchStats* stats) {
  std::vector<BatchOutcome> outcomes(requests.size());
  if (stats != nullptr) stats->statements += requests.size();
  QueryEngine engine(&store);
  ExecContext exec = ResolveContext(ctx);

  // Group shareable statements by (table, normalized WHERE); everything
  // else executes individually.
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& q = *requests[i];
    if (Shareable(q)) {
      groups[q.table + '\x01' + NormalizeExpr(q.where)->ToString()]
          .push_back(i);
    } else {
      outcomes[i] = FromResult(engine.Execute(q, &exec));
    }
  }

  for (auto& [group_key, members] : groups) {
    (void)group_key;
    if (members.size() == 1) {
      size_t i = members[0];
      outcomes[i] = FromResult(engine.Execute(*requests[i], &exec));
      continue;
    }

    // Shared path: one predicate eval answers every member.
    const QueryRequest& first = *requests[members[0]];
    Result<std::shared_ptr<const Table>> table_r = store.GetTable(first.table);
    if (!table_r.ok()) {
      for (size_t i : members) {
        outcomes[i] = FromResult(engine.Execute(*requests[i], &exec));
      }
      continue;
    }
    const Table& table = *table_r.ValueOrDie();
    // A COUNT-only group never builds the selection bitmap.
    const bool count_only =
        std::all_of(members.begin(), members.end(), [&](size_t i) {
          return requests[i]->verb == QueryRequest::Verb::kCount;
        });
    Result<WahBitmap> bitmap_r = WahBitmap();
    Result<uint64_t> count_r = uint64_t{0};
    if (count_only) {
      count_r = EvalExprCount(table, first.where, &exec);
    } else {
      bitmap_r = EvalExpr(table, first.where, &exec);
    }
    Status eval = count_only ? count_r.status() : bitmap_r.status();
    if (!eval.ok()) {
      for (size_t i : members) {
        BatchOutcome out;
        out.status = eval;
        outcomes[i] = std::move(out);
      }
      continue;
    }
    const WahBitmap& selection = bitmap_r.ValueOrDie();
    if (stats != nullptr) {
      ++stats->shared_groups;
      stats->batch_hits += members.size() - 1;
    }

    // The position filter is built once, lazily (COUNT-only groups
    // never need it); distinct SELECT shapes each build their own
    // projection through it, exact duplicates share one result.
    std::unique_ptr<WahPositionFilter> filter;
    std::map<std::string, size_t> by_text;  // stmt text -> first outcome
    bool first_member = true;
    for (size_t i : members) {
      const QueryRequest& q = *requests[i];
      BatchOutcome out;
      out.shared = !first_member;
      first_member = false;
      if (q.verb == QueryRequest::Verb::kCount) {
        out.result.verb = QueryRequest::Verb::kCount;
        out.result.count = count_only ? *count_r : selection.CountOnes();
        outcomes[i] = std::move(out);
        continue;
      }
      std::string text = q.ToString();
      auto it = by_text.find(text);
      if (it != by_text.end()) {
        out.status = outcomes[it->second].status;
        out.result = outcomes[it->second].result;
        out.shared = true;
        outcomes[i] = std::move(out);
        continue;
      }
      if (filter == nullptr) {
        filter = std::make_unique<WahPositionFilter>(selection);
      }
      Result<std::shared_ptr<const Table>> built =
          SelectFromFilter(table, q, *filter, exec);
      if (built.ok()) {
        out.result.verb = QueryRequest::Verb::kSelect;
        out.result.table = std::move(built).ValueOrDie();
      } else {
        out.status = built.status();
      }
      by_text.emplace(std::move(text), i);
      outcomes[i] = std::move(out);
    }
  }
  return outcomes;
}

}  // namespace cods::server
