// Tests for the EvolutionEngine: SMO dispatch, catalog effects, failure
// handling, and the WAL protocol of its one commit path.

#include "evolution/engine.h"

#include "common/script_log.h"
#include "concurrency/snapshot_catalog.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::CatalogOf;
using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serving_.Reset(CatalogOf({Figure1TableR()}));
    EngineOptions options;
    options.validate_outputs = true;
    engine_ = std::make_unique<EvolutionEngine>(&serving_, nullptr, options);
  }

  // The currently published root.
  RootPtr root() const { return serving_.current(); }

  SnapshotCatalog serving_;
  std::unique_ptr<EvolutionEngine> engine_;
};

TEST_F(EngineTest, CreateAndDropTable) {
  Schema schema({{"a", DataType::kInt64, false}});
  ASSERT_TRUE(engine_->Apply(Smo::CreateTable("New", schema)).ok());
  EXPECT_TRUE(root()->HasTable("New"));
  EXPECT_TRUE(engine_->Apply(Smo::CreateTable("New", schema))
                  .IsAlreadyExists());
  ASSERT_TRUE(engine_->Apply(Smo::DropTable("New")).ok());
  EXPECT_FALSE(root()->HasTable("New"));
  EXPECT_TRUE(engine_->Apply(Smo::DropTable("New")).IsKeyError());
}

TEST_F(EngineTest, RenameAndCopy) {
  ASSERT_TRUE(engine_->Apply(Smo::CopyTable("R", "R2")).ok());
  EXPECT_TRUE(root()->HasTable("R"));
  EXPECT_TRUE(root()->HasTable("R2"));
  ASSERT_TRUE(engine_->Apply(Smo::RenameTable("R2", "R3")).ok());
  EXPECT_FALSE(root()->HasTable("R2"));
  ExpectSameContent(*root()->GetTable("R").ValueOrDie(),
                    *root()->GetTable("R3").ValueOrDie());
}

TEST_F(EngineTest, DecomposeReplacesInputWithOutputs) {
  Smo smo = Smo::DecomposeTable("R", "S", {"Employee", "Skill"}, {}, "T",
                                {"Employee", "Address"}, {"Employee"});
  ASSERT_TRUE(engine_->Apply(smo).ok());
  EXPECT_FALSE(root()->HasTable("R"));
  EXPECT_EQ(root()->GetTable("S").ValueOrDie()->rows(), 7u);
  EXPECT_EQ(root()->GetTable("T").ValueOrDie()->rows(), 4u);
}

TEST_F(EngineTest, MergeReplacesInputsWithOutput) {
  Smo decompose = Smo::DecomposeTable("R", "S", {"Employee", "Skill"}, {},
                                      "T", {"Employee", "Address"},
                                      {"Employee"});
  ASSERT_TRUE(engine_->Apply(decompose).ok());
  Smo merge = Smo::MergeTables("S", "T", "R", {"Employee"}, {});
  ASSERT_TRUE(engine_->Apply(merge).ok());
  EXPECT_FALSE(root()->HasTable("S"));
  EXPECT_FALSE(root()->HasTable("T"));
  ExpectSameContent(*Figure1TableR(),
                    *root()->GetTable("R").ValueOrDie());
}

TEST_F(EngineTest, UnionAndPartitionRoundTrip) {
  Smo part = Smo::PartitionTable("R", "Grant", "Rest", "Address",
                                 CompareOp::kEq, Value("425 Grant Ave"));
  ASSERT_TRUE(engine_->Apply(part).ok());
  EXPECT_FALSE(root()->HasTable("R"));
  EXPECT_EQ(root()->GetTable("Grant").ValueOrDie()->rows(), 4u);
  EXPECT_EQ(root()->GetTable("Rest").ValueOrDie()->rows(), 3u);

  Smo un = Smo::UnionTables("Grant", "Rest", "R");
  ASSERT_TRUE(engine_->Apply(un).ok());
  EXPECT_FALSE(root()->HasTable("Grant"));
  EXPECT_FALSE(root()->HasTable("Rest"));
  // Union of the partition is R up to row order.
  auto restored = root()->GetTable("R").ValueOrDie();
  EXPECT_EQ(testing::SortedRows(*restored),
            testing::SortedRows(*Figure1TableR()));
}

TEST_F(EngineTest, ColumnOperators) {
  ASSERT_TRUE(engine_
                  ->Apply(Smo::AddColumn("R",
                                         {"Grade", DataType::kInt64, false},
                                         Value(int64_t{0})))
                  .ok());
  EXPECT_EQ(root()->GetTable("R").ValueOrDie()->num_columns(), 4u);
  ASSERT_TRUE(
      engine_->Apply(Smo::RenameColumn("R", "Grade", "Level")).ok());
  EXPECT_TRUE(root()->GetTable("R")
                  .ValueOrDie()
                  ->schema()
                  .HasColumn("Level"));
  ASSERT_TRUE(engine_->Apply(Smo::DropColumn("R", "Level")).ok());
  EXPECT_EQ(root()->GetTable("R").ValueOrDie()->num_columns(), 3u);
}

TEST_F(EngineTest, ApplyAllStopsAtFirstFailure) {
  std::vector<Smo> script = {
      Smo::RenameTable("R", "R1"),
      Smo::DropTable("DoesNotExist"),
      Smo::RenameTable("R1", "R2"),
  };
  Status st = engine_->ApplyAll(script);
  EXPECT_FALSE(st.ok());
  // First op applied, third not reached.
  EXPECT_TRUE(root()->HasTable("R1"));
  EXPECT_FALSE(root()->HasTable("R2"));
  // The failing SMO is named in the error.
  EXPECT_NE(st.message().find("DROP TABLE DoesNotExist"),
            std::string::npos);
}

TEST_F(EngineTest, DecomposeOutputNameCollisionRejected) {
  Schema schema({{"x", DataType::kInt64, false}});
  ASSERT_TRUE(engine_->Apply(Smo::CreateTable("S", schema)).ok());
  Smo smo = Smo::DecomposeTable("R", "S", {"Employee", "Skill"}, {}, "T",
                                {"Employee", "Address"}, {"Employee"});
  EXPECT_TRUE(engine_->Apply(smo).IsAlreadyExists());
  // R untouched on failure.
  EXPECT_TRUE(root()->HasTable("R"));
}

TEST_F(EngineTest, FailedOperatorCommitsNoPartialEffect) {
  // A union of R with itself stages the drop of its first input, then
  // fails dropping the (same) second one: none of it may commit.
  for (bool planned : {false, true}) {
    const std::vector<Smo> script = {Smo::UnionTables("R", "R", "X")};
    Status st = planned ? engine_->ApplyAllPlanned(script)
                        : engine_->ApplyAll(script);
    EXPECT_TRUE(st.IsKeyError()) << st.ToString();
    EXPECT_TRUE(root()->HasTable("R")) << "planned=" << planned;
    EXPECT_FALSE(root()->HasTable("X")) << "planned=" << planned;
  }
}

TEST_F(EngineTest, MergeMissingInputFails) {
  Smo merge = Smo::MergeTables("R", "Nope", "X", {"Employee"}, {});
  EXPECT_TRUE(engine_->Apply(merge).IsKeyError());
}

TEST_F(EngineTest, ValidatePreconditionsCatchesLossyDecompose) {
  EngineOptions options;
  options.validate_preconditions = true;
  EvolutionEngine strict(&serving_, nullptr, options);
  // Employee -> Skill is false, so declaring T(Employee, Skill) keyed on
  // Employee must fail.
  Smo smo = Smo::DecomposeTable("R", "S", {"Employee", "Address"}, {}, "T",
                                {"Employee", "Skill"}, {"Employee"});
  Status st = strict.Apply(smo);
  EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
  EXPECT_TRUE(root()->HasTable("R"));
}

TEST_F(EngineTest, ObserverSeesSteps) {
  RecordingObserver observer;
  EvolutionEngine engine(&serving_, &observer, EngineOptions{});
  Smo smo = Smo::DecomposeTable("R", "S", {"Employee", "Skill"}, {}, "T",
                                {"Employee", "Address"}, {"Employee"});
  ASSERT_TRUE(engine.Apply(smo).ok());
  EXPECT_TRUE(observer.HasStep("distinction"));
  EXPECT_TRUE(observer.HasStep("filtering"));
  EXPECT_GE(observer.TotalSeconds(), 0.0);
}

// ---- The WAL protocol ------------------------------------------------------
//
// The engine writes the WAL from one place: inside SnapshotCatalog's
// commit critical section, after conflict validation and before the
// root swap. These tests pin that protocol against a recording fake.

// Records every ScriptLog call as text; CommitScript returns
// `commit_status`.
class RecordingLog : public ScriptLog {
 public:
  Status BeginScript() override {
    calls.push_back("BEGIN");
    return Status::OK();
  }
  Status AppendStatement(const std::string& text) override {
    calls.push_back(text);
    return Status::OK();
  }
  Status CommitScript(uint32_t applied) override {
    calls.push_back("COMMIT " + std::to_string(applied));
    return commit_status;
  }

  std::vector<std::string> calls;
  Status commit_status;
};

TEST(EngineWal, MidScriptFailureLogsEveryStatementAndTheAppliedPrefix) {
  const std::vector<Smo> script = {
      Smo::AddColumn("R", {"P1", DataType::kInt64}, Value(int64_t{1})),
      Smo::DropColumn("R", "NoSuchColumn"),
      Smo::RenameTable("R", "R2"),
  };
  for (bool planned : {false, true}) {
    SnapshotCatalog serving;
    serving.Reset(CatalogOf({Figure1TableR()}));
    RecordingLog log;
    EvolutionEngine engine(&serving, nullptr, EngineOptions{.wal = &log});
    Status st = planned ? engine.ApplyAllPlanned(script)
                        : engine.ApplyAll(script);
    EXPECT_TRUE(st.IsKeyError()) << st.ToString();
    // The whole script is logged, and the commit record counts exactly
    // the prefix that reached the published root.
    EXPECT_EQ(log.calls,
              (std::vector<std::string>{"BEGIN", script[0].ToString(),
                                        script[1].ToString(),
                                        script[2].ToString(), "COMMIT 1"}))
        << "planned=" << planned;
    auto r = serving.current()->GetTable("R");
    ASSERT_TRUE(r.ok()) << "planned=" << planned;
    EXPECT_TRUE(r.ValueOrDie()->schema().HasColumn("P1"));
  }
}

TEST(EngineWal, FailedCommitRecordLeavesTheRootUnpublished) {
  SnapshotCatalog serving;
  serving.Reset(CatalogOf({Figure1TableR()}));
  const uint64_t before = serving.GetStats().root_id;
  RecordingLog log;
  log.commit_status = Status::IOError("injected fsync failure");
  EvolutionEngine engine(&serving, nullptr, EngineOptions{.wal = &log});
  Status st = engine.Apply(
      Smo::AddColumn("R", {"P1", DataType::kInt64}, Value(int64_t{1})));
  // Durability before visibility: the WAL error is the result, and no
  // reader can observe the script's root.
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(serving.GetStats().root_id, before);
  auto r = serving.current()->GetTable("R").ValueOrDie();
  EXPECT_FALSE(r->schema().HasColumn("P1"));
}

// Commits a competing version of R the first time the engine reports a
// step — i.e. while the engine's script is still staging against its
// pinned base.
class CompetingWriter : public EvolutionObserver {
 public:
  explicit CompetingWriter(SnapshotCatalog* serving) : serving_(serving) {}

  void OnStepBegin(const std::string&, const std::string&,
                   const std::string&) override {
    if (committed_) return;
    committed_ = true;
    SnapshotCatalog::WriteTxn txn = serving_->BeginWrite();
    txn.store().PutTable(Figure1TableR());  // a new version of R
    competing_status = serving_->Commit(std::move(txn));
  }
  void OnStepEnd(const std::string&, const std::string&, double) override {}

  Status competing_status = Status::Cancelled("never ran");

 private:
  SnapshotCatalog* serving_;
  bool committed_ = false;
};

TEST(EngineWal, FirstWriterWinsAbortNeverReachesTheLog) {
  SnapshotCatalog serving;
  serving.Reset(CatalogOf({Figure1TableR()}));
  RecordingLog log;
  CompetingWriter competitor(&serving);
  EvolutionEngine engine(&serving, &competitor, EngineOptions{.wal = &log});
  Status st = engine.Apply(Smo::DecomposeTable(
      "R", "S", {"Employee", "Skill"}, {}, "T", {"Employee", "Address"},
      {"Employee"}));
  ASSERT_TRUE(competitor.competing_status.ok())
      << competitor.competing_status.ToString();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  // The aborted script had no effect, so replay must never see it.
  EXPECT_TRUE(log.calls.empty());
  EXPECT_EQ(serving.GetStats().aborts, 1u);
  EXPECT_TRUE(serving.current()->HasTable("R"));
  EXPECT_FALSE(serving.current()->HasTable("S"));
}

TEST(SmoToString, CoversEveryKind) {
  Schema schema({{"a", DataType::kInt64, false}});
  EXPECT_NE(Smo::CreateTable("T", schema).ToString().find("CREATE TABLE T"),
            std::string::npos);
  EXPECT_EQ(Smo::DropTable("T").ToString(), "DROP TABLE T");
  EXPECT_EQ(Smo::RenameTable("A", "B").ToString(), "RENAME TABLE A TO B");
  EXPECT_EQ(Smo::CopyTable("A", "B").ToString(), "COPY TABLE A TO B");
  EXPECT_EQ(Smo::UnionTables("A", "B", "C").ToString(),
            "UNION TABLES A, B INTO C");
  EXPECT_NE(Smo::PartitionTable("R", "A", "B", "x", CompareOp::kGe,
                                Value(int64_t{3}))
                .ToString()
                .find("WHERE x >= 3"),
            std::string::npos);
  EXPECT_NE(Smo::DecomposeTable("R", "S", {"a"}, {"a"}, "T", {"b"}, {})
                .ToString()
                .find("DECOMPOSE TABLE R INTO S(a) KEY(a), T(b)"),
            std::string::npos);
  EXPECT_NE(Smo::MergeTables("S", "T", "R", {"k"}, {}).ToString().find(
                "MERGE TABLES S, T INTO R ON (k)"),
            std::string::npos);
  EXPECT_NE(Smo::AddColumn("R", {"c", DataType::kInt64, false},
                           Value(int64_t{0}))
                .ToString()
                .find("ADD COLUMN c INT64 TO R DEFAULT 0"),
            std::string::npos);
  EXPECT_EQ(Smo::DropColumn("R", "c").ToString(), "DROP COLUMN c FROM R");
  EXPECT_EQ(Smo::RenameColumn("R", "a", "b").ToString(),
            "RENAME COLUMN a TO b IN R");
}

}  // namespace
}  // namespace cods
