#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include <malloc.h>
#include <sys/prctl.h>
#include <unistd.h>

#include "common/logging.h"
#include "concurrency/snapshot_catalog.h"
#include "data.h"
#include "durability/db.h"
#include "probes.h"
#include "replay.h"
#include "server/client.h"
#include "server/server.h"
#include "smo/parser.h"
#include "stats.h"
#include "storage/serde.h"

namespace codsbench {

using cods::DurableDb;
using cods::server::Client;
using cods::server::FrameType;
using cods::server::WireResponse;

namespace {

// ---- Fixed workload parameters (recorded in BENCHMARK.json) -------------

constexpr uint64_t kRRows = 1'000'000;   // R: the query / evolve table
constexpr uint64_t kRKeys = 10'000;
constexpr uint64_t kWRows = 500'000;     // W: the DBA's table in mixed
constexpr uint64_t kWKeys = 5'000;
// fsync at every commit (the WAL protocol) plus a checkpoint whenever the
// statement-text WAL passes a size: about every 20 scripts (4 cycles) in
// evolve. In mixed a checkpoint would write the whole catalog, R included,
// for scripts on W; its threshold is above the WAL a run writes, so
// none fires there, and whether one overlaps a heavy reader statement
// does not decide the run's peak RSS.
constexpr uint64_t kEvolveCheckpointWalBytes = 4 * 1024;
constexpr uint64_t kMixedCheckpointWalBytes = 4 * 1024 * 1024;
constexpr int kSetupRepeats = 7;
constexpr int kRecoverRepeats = 21;
// The WAL that recovery replays holds about 1M rows' worth of DBA cycles
// in both workloads: one cycle on R, or two on W. A reopen that replays
// that much is long enough that a short stall on this shared VM is a
// small part of it.
int WalCyclesToRecover(const std::string& workload) {
  return workload == "mixed" ? 2 : 1;
}
constexpr int kMixedSessions = 2;
constexpr double kMixedRatePerSec = 400;  // offered, both sessions together
// mixed's DBA starts a cycle every 373 ms, so the interference readers
// see does not depend on how fast the machine runs the DBA, and a run of
// 40 s holds about 100 samples of each script kind. A cycle on W takes
// about a quarter of that period. The readers' tail statements are due
// every 100 ms and rotate through their kinds every 400 ms; a period
// that shares no step with that schedule makes the DBA's scripts meet
// every phase of it within a run, not the same phase in every cycle.
constexpr Clock::duration kMixedDbaCyclePeriod =
    std::chrono::milliseconds(373);
constexpr size_t kReplayStatements = 2000;
// A failed or refused statement counts at the statement deadline.
constexpr double kDeadlineMs = 10'000;
constexpr uint64_t kOpenLoopIdBase = 1ull << 40;
constexpr uint64_t kClosingPingId = kOpenLoopIdBase - 1;

struct Inputs {
  FactData r;
  FactData w;  // mixed only
  std::shared_ptr<const cods::Table> d;
  std::unique_ptr<QueryPool> pool;
  FactSpec dba;  // the table the DBA evolves: W in mixed, R in evolve
  FactReference dba_ref;
};

struct Live {
  std::unique_ptr<CountingEnv> env;
  std::unique_ptr<DurableDb> db;
  std::unique_ptr<cods::server::Server> server;
  std::vector<std::unique_ptr<Client>> readers;
  std::vector<uint64_t> point_ids;  // prepared kPointSql per reader
  std::unique_ptr<Client> dba;

  void CloseClientsAndServer() {
    readers.clear();  // goodbye before the server drains
    dba.reset();
    if (server) server->Shutdown();
    server.reset();
  }
  void Close() {
    CloseClientsAndServer();
    db.reset();
  }
};

/// Everything the measured phase records.
struct Measured {
  LatencyLog script{kDeadlineMs}, decompose{kDeadlineMs}, merge{kDeadlineMs};
  LatencyLog query{kDeadlineMs * 1000};
  double query_wall_s = 0;
  uint64_t attempted = 0;
  std::vector<double> gen_lag_ms;  // mixed only
};

/// The reader statement stream of mixed (and of its replay).
cods::Rng MixedStreamRng(uint64_t seed) { return cods::Rng(seed * 7 + 3); }

/// Options of every DurableDb the benchmark opens; auto-checkpoint off
/// (set-up turns it on for the measured phase).
cods::DurableDbOptions DbOptions() {
  cods::DurableDbOptions opts;
  opts.engine.num_threads = kEngineThreads;
  opts.auto_checkpoint_wal_bytes = 0;
  return opts;
}

Inputs MakeInputs(const RunConfig& cfg) {
  Inputs in;
  in.r = GenerateFact(FactSpec{"R", kRRows, kRKeys}, cfg.seed);
  const bool server = cfg.workload == "mixed";
  if (server) {
    in.d = GenerateDim();
    in.pool = std::make_unique<QueryPool>(
        QueryPool::Build(in.r, in.d, cfg.seed));
    in.w = GenerateFact(FactSpec{"W", kWRows, kWKeys}, cfg.seed + 7919);
  }
  const FactData& dba = server ? in.w : in.r;
  in.dba = dba.spec;
  in.dba_ref = BuildFactReference(dba);
  return in;
}

/// Opens a fresh database in `dir` and loads the workload's generated
/// rows into it (dictionaries, bitmaps), checkpointed.
cods::Result<std::unique_ptr<DurableDb>> LoadDb(
    cods::Env* env, const Inputs& in, bool server, const std::string& dir,
    const cods::DurableDbOptions& opts) {
  CODS_ASSIGN_OR_RETURN(auto db, DurableDb::Open(env, dir, opts));
  CODS_RETURN_NOT_OK(db->versions()->Apply([&](cods::TableStore& s) {
    CODS_RETURN_NOT_OK(s.AddTable(BuildFactTable(in.r)));
    if (server) {
      CODS_RETURN_NOT_OK(s.AddTable(in.d));
      CODS_RETURN_NOT_OK(s.AddTable(BuildFactTable(in.w)));
    }
    return cods::Status::OK();
  }));
  // Loaded tables are raw data, not statements: only a checkpoint makes
  // them durable.
  CODS_RETURN_NOT_OK(db->Checkpoint());
  return db;
}

cods::Result<Live> SetUp(const Inputs& in, const std::string& workload,
                         const std::string& dir) {
  Live live;
  live.env = std::make_unique<CountingEnv>(cods::Env::Default());
  const bool server = workload == "mixed";
  cods::DurableDbOptions opts = DbOptions();
  opts.auto_checkpoint_wal_bytes =
      server ? kMixedCheckpointWalBytes : kEvolveCheckpointWalBytes;
  CODS_ASSIGN_OR_RETURN(live.db,
                        LoadDb(live.env.get(), in, server, dir, opts));
  if (!server) return live;
  cods::server::ServerOptions sopts;
  sopts.statement_timeout_ms = static_cast<int>(kDeadlineMs);
  live.server = std::make_unique<cods::server::Server>(live.db.get(), sopts);
  CODS_RETURN_NOT_OK(live.server->Start());
  for (int s = 0; s < kMixedSessions; ++s) {
    CODS_ASSIGN_OR_RETURN(auto c, Client::Connect("127.0.0.1",
                                                  live.server->port()));
    CODS_ASSIGN_OR_RETURN(WireResponse p, c->Prepare(kPointSql));
    if (p.type != FrameType::kPrepareOk) {
      return cods::Status::InvalidArgument("prepare failed: " +
                                   cods::server::FormatWireResponse(p));
    }
    live.point_ids.push_back(p.stmt_id);
    live.readers.push_back(std::move(c));
  }
  CODS_ASSIGN_OR_RETURN(live.dba,
                        Client::Connect("127.0.0.1", live.server->port()));
  return live;
}

void RecordScript(CycleScript::Kind kind, bool ok, double ms, Measured* m) {
  ++m->attempted;
  LatencyLog* by_kind = kind == CycleScript::Kind::kDecompose ? &m->decompose
                        : kind == CycleScript::Kind::kMerge   ? &m->merge
                                                              : nullptr;
  if (ok) {
    m->script.Ok(ms);
    if (by_kind != nullptr) by_kind->Ok(ms);
  } else {
    m->script.Failed();
    if (by_kind != nullptr) by_kind->Failed();
  }
}

// ---- evolve: one DBA, embedded API, durable commits ------------------------

/// One DBA cycle through the embedded API: each step is one script and
/// one commit; the column-op step goes through the script planner.
/// Records each acked script in `m` when given.
cods::Status ApplyCycleEmbedded(DurableDb* db, const FactSpec& spec,
                                uint64_t cycle, Measured* m) {
  for (const CycleScript& cs : EvolutionCycle(spec, cycle)) {
    std::string text;
    for (const std::string& s : cs.statements) text += s + "\n";
    const Clock::time_point s0 = Clock::now();
    auto script = cods::ParseSmoScript(text);
    cods::Status st = script.status();
    if (st.ok()) {
      st = cs.kind == CycleScript::Kind::kColumnOps
               ? db->ApplyScriptPlanned(script.ValueOrDie())
               : db->ApplyScript(script.ValueOrDie());
    }
    if (m != nullptr) {
      RecordScript(cs.kind, st.ok(), MicrosBetween(s0, Clock::now()) / 1000,
                   m);
    }
    CODS_RETURN_NOT_OK(st);
  }
  return cods::Status::OK();
}

void RunEvolve(Live* live, const Inputs& in, double seconds, Measured* m,
               Outcome* out) {
  const Clock::time_point t0 = Clock::now();
  for (uint64_t cycle = 0; SecondsSince(t0) < seconds; ++cycle) {
    cods::Status st =
        ApplyCycleEmbedded(live->db.get(), in.dba, cycle, m);
    if (!st.ok()) {
      out->Wrong("script failed: " + st.ToString());
      return;
    }
    // The DBA verifies every cycle with GROUP BYs and point counts; these
    // are the workload's only queries.
    m->attempted += in.dba_ref.verify_sql.size();
    std::string err = VerifyFact(live->db->GetSnapshot(), in.dba,
                                 in.dba_ref, &m->query);
    if (!err.empty()) {
      out->Wrong("cycle " + std::to_string(cycle) + ": " + err);
      return;
    }
  }
  m->query_wall_s = SecondsSince(t0);
}

// ---- The DBA over the wire (mixed) ------------------------------------------

struct DbaResult {
  Measured m;
  std::string wrong;
};

/// Runs whole cycles on the DBA's table until `deadline` passes, starting
/// cycle c no earlier than c * kMixedDbaCyclePeriod after the first. Each
/// statement is one acked, fsync'd commit; a script (a cycle step) is
/// acked when its last statement is.
void RunWireDba(Client* client, DurableDb* db, const Inputs& in,
                Clock::time_point deadline, DbaResult* r) {
  const Clock::time_point start = Clock::now();
  for (int cycle = 0; Clock::now() < deadline; ++cycle) {
    std::this_thread::sleep_until(start + cycle * kMixedDbaCyclePeriod);
    for (const CycleScript& cs :
         EvolutionCycle(in.dba, static_cast<uint64_t>(cycle))) {
      const Clock::time_point s0 = Clock::now();
      for (const std::string& stmt : cs.statements) {
        auto resp = client->Execute(stmt);
        if (!resp.ok() || resp.ValueOrDie().type != FrameType::kResultOk) {
          RecordScript(cs.kind, false, 0, &r->m);
          r->wrong = "DBA statement '" + stmt + "' failed: " +
                     (resp.ok() ? cods::server::FormatWireResponse(
                                      resp.ValueOrDie())
                                : resp.status().ToString());
          return;
        }
      }
      RecordScript(cs.kind, true, MicrosBetween(s0, Clock::now()) / 1000,
                   &r->m);
    }
    std::string err =
        VerifyFact(db->GetSnapshot(), in.dba, in.dba_ref, nullptr);
    if (!err.empty()) {
      r->wrong = "cycle " + std::to_string(cycle) + ": " + err;
      return;
    }
  }
}

// ---- Reader sessions --------------------------------------------------------

struct ReaderResult {
  LatencyLog lat{kDeadlineMs * 1000};
  uint64_t attempted = 0;
  std::string wrong;
};

/// Classifies one reply: "" when it matches `expected`; "failed" for a
/// typed error (refused, timed out, ...), which counts as a failure; else
/// the mismatch, which makes the run wrong.
std::string Judge(const cods::Result<WireResponse>& resp,
                  const std::string& expected, const std::string& text) {
  if (!resp.ok()) return "failed";
  if (resp.ValueOrDie().type == FrameType::kError) return "failed";
  std::string got = CanonicalWire(resp.ValueOrDie());
  if (got == expected) return "";
  return "wrong answer to '" + text + "': got " + got.substr(0, 200) +
         ", expected " + expected.substr(0, 200);
}

// ---- mixed: open-loop readers beside an online DBA -------------------------

void RunMixed(Live* live, const Inputs& in, uint64_t seed, double seconds,
              Measured* m, Outcome* out) {
  const size_t sessions = live->readers.size();
  OpenLoopSchedule plan;
  plan.rate = kMixedRatePerSec;
  cods::Rng rng = MixedStreamRng(seed);
  const size_t n = static_cast<size_t>(kMixedRatePerSec * seconds);
  std::vector<QueryRef> queries;  // statement i goes to session i % sessions
  for (size_t i = 0; i < n; ++i) {
    queries.push_back(in.pool->Draw(rng, i));
  }
  plan.start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point deadline = plan.Due(n);

  // What each session's receiver must await: a count of frames written,
  // final once the sender has written the session's closing ping.
  std::vector<std::atomic<uint64_t>> sent(sessions);
  std::atomic<bool> sending_done{false};
  std::vector<double> lag_ms(n, 0);
  std::vector<uint8_t> send_failed(n, 0);

  std::thread sender([&] {
    // Wake at the due time, not up to the default 50 us timer slack later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (size_t i = 0; i < n; ++i) {
      const size_t s = i % sessions;
      const QueryRef& q = queries[i];
      const Clock::time_point due = plan.Due(i);
      std::this_thread::sleep_until(due);
      lag_ms[i] = MicrosBetween(due, Clock::now()) / 1000;
      const uint64_t id = kOpenLoopIdBase + i;
      std::string frame =
          q.kind == QueryKind::kPoint
              ? cods::server::EncodeExecPrepared(id, live->point_ids[s],
                                                 {cods::Value(q.arg)})
              : cods::server::EncodeExecute(id, in.pool->Text(q));
      if (!live->readers[s]->SendRaw(frame).ok()) send_failed[i] = 1;
      // Only frames actually written are awaited by the receiver.
      if (!send_failed[i]) sent[s].fetch_add(1, std::memory_order_release);
    }
    // A ping after the last statement ends each session's stream: its
    // pong tells the blocked receiver that `sent` is final. A ping that
    // cannot be written leaves a broken connection, whose read fails.
    for (size_t s = 0; s < sessions; ++s) {
      live->readers[s]->SendRaw(cods::server::EncodePing(kClosingPingId))
          .IgnoreError();
    }
    sending_done.store(true, std::memory_order_release);
  });

  std::vector<ReaderResult> results(sessions);
  std::vector<std::thread> receivers;
  for (size_t s = 0; s < sessions; ++s) {
    receivers.emplace_back([&, s] {
      ReaderResult& r = results[s];
      uint64_t received = 0;
      bool closed = false;  // the closing pong has arrived
      while (!closed ||
             received < sent[s].load(std::memory_order_acquire)) {
        auto resp = live->readers[s]->ReceiveAny();
        const Clock::time_point now = Clock::now();
        if (!resp.ok()) {
          // The connection is gone: whatever was sent and not answered
          // failed. Later sends to it fail and count in send_failed.
          while (!sending_done.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          for (; received < sent[s].load(); ++received) r.lat.Failed();
          return;
        }
        if (resp.ValueOrDie().request_id == kClosingPingId) {
          closed = true;
          continue;
        }
        ++received;
        const uint64_t i = resp.ValueOrDie().request_id - kOpenLoopIdBase;
        if (i >= n || i % sessions != s) {
          r.wrong = "reply to an unknown request id";
          return;
        }
        const QueryRef& q = queries[i];
        std::string verdict = Judge(resp, in.pool->Expected(q),
                                    in.pool->Text(q));
        if (verdict.empty()) {
          r.lat.Ok(plan.LatencyUs(i, now));
        } else if (verdict == "failed") {
          r.lat.Failed();
        } else {
          r.wrong = verdict;
          return;
        }
      }
    });
  }

  DbaResult dba;
  std::thread dba_thread([&] {
    RunWireDba(live->dba.get(), live->db.get(), in, deadline, &dba);
  });
  sender.join();
  for (std::thread& t : receivers) t.join();
  m->query_wall_s = SecondsSince(plan.start);
  dba_thread.join();

  m->attempted += n;
  for (size_t s = 0; s < sessions; ++s) {
    m->query.Append(results[s].lat);
    if (!results[s].wrong.empty()) out->Wrong(results[s].wrong);
  }
  for (size_t i = 0; i < n; ++i) {
    if (send_failed[i]) m->query.Failed();
  }
  m->gen_lag_ms = std::move(lag_ms);
  m->script.Append(dba.m.script);
  m->decompose.Append(dba.m.decompose);
  m->merge.Append(dba.m.merge);
  m->attempted += dba.m.attempted;
  if (!dba.wrong.empty()) out->Wrong(dba.wrong);
}

uint64_t RawBytesOf(const cods::CatalogRoot& root) {
  uint64_t raw = 0;
  for (const auto& [name, table] : root.tables()) raw += RawBytes(*table);
  return raw;
}

/// Times `n` set-ups, each into a directory of its own that is removed
/// afterwards.
cods::Status TimeSetUps(const Inputs& in, const std::string& workload,
                        const std::string& dir, int n,
                        std::vector<double>* setup_s) {
  for (int rep = 0; rep < n; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto set = SetUp(in, workload, dir);
    setup_s->push_back(SecondsSince(t0));
    CODS_RETURN_NOT_OK(set.status());
    set.ValueOrDie().Close();
    RemoveTree(dir);
  }
  return cods::Status::OK();
}

/// Recovery's fixed scenario, so every run replays the same work: the
/// loaded database, checkpointed, then DBA cycles committed to its WAL
/// (auto-checkpoint off), then a clean close. Returns the closed
/// catalog's image and sets `space_amp` from it.
cods::Result<std::vector<uint8_t>> BuildRecoveryScenario(
    const Inputs& in, const std::string& workload, const std::string& dir,
    double* space_amp) {
  CODS_ASSIGN_OR_RETURN(auto db, LoadDb(cods::Env::Default(), in,
                                        workload == "mixed", dir,
                                        DbOptions()));
  for (int c = 0; c < WalCyclesToRecover(workload); ++c) {
    CODS_RETURN_NOT_OK(ApplyCycleEmbedded(db.get(), in.dba, c, nullptr));
  }
  const cods::Snapshot snap = db->GetSnapshot();
  const cods::Catalog catalog = cods::MaterializeCatalog(snap.root());
  *space_amp =
      static_cast<double>(cods::SerializeCatalogV3(catalog, 0).size()) /
      static_cast<double>(RawBytesOf(snap.root()));
  return cods::SerializeCatalog(catalog);
}

/// Times `n` reopens of the recovery scenario; each must reproduce
/// `image`.
cods::Status TimeReopens(const std::string& dir,
                         const std::vector<uint8_t>& image, int n,
                         std::vector<double>* recover_s) {
  for (int rep = 0; rep < n; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto reopened = DurableDb::Open(cods::Env::Default(), dir, DbOptions());
    recover_s->push_back(SecondsSince(t0));
    CODS_RETURN_NOT_OK(reopened.status());
    const cods::Catalog recovered = cods::MaterializeCatalog(
        reopened.ValueOrDie()->GetSnapshot().root());
    if (cods::SerializeCatalog(recovered) != image) {
      return cods::Status::Corruption(
          "recovered catalog differs from the closed one");
    }
  }
  return cods::Status::OK();
}

}  // namespace

Outcome RunWorkload(const RunConfig& cfg) {
  // mixed's open loop leaves every thread idle between statements, so
  // each hop of a statement would wait for the host to resume a halted
  // vCPU; that wait, not the program, set query_p50_us's run-to-run
  // spread. evolve's closed loop leaves no such gaps.
  const IdleSpinners awake(cfg.workload == "mixed" ? CpuCount() : 0);
  Outcome out;
  std::filesystem::create_directories(cfg.dir);
  Inputs in = MakeInputs(cfg);

  // Set-up and recovery are each timed about half before and half after
  // the measured phase, so their medians span the same stretch of the
  // shared host's time as the live metrics. The last set-up before the
  // measured phase is the one measured. A traced run reports no set-up or
  // recovery time, so it sets up and reopens once.
  sync();
  const std::string scenario_dir = cfg.dir + "/recover";
  const std::string spare_dir = cfg.dir + "/spare";
  const std::string db_dir = cfg.dir + "/db";
  const int setups_before = cfg.trace ? 0 : kSetupRepeats / 2;
  const int reopens_before = cfg.trace ? 0 : kRecoverRepeats / 2;
  std::vector<double> setup_s, recover_s;
  double space_amp = 0;
  auto image =
      BuildRecoveryScenario(in, cfg.workload, scenario_dir, &space_amp);
  if (!image.ok()) {
    out.Wrong("recovery scenario failed: " + image.status().ToString());
    return out;
  }
  const std::vector<uint8_t>& scenario_image = image.ValueOrDie();
  cods::Status st =
      TimeSetUps(in, cfg.workload, spare_dir, setups_before, &setup_s);
  if (st.ok()) st = TimeReopens(scenario_dir, scenario_image, reopens_before,
                                &recover_s);
  if (!st.ok()) {
    out.Wrong("set-up or recovery failed: " + st.ToString());
    return out;
  }
  Live live;
  {
    const Clock::time_point t0 = Clock::now();
    auto set = SetUp(in, cfg.workload, db_dir);
    setup_s.push_back(SecondsSince(t0));
    if (!set.ok()) {
      out.Wrong("set-up failed: " + set.status().ToString());
      return out;
    }
    live = std::move(set).ValueOrDie();
  }

  // Earlier runs' deleted databases may still be in writeback; settle the
  // disk before timing.
  sync();
  // Heap the timed set-ups and reopens freed goes back to the system, so
  // the peak covers what the measured phase itself holds.
  malloc_trim(0);
  ResetPeakRss();
  const uint64_t commits_before =
      live.db->versions()->serving()->GetStats().commits;
  const uint64_t bytes_before = live.env->bytes_appended();
  const uint64_t checkpoints_before = live.env->checkpoints();
  Measured m;
  if (cfg.workload == "evolve") {
    RunEvolve(&live, in, cfg.seconds, &m, &out);
  } else {
    RunMixed(&live, in, cfg.seed, cfg.seconds, &m, &out);
  }
  const double peak_rss_mb = PeakRssMb();
  cods::server::ServerStats sstats;  // all zero on evolve (no server)
  if (live.server) sstats = live.server->GetStats();
  live.CloseClientsAndServer();
  const uint64_t commits =
      live.db->versions()->serving()->GetStats().commits - commits_before;
  const uint64_t bytes_written = live.env->bytes_appended() - bytes_before;
  const uint64_t checkpoints = live.env->checkpoints() - checkpoints_before;

  live.Close();
  RemoveTree(db_dir);
  // The measured phase's writes may still be in writeback.
  sync();
  st = TimeSetUps(in, cfg.workload, spare_dir,
                  (cfg.trace ? 1 : kSetupRepeats) - 1 - setups_before,
                  &setup_s);
  if (st.ok()) {
    st = TimeReopens(scenario_dir, scenario_image,
                     (cfg.trace ? 1 : kRecoverRepeats) - reopens_before,
                     &recover_s);
  }
  if (!st.ok()) out.Wrong("set-up or recovery failed: " + st.ToString());

  out.attempted = m.attempted;
  out.failed = m.query.failed() + m.script.failed();
  if (out.attempted == 0) out.Wrong("the run attempted nothing");

  if (!cfg.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("script_p50_ms", m.script.P(0.5), "ms");
    out.Add("script_p90_ms", m.script.P(0.9), "ms");
    out.Add("decompose_p50_ms", m.decompose.P(0.5), "ms");
    out.Add("merge_p50_ms", m.merge.P(0.5), "ms");
    out.Add("recover_s", Median(recover_s), "s");
    out.Add("space_amp", space_amp, "ratio");
    out.Add("query_p50_us", m.query.P(0.5), "us");
    out.Add("query_p99_us", m.query.P(0.99), "us");
    out.Add("queries_per_s",
            static_cast<double>(m.query.count() - m.query.failed()) /
                std::max(m.query_wall_s, 1e-9),
            "1/s");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    std::fprintf(stderr,
                 "samples: queries=%zu (p99 supported: %s) scripts=%zu "
                 "(p90 supported: %s) decompose=%zu merge=%zu\n",
                 m.query.count(),
                 PercentileSupported(m.query.count(), 0.99) ? "yes" : "no",
                 m.script.count(),
                 PercentileSupported(m.script.count(), 0.9) ? "yes" : "no",
                 m.decompose.count(), m.merge.count());
    RemoveTree(scenario_dir);
    return out;
  }

  // ---- Traced run: live-phase counters, then the replay. ----
  out.Add("server.batch.hit_ratio",
          static_cast<double>(sstats.batch.batch_hits) /
              static_cast<double>(std::max<uint64_t>(sstats.batch.statements,
                                                     1)),
          "ratio");
  out.Add("server.admission.rejected",
          static_cast<double>(sstats.admission.point.rejected_full +
                              sstats.admission.heavy.rejected_full),
          "count");
  out.Add("concurrency.commits", static_cast<double>(commits), "count");
  out.Add("durability.checkpoints", static_cast<double>(checkpoints),
          "count");
  out.Add("durability.bytes_written_per_script",
          static_cast<double>(bytes_written) /
              static_cast<double>(std::max<size_t>(m.script.count(), 1)),
          "B");
  out.Add("bench.gen_lag_ms", m.gen_lag_ms.empty() ? 0.0
                                                   : Percentile(m.gen_lag_ms,
                                                                0.99),
          "ms");

  auto recovered = cods::DeserializeCatalog(scenario_image);
  if (!recovered.ok()) {
    out.Wrong("replay: " + recovered.status().ToString());
    return out;
  }
  cods::SnapshotCatalog serving;
  serving.Reset(recovered.ValueOrDie());
  ReplayInputs rin;
  rin.serving = &serving;
  rin.r = serving.current()->Lookup("R");
  rin.dba_spec = in.dba;
  rin.dba_ref = &in.dba_ref;
  // Each workload's own statements: mixed's served reader stream, or
  // evolve's embedded verifying statements, repeated.
  rin.served = cfg.workload == "mixed";
  if (rin.served) {
    cods::Rng rng = MixedStreamRng(cfg.seed);
    for (uint64_t seq = 0; seq < kReplayStatements; ++seq) {
      const QueryRef q = in.pool->Draw(rng, seq);
      rin.statements.push_back({in.pool->Text(q), in.pool->Expected(q),
                                q.kind == QueryKind::kPoint, q.arg});
    }
    rin.batch_width = kMixedSessions;
    // Only served statements pass through an event loop and lane queues.
    rin.live_query_p50_us = m.query.P(0.5);
  } else {
    const FactReference& ref = in.dba_ref;
    for (size_t i = 0; rin.statements.size() < kReplayStatements; ++i) {
      const size_t j = i % ref.verify_sql.size();
      rin.statements.push_back(
          {ref.verify_sql[j], ref.verify_expected[j], false, 0});
    }
  }
  rin.scratch_dir = cfg.dir + "/replay";
  rin.spans_path = cfg.spans_path;
  rin.env = cods::Env::Default();
  std::filesystem::create_directories(rin.scratch_dir);
  RunReplay(rin, &out);
  RemoveTree(scenario_dir);
  return out;
}

}  // namespace codsbench
