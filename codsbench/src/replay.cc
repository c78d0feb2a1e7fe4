#include "replay.h"

#include <algorithm>
#include <optional>
#include <thread>

#include "bitmap/codec.h"
#include "common/logging.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "evolution/decompose.h"
#include "evolution/engine.h"
#include "evolution/merge.h"
#include "plan/script_planner.h"
#include "probes.h"
#include "query/query_evolution.h"
#include "query/row_executor.h"
#include "server/admission.h"
#include "server/batch.h"
#include "server/prepared.h"
#include "smo/parser.h"
#include "storage/serde.h"
#include "trace.h"

namespace codsbench {

namespace {

using cods::QueryRequest;
using Span = Tracer::Span;

// The server's point/heavy split and per-statement execution width
// (ServerOptions defaults), so the replay runs what the server runs.
constexpr uint64_t kHeavyRowThreshold = 4096;
constexpr int kExecThreads = 1;
constexpr int kCountOnesPasses = 20;
constexpr int kAndCountPairs = 3000;
constexpr int kOrManyCalls = 20;
constexpr int kOrManyWidth = 100;
constexpr int kStorageRepeats = 3;

volatile uint64_t g_sink = 0;  // keeps kernel results observable

const char* EvolutionSpanName(CycleScript::Kind kind) {
  switch (kind) {
    case CycleScript::Kind::kDecompose:
      return "evolution.decompose";
    case CycleScript::Kind::kMerge:
      return "evolution.merge";
    case CycleScript::Kind::kPartition:
      return "evolution.partition";
    case CycleScript::Kind::kColumnOps:
      return "evolution.column_ops";
    case CycleScript::Kind::kUnion:
      return "evolution.union";
  }
  return "evolution.other";
}

const char* QuerySpanName(const QueryRequest& q) {
  if (!q.join_table.empty()) return "query.join";
  switch (q.verb) {
    case QueryRequest::Verb::kCount:
      return "query.count";
    case QueryRequest::Verb::kGroupBy:
      return "query.groupby";
    case QueryRequest::Verb::kSelect:
      return "query.select";
  }
  return "query.other";
}

uint64_t RowsOut(const cods::QueryResult& r) {
  switch (r.verb) {
    case QueryRequest::Verb::kCount:
      return 1;
    case QueryRequest::Verb::kSelect:
      return r.table->rows();
    case QueryRequest::Verb::kGroupBy:
      return r.groups.size();
  }
  return 0;
}

/// One reader statement through the server's pipeline stages, each in
/// its own span: wire decode, parse (or prepared bind), snapshot pin,
/// admission classify, query engine, wire encode. A statement that is not
/// served (in.served false) skips the wire, bind and admission stages, as
/// the embedded API does. Returns rows out.
uint64_t ReplayOneStatement(const ReplayInputs& in,
                            const cods::server::PreparedStatement* point,
                            const ReplayStatement& st, uint64_t request_id,
                            Tracer* tr, Outcome* out) {
  namespace sv = cods::server;
  const cods::ExecContext ctx(kExecThreads);
  const std::string frame_bytes =
      st.prepared ? sv::EncodeExecPrepared(request_id, 1,
                                           {cods::Value(st.param)})
                  : sv::EncodeExecute(request_id, st.text);
  const uint64_t tid = tr->NewTraceId();
  std::string reply;
  cods::QueryResult result;
  {
    Span root(tr, "stmt", tid);
    sv::WireRequest req;
    if (in.served) {
      Span s(tr, "server.wire.decode", tid);
      sv::Frame frame;
      size_t consumed = 0;
      cods::Status err;
      CODS_CHECK(sv::DecodeFrame(frame_bytes, sv::kDefaultMaxFrameBytes,
                                 &frame, &consumed,
                                 &err) == sv::DecodeStatus::kFrame);
      auto decoded = sv::DecodeRequest(frame);
      CODS_CHECK(decoded.ok()) << decoded.status().ToString();
      req = std::move(decoded).ValueOrDie();
    }
    cods::Result<cods::Statement> stmt =
        cods::Status::Cancelled("not parsed");
    if (!in.served) {
      Span s(tr, "smo.parse", tid);
      stmt = cods::ParseStatement(st.text);
    } else if (st.prepared) {
      Span s(tr, "server.prepared.bind", tid);
      stmt = sv::BindParams(*point, req.params);
    } else {
      Span s(tr, "smo.parse", tid);
      stmt = cods::ParseStatement(req.text);
    }
    if (!stmt.ok()) {
      out->Wrong("replay: " + stmt.status().ToString());
      return 0;
    }
    const QueryRequest& q = stmt.ValueOrDie().query;
    cods::Snapshot snap;
    {
      Span s(tr, "concurrency.pin", tid);
      snap = in.serving->GetSnapshot();
    }
    if (in.served) {
      Span s(tr, "server.admission.classify", tid);
      const sv::Lane lane = sv::ClassifyStatement(
          stmt.ValueOrDie(), snap.root(), kHeavyRowThreshold);
      g_sink = g_sink + static_cast<uint64_t>(lane);
    }
    auto table = snap.root().GetTable(q.table);
    CODS_CHECK(table.ok()) << table.status().ToString();
    cods::Status st_exec;
    if (q.verb == QueryRequest::Verb::kSelect && !q.order_by.empty()) {
      // Split so filtering and ordering get their own spans.
      cods::Result<std::shared_ptr<const cods::Table>> rows =
          cods::Status::Cancelled("not run");
      {
        Span s(tr, "query.select", tid);
        rows = cods::QueryEngine::SelectRows(*table.ValueOrDie(), q.columns,
                                             q.where, q.out_name, &ctx);
      }
      if (rows.ok()) {
        Span s(tr, "query.order", tid);
        rows = cods::QueryEngine::SortRows(*rows.ValueOrDie(), q.order_by,
                                           q.order_desc, q.limit, q.out_name,
                                           &ctx);
      }
      st_exec = rows.status();
      if (rows.ok()) {
        result.verb = QueryRequest::Verb::kSelect;
        result.table = std::move(rows).ValueOrDie();
      }
    } else {
      Span s(tr, QuerySpanName(q), tid);
      auto r = cods::QueryEngine(snap.store()).Execute(q, &ctx);
      st_exec = r.status();
      if (r.ok()) result = std::move(r).ValueOrDie();
    }
    if (!st_exec.ok()) {
      out->Wrong("replay: " + st_exec.ToString());
      return 0;
    }
    if (q.where != nullptr && q.join_table.empty()) {
      Span s(tr, "query.eval", tid);
      auto sel = cods::EvalExpr(*table.ValueOrDie(), q.where, &ctx);
      CODS_CHECK(sel.ok()) << sel.status().ToString();
      g_sink = g_sink + sel.ValueOrDie().CountOnes();
    }
    if (in.served) {
      Span s(tr, "server.wire.encode", tid);
      reply = sv::EncodeQueryResult(request_id, result);
    }
  }
  if (!in.served) {
    if (CanonicalResult(result) != st.expected) {
      out->Wrong("replay: wrong answer to '" + st.text + "'");
    }
    return RowsOut(result);
  }
  sv::Frame frame;
  size_t consumed = 0;
  cods::Status err;
  CODS_CHECK(sv::DecodeFrame(reply, sv::kDefaultMaxFrameBytes, &frame,
                             &consumed, &err) == sv::DecodeStatus::kFrame);
  auto resp = sv::DecodeResponse(frame);
  if (!resp.ok() || CanonicalWire(resp.ValueOrDie()) != st.expected) {
    out->Wrong("replay: wrong answer to '" + st.text + "'");
  }
  return RowsOut(result);
}

/// The statement stream through the pipeline, then, when served, through
/// the server's batch executor in groups of `batch_width`. Returns wall
/// seconds.
double ReplayStatements(const ReplayInputs& in, Tracer* tr, Outcome* out,
                        double* rows_out_mean) {
  const Clock::time_point t0 = Clock::now();
  std::optional<cods::server::PreparedStatement> point;
  if (in.served) {
    auto prepared = cods::server::PrepareStatement(kPointSql,
                                                   *in.serving->current());
    CODS_CHECK(prepared.ok()) << prepared.status().ToString();
    point = std::move(prepared).ValueOrDie();
  }
  uint64_t rows = 0;
  for (size_t i = 0; i < in.statements.size(); ++i) {
    rows += ReplayOneStatement(in, point ? &*point : nullptr,
                               in.statements[i], i + 1, tr, out);
  }
  *rows_out_mean =
      static_cast<double>(rows) / static_cast<double>(in.statements.size());
  if (!in.served) return SecondsSince(t0);

  std::vector<cods::Statement> parsed;
  parsed.reserve(in.statements.size());
  for (const ReplayStatement& st : in.statements) {
    auto s = st.prepared
                 ? cods::server::BindParams(*point,
                                            {cods::Value(st.param)})
                 : cods::ParseStatement(st.text);
    CODS_CHECK(s.ok()) << s.status().ToString();
    parsed.push_back(std::move(s).ValueOrDie());
  }
  const cods::ExecContext ctx(kExecThreads);
  for (size_t b = 0; b < parsed.size(); b += in.batch_width) {
    const size_t e = std::min(parsed.size(), b + in.batch_width);
    std::vector<const QueryRequest*> reqs;
    for (size_t i = b; i < e; ++i) reqs.push_back(&parsed[i].query);
    cods::Snapshot snap = in.serving->GetSnapshot();
    std::vector<cods::server::BatchOutcome> outcomes;
    {
      Span s(tr, "server.batch.exec", tr->NewTraceId(), e - b);
      outcomes = cods::server::ExecuteQueryBatch(*snap.store(), reqs, &ctx);
    }
    for (size_t i = b; i < e; ++i) {
      const auto& o = outcomes[i - b];
      if (!o.status.ok() ||
          CanonicalResult(o.result) != in.statements[i].expected) {
        out->Wrong("replay: batch answer to '" + in.statements[i].text +
                   "' is wrong");
      }
    }
  }
  return SecondsSince(t0);
}

/// One evolution cycle of the DBA's table through parse, plan, the
/// evolution engine (snapshot mode, no WAL) and a separate WAL commit
/// with fsync. Returns wall seconds.
double ReplayScripts(const ReplayInputs& in, const std::string& wal_path,
                     Tracer* tr, cods::TaskGraphStats* tg, Outcome* out) {
  const Clock::time_point t0 = Clock::now();
  cods::SnapshotCatalog catalog;
  {
    cods::Catalog seed;
    CODS_CHECK_OK(seed.AddTable(
        in.serving->current()->Lookup(in.dba_spec.name)));
    catalog.Reset(seed);
  }
  cods::EngineOptions options;
  options.num_threads = kEngineThreads;
  cods::EvolutionEngine engine(&catalog, nullptr, options);
  RemoveTree(wal_path);
  auto wal = cods::WalWriter::Open(in.env, wal_path, 1);
  CODS_CHECK(wal.ok()) << wal.status().ToString();
  for (const CycleScript& cs : EvolutionCycle(in.dba_spec, 0)) {
    std::string text;
    for (const std::string& s : cs.statements) text += s + "\n";
    const uint64_t tid = tr->NewTraceId();
    Span root(tr, "script", tid);
    cods::Result<std::vector<cods::Smo>> script =
        cods::Status::Cancelled("not parsed");
    {
      Span s(tr, "smo.parse", tid);
      script = cods::ParseSmoScript(text);
    }
    CODS_CHECK(script.ok()) << script.status().ToString();
    {
      Span s(tr, "plan.plan", tid);
      g_sink = g_sink + cods::PlanScript(script.ValueOrDie()).num_edges;
    }
    cods::Status st;
    {
      Span s(tr, EvolutionSpanName(cs.kind), tid);
      st = cs.kind == CycleScript::Kind::kColumnOps
               ? engine.ApplyAllPlanned(script.ValueOrDie(), tg)
               : engine.ApplyAll(script.ValueOrDie());
    }
    if (!st.ok()) {
      out->Wrong("replay: script failed: " + st.ToString());
      return SecondsSince(t0);
    }
    {
      Span s(tr, "durability.wal_commit", tid);
      cods::WalWriter& w = *wal.ValueOrDie();
      st = w.BeginScript();
      for (const std::string& stmt : cs.statements) {
        if (st.ok()) st = w.AppendStatement(stmt);
      }
      if (st.ok()) {
        st = w.CommitScript(static_cast<uint32_t>(cs.statements.size()));
      }
    }
    CODS_CHECK_OK(st);
  }
  std::string err =
      VerifyFact(catalog.GetSnapshot(), in.dba_spec, *in.dba_ref, nullptr);
  if (!err.empty()) out->Wrong("replay: " + err);
  return SecondsSince(t0);
}

/// Serde v3 of the served catalog and a checkpoint write of it.
void ReplayStorage(const ReplayInputs& in, Tracer* tr, Outcome* out) {
  const cods::Catalog catalog =
      cods::MaterializeCatalog(*in.serving->current());
  std::vector<uint8_t> image;
  for (int rep = 0; rep < kStorageRepeats; ++rep) {
    const uint64_t tid = tr->NewTraceId();
    {
      Span s(tr, "storage.serialize", tid);
      image = cods::SerializeCatalogV3(catalog, 1);
    }
    cods::Result<cods::Catalog> back = cods::Status::Cancelled("not read");
    {
      Span s(tr, "storage.deserialize", tid);
      back = cods::DeserializeCatalog(image);
    }
    if (!back.ok() ||
        cods::SerializeCatalogV3(back.ValueOrDie(), 1) != image) {
      out->Wrong("replay: serde round trip changed the catalog");
    }
    {
      Span s(tr, "durability.checkpoint", tid);
      CODS_CHECK_OK(
          cods::WriteCheckpoint(in.env, in.scratch_dir, catalog, 1));
    }
  }
  out->Add("storage.image_bytes", static_cast<double>(image.size()), "B");
}

/// Codec kernels on R's own value bitmaps.
void ReplayBitmaps(const ReplayInputs& in, Tracer* tr) {
  const cods::Table& r = *in.r;
  std::vector<const cods::ValueBitmap*> all;
  for (size_t c = 0; c < r.num_columns(); ++c) {
    for (const cods::ValueBitmap& b : r.column(c)->bitmaps()) {
      all.push_back(&b);
    }
  }
  const auto count_loop = [&all] {
    uint64_t sum = 0;
    for (int pass = 0; pass < kCountOnesPasses; ++pass) {
      for (const cods::ValueBitmap* b : all) sum += b->CountOnes();
    }
    return sum;
  };
  const uint64_t calls = kCountOnesPasses * all.size();
  const uint64_t tid = tr->NewTraceId();
  {
    Span s(tr, "bitmap.count_ones", tid, calls);
    g_sink = g_sink + count_loop();
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int64_t> lo(nproc), hi(nproc);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < nproc; ++t) {
    threads.emplace_back([&, t] {
      lo[t] = tr->NowNs();
      g_sink = g_sink + count_loop();
      hi[t] = tr->NowNs();
    });
  }
  for (std::thread& t : threads) t.join();
  for (unsigned t = 0; t < nproc; ++t) {
    tr->AddClosed("bitmap.count_ones_nproc", tid, lo[t], hi[t], calls);
  }

  // Pairs of value bitmaps: key x payload (sparse x sparse), payload x
  // load date (sparse x clustered), dependent x payload.
  const auto& k = r.column(0)->bitmaps();
  const auto& v = r.column(1)->bitmaps();
  const auto& l = r.column(2)->bitmaps();
  const auto& p = r.column(3)->bitmaps();
  {
    Span s(tr, "bitmap.and_count", tid, kAndCountPairs);
    uint64_t sum = 0;
    for (int i = 0; i < kAndCountPairs / 3; ++i) {
      const size_t u = static_cast<size_t>(i);
      sum += cods::CodecAndCount(k[(u * 37) % k.size()], v[u % v.size()]);
      sum += cods::CodecAndCount(v[u % v.size()], l[(u * 7) % l.size()]);
      sum += cods::CodecAndCount(p[(u * 3) % p.size()], v[(u + 1) % v.size()]);
    }
    g_sink = g_sink + sum;
  }
  for (int i = 0; i < kOrManyCalls; ++i) {
    std::vector<const cods::ValueBitmap*> ops;
    const size_t first =
        (static_cast<size_t>(i) * 409) % (k.size() - kOrManyWidth);
    for (size_t j = first; j < first + kOrManyWidth; ++j) ops.push_back(&k[j]);
    Span s(tr, "bitmap.or_many", tid);
    g_sink = g_sink + cods::CodecOrManyCount(ops, r.rows());
  }
}

/// Fig. 3: CODS against the row-store C baseline and the query-level M
/// baseline, same DECOMPOSE and MERGE on the DBA's table.
void ReplayFig3(const ReplayInputs& in, Tracer* tr, Outcome* out) {
  auto t = in.serving->current()->Lookup(in.dba_spec.name);
  auto heap = cods::MaterializeToRowStore(*t);
  CODS_CHECK(heap.ok()) << heap.status().ToString();
  cods::DecomposeSpec spec;
  spec.s_columns = {"K", "V", "L"};
  spec.t_columns = {"K", "P"};
  spec.t_key = {"K"};
  const uint64_t tid = tr->NewTraceId();
  auto cods_dec = [&] {
    Span s(tr, "rowstore.cods_decompose", tid);
    return cods::CodsDecompose(*t, "S", spec.s_columns, {}, "T",
                               spec.t_columns, spec.t_key);
  }();
  auto c_dec = [&] {
    Span s(tr, "rowstore.c_decompose", tid);
    return cods::RowStoreDecompose(*heap.ValueOrDie(), spec,
                                   cods::BaselineKind::kRowStore, "S", "T");
  }();
  auto m_dec = [&] {
    Span s(tr, "rowstore.m_decompose", tid);
    return cods::ColumnQueryLevelDecompose(*t, spec, "S", "T");
  }();
  CODS_CHECK(cods_dec.ok() && c_dec.ok() && m_dec.ok());
  const auto& dec = cods_dec.ValueOrDie();
  auto cods_m = [&] {
    Span s(tr, "rowstore.cods_merge", tid);
    return cods::CodsMerge(*dec.s, *dec.t, {"K"}, {}, "R");
  }();
  auto c_m = [&] {
    Span s(tr, "rowstore.c_merge", tid);
    return cods::RowStoreMerge(*c_dec.ValueOrDie().s, *c_dec.ValueOrDie().t,
                               {"K"}, {}, cods::BaselineKind::kRowStore, "R");
  }();
  auto m_m = [&] {
    Span s(tr, "rowstore.m_merge", tid);
    return cods::ColumnQueryLevelMerge(*dec.s, *dec.t, {"K"}, {}, "R");
  }();
  CODS_CHECK(cods_m.ok() && c_m.ok() && m_m.ok());
  if (cods_m.ValueOrDie().table->rows() != t->rows() ||
      c_m.ValueOrDie().r->rows() != t->rows() ||
      m_m.ValueOrDie().r->rows() != t->rows() ||
      dec.t->rows() != c_dec.ValueOrDie().t->rows()) {
    out->Wrong("replay: Fig. 3 baselines disagree with CODS on row counts");
  }
}

}  // namespace

void RunReplay(const ReplayInputs& in, Outcome* out) {
  // A warm-up pass, then spans off, on, off: the overhead is the traced
  // pass over the mean of the untraced ones around it.
  double rows_out = 0;
  cods::TaskGraphStats tg;
  Tracer warm(false), off1(false), on(true), off2(false);
  ReplayStatements(in, &warm, out, &rows_out);
  ReplayScripts(in, in.scratch_dir + "/warm.wal", &warm, &tg, out);
  const double w_off1 =
      ReplayStatements(in, &off1, out, &rows_out) +
      ReplayScripts(in, in.scratch_dir + "/off1.wal", &off1, &tg, out);
  const double w_on =
      ReplayStatements(in, &on, out, &rows_out) +
      ReplayScripts(in, in.scratch_dir + "/on.wal", &on, &tg, out);
  const double w_off2 =
      ReplayStatements(in, &off2, out, &rows_out) +
      ReplayScripts(in, in.scratch_dir + "/off2.wal", &off2, &tg, out);
  ReplayStorage(in, &on, out);
  ReplayBitmaps(in, &on);
  ReplayFig3(in, &on, out);

  std::map<std::string, double> ns = on.MedianSelfNsByName();
  const auto get = [&ns](const char* name) {
    auto it = ns.find(name);
    return it == ns.end() ? 0.0 : it->second;
  };
  struct Unit {
    const char* span;
    const char* metric;
    double div;
    const char* unit;
  };
  static const Unit kUnits[] = {
      {"server.wire.decode", "server.wire.decode_ns", 1, "ns"},
      {"server.wire.encode", "server.wire.encode_ns", 1, "ns"},
      {"server.admission.classify", "server.admission.classify_ns", 1, "ns"},
      {"server.prepared.bind", "server.prepared.bind_ns", 1, "ns"},
      {"server.batch.exec", "server.batch.exec_us", 1e3, "us"},
      {"smo.parse", "smo.parse_us", 1e3, "us"},
      {"query.count", "query.count_us", 1e3, "us"},
      {"query.select", "query.select_us", 1e3, "us"},
      {"query.order", "query.order_us", 1e3, "us"},
      {"query.groupby", "query.groupby_us", 1e3, "us"},
      {"query.join", "query.join_us", 1e3, "us"},
      {"query.eval", "query.eval_us", 1e3, "us"},
      {"concurrency.pin", "concurrency.pin_ns", 1, "ns"},
      {"plan.plan", "plan.plan_us", 1e3, "us"},
      {"evolution.decompose", "evolution.decompose_ms", 1e6, "ms"},
      {"evolution.merge", "evolution.merge_ms", 1e6, "ms"},
      {"evolution.partition", "evolution.partition_ms", 1e6, "ms"},
      {"evolution.union", "evolution.union_ms", 1e6, "ms"},
      {"evolution.column_ops", "evolution.column_ops_ms", 1e6, "ms"},
      {"durability.wal_commit", "durability.wal_commit_us", 1e3, "us"},
      {"durability.checkpoint", "durability.checkpoint_ms", 1e6, "ms"},
      {"storage.serialize", "storage.serialize_ms", 1e6, "ms"},
      {"storage.deserialize", "storage.deserialize_ms", 1e6, "ms"},
      {"bitmap.count_ones", "bitmap.count_ones_ns", 1, "ns"},
      {"bitmap.count_ones_nproc", "bitmap.count_ones_nproc_ns", 1, "ns"},
      {"bitmap.and_count", "bitmap.and_count_ns", 1, "ns"},
      {"bitmap.or_many", "bitmap.or_many_us", 1e3, "us"},
  };
  for (const Unit& u : kUnits) out->Add(u.metric, get(u.span) / u.div, u.unit);

  // What the replayed pipeline does not contain of the live median: the
  // event loop, sockets and queue waits (server workloads only).
  const double pipeline_us =
      (get("server.wire.decode") + get("server.prepared.bind") +
       get("concurrency.pin") + get("server.admission.classify") +
       get("server.batch.exec") + get("server.wire.encode")) /
      1e3;
  out->Add("server.loop_and_queue_us",
           in.live_query_p50_us > 0 ? in.live_query_p50_us - pipeline_us : 0,
           "us");
  out->Add("query.rows_out_per_stmt", rows_out, "count");
  out->Add("exec.taskgraph.max_parallel", tg.max_parallel, "count");
  out->Add("exec.taskgraph.overlap",
           tg.wall_seconds > 0 ? tg.task_seconds / tg.wall_seconds : 0,
           "ratio");

  uint64_t reps[3] = {0, 0, 0};
  uint64_t bytes = 0;
  uint64_t total = 0;
  for (size_t c = 0; c < in.r->num_columns(); ++c) {
    for (const cods::ValueBitmap& b : in.r->column(c)->bitmaps()) {
      ++reps[static_cast<int>(b.rep())];
      bytes += b.SizeBytes();
      ++total;
    }
  }
  const auto share = [&](cods::BitmapRep rep) {
    return static_cast<double>(reps[static_cast<int>(rep)]) /
           static_cast<double>(std::max<uint64_t>(total, 1));
  };
  out->Add("bitmap.rep.array", share(cods::BitmapRep::kArray), "ratio");
  out->Add("bitmap.rep.wah", share(cods::BitmapRep::kWah), "ratio");
  out->Add("bitmap.rep.bitset", share(cods::BitmapRep::kBitset), "ratio");
  out->Add("bitmap.bytes_per_row",
           static_cast<double>(bytes) / static_cast<double>(in.r->rows()),
           "B");

  out->Add("rowstore.fig3a_ratio",
           get("rowstore.cods_decompose") / get("rowstore.c_decompose"),
           "ratio");
  out->Add("rowstore.fig3b_ratio",
           get("rowstore.cods_merge") / get("rowstore.c_merge"), "ratio");
  out->Add("rowstore.fig3a_m_ratio",
           get("rowstore.cods_decompose") / get("rowstore.m_decompose"),
           "ratio");
  out->Add("rowstore.fig3b_m_ratio",
           get("rowstore.cods_merge") / get("rowstore.m_merge"), "ratio");
  out->Add("bench.trace_overhead", w_on / ((w_off1 + w_off2) / 2), "ratio");

  if (!in.spans_path.empty() && !on.WriteJsonLines(in.spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 in.spans_path.c_str());
  }
}

}  // namespace codsbench
