#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "minimpi/buffer_pool.hpp"
#include "obs/critpath.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "plan/planner.hpp"
#include "redist/atasp.hpp"
#include "spmd_test_util.hpp"

namespace {

// --- Minimal JSON syntax checker (enough to validate the export files). ----

void json_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r'))
    ++i;
}

bool json_string_tok(const std::string& s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') return false;
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      ++i;
      return true;
    }
  }
  return false;
}

bool json_value(const std::string& s, std::size_t& i);

bool json_members(const std::string& s, std::size_t& i, char close,
                  bool with_keys) {
  json_ws(s, i);
  if (i < s.size() && s[i] == close) {
    ++i;
    return true;
  }
  while (true) {
    if (with_keys) {
      json_ws(s, i);
      if (!json_string_tok(s, i)) return false;
      json_ws(s, i);
      if (i >= s.size() || s[i++] != ':') return false;
    }
    if (!json_value(s, i)) return false;
    json_ws(s, i);
    if (i >= s.size()) return false;
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == close) {
      ++i;
      return true;
    }
    return false;
  }
}

bool json_value(const std::string& s, std::size_t& i) {
  json_ws(s, i);
  if (i >= s.size()) return false;
  const char c = s[i];
  if (c == '{') return json_members(s, ++i, '}', /*with_keys=*/true);
  if (c == '[') return json_members(s, ++i, ']', /*with_keys=*/false);
  if (c == '"') return json_string_tok(s, i);
  if (s.compare(i, 4, "true") == 0) return i += 4, true;
  if (s.compare(i, 5, "false") == 0) return i += 5, true;
  if (s.compare(i, 4, "null") == 0) return i += 4, true;
  // Numbers per the JSON grammar; strtod would also accept the forbidden
  // inf/nan/hex forms, which is exactly what this checker must catch.
  std::size_t j = i;
  auto digits = [&]() {
    std::size_t n = 0;
    while (j < s.size() && s[j] >= '0' && s[j] <= '9') ++j, ++n;
    return n;
  };
  if (j < s.size() && s[j] == '-') ++j;
  if (digits() == 0) return false;
  if (j < s.size() && s[j] == '.') {
    ++j;
    if (digits() == 0) return false;
  }
  if (j < s.size() && (s[j] == 'e' || s[j] == 'E')) {
    ++j;
    if (j < s.size() && (s[j] == '+' || s[j] == '-')) ++j;
    if (digits() == 0) return false;
  }
  i = j;
  return true;
}

bool json_valid(const std::string& s) {
  std::size_t i = 0;
  if (!json_value(s, i)) return false;
  json_ws(s, i);
  return i == s.size();
}

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(json_valid(R"({"a":[1,2.5e-3,"x\"y"],"b":{},"c":null})"));
  EXPECT_FALSE(json_valid(R"({"a":1)"));
  EXPECT_FALSE(json_valid(R"({"a":inf})"));
  EXPECT_FALSE(json_valid("{} trailing"));
}

// --- Core span/counter mechanics. ------------------------------------------

TEST(Obs, SpansNestAndBalanceByRaii) {
  obs::Recorder rec;
  rec.attach(1);
  obs::RankObs& r = rec.rank(0);
  double clock = 1.0;
  r.bind_clock(&clock);
  {
    obs::Span outer(&r, "outer");
    clock = 2.0;
    {
      obs::Span inner(&r, "inner");
      clock = 3.0;
    }
    clock = 4.0;
  }
  ASSERT_EQ(r.open_spans(), 0);
  ASSERT_EQ(r.spans().size(), 2u);
  // Children close before parents.
  EXPECT_EQ(rec.name_of(r.spans()[0].name_id), "inner");
  EXPECT_EQ(r.spans()[0].depth, 1);
  EXPECT_EQ(r.spans()[0].begin, 2.0);
  EXPECT_EQ(r.spans()[0].end, 3.0);
  EXPECT_EQ(rec.name_of(r.spans()[1].name_id), "outer");
  EXPECT_EQ(r.spans()[1].depth, 0);
  EXPECT_EQ(r.spans()[1].begin, 1.0);
  EXPECT_EQ(r.spans()[1].end, 4.0);
}

TEST(Obs, EndWithoutOpenSpanThrows) {
  obs::Recorder rec;
  rec.attach(1);
  EXPECT_THROW(rec.rank(0).end_span(), fcs::Error);
}

TEST(Obs, NullHandleHooksAreNoops) {
  obs::Span span(nullptr, "ignored");
  obs::count(nullptr, "ignored", 1.0);
  obs::observe(nullptr, "ignored", 1.0);
}

TEST(Obs, MetricsOnlyRecorderSkipsSpans) {
  obs::Recorder rec(/*record_spans=*/false);
  rec.attach(1);
  {
    obs::Span span(&rec.rank(0), "phase");
    rec.rank(0).add("x", 1.0);
  }
  EXPECT_TRUE(rec.rank(0).spans().empty());
  EXPECT_EQ(rec.reduce_counters().at("x").totals.sum, 1.0);
}

TEST(Obs, CounterReductionZeroFillsMissingRanks) {
  obs::Recorder rec;
  rec.attach(3);
  rec.rank(0).set_epoch(1);
  rec.rank(0).add("x", 2.0);
  rec.rank(2).set_epoch(2);
  rec.rank(2).add("x", 4.0);
  const auto reduced = rec.reduce_counters();
  ASSERT_EQ(reduced.count("x"), 1u);
  const obs::CounterReduction& red = reduced.at("x");
  EXPECT_EQ(red.totals.count, 3u);  // rank 1 contributes an explicit zero
  EXPECT_EQ(red.totals.min, 0.0);
  EXPECT_EQ(red.totals.max, 4.0);
  EXPECT_EQ(red.totals.sum, 6.0);
  EXPECT_DOUBLE_EQ(red.totals.mean(), 2.0);
  ASSERT_EQ(red.by_epoch.size(), 2u);
  EXPECT_EQ(red.by_epoch.at(1).max, 2.0);
  EXPECT_EQ(red.by_epoch.at(1).count, 3u);
  EXPECT_EQ(red.by_epoch.at(2).sum, 4.0);
}

TEST(Obs, HistogramBucketEdges) {
  EXPECT_EQ(obs::Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(0.5), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(1.0), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(1.5), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(2.0), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(2.1), 3);
  EXPECT_EQ(obs::Histogram::bucket_upper(0), 0.0);
  EXPECT_EQ(obs::Histogram::bucket_upper(1), 1.0);
  EXPECT_EQ(obs::Histogram::bucket_upper(2), 2.0);
  EXPECT_EQ(obs::Histogram::bucket_upper(3), 4.0);
  obs::Histogram h;
  h.observe(0.0);
  h.observe(3.0);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.stats.count, 2u);
}

// --- Instrumented engine runs. ---------------------------------------------

/// Run a 4-rank redistribution under a recorder and export both formats.
std::pair<std::string, std::string> run_instrumented(redist::ExchangeKind kind) {
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(4);
  cfg.recorder = rec;
  const double makespan = sim::run_spmd(cfg, [kind](sim::RankCtx& ctx) {
    mpi::Comm comm = mpi::Comm::world(ctx);
    obs::Span span(ctx, "test.body");
    std::vector<int> items(40);
    for (std::size_t i = 0; i < items.size(); ++i)
      items[i] = static_cast<int>(i) + 100 * comm.rank();
    redist::fine_grained_redistribute(
        comm, items,
        [&](int v, std::size_t, std::vector<int>& t) {
          t.push_back(v % comm.size());
        },
        kind);
  });
  std::ostringstream trace, metrics;
  obs::write_chrome_trace(trace, {{"run", rec.get()}});
  obs::write_metrics_json(metrics, {{"run", makespan, rec.get()}});
  return {trace.str(), metrics.str()};
}

TEST(Obs, ExportsAreValidJsonAndCoverEveryRank) {
  const auto [trace, metrics] = run_instrumented(redist::ExchangeKind::kDense);
  EXPECT_TRUE(json_valid(trace));
  EXPECT_TRUE(json_valid(metrics));
  EXPECT_NE(trace.find("\"test.body\""), std::string::npos);
  EXPECT_NE(trace.find("\"redist.fine_grained\""), std::string::npos);
  for (int r = 0; r < 4; ++r) {
    const std::string tid = "\"tid\":" + std::to_string(r);
    EXPECT_NE(trace.find(tid), std::string::npos) << "no events for rank " << r;
  }
  EXPECT_NE(metrics.find("\"mpi.alltoallv.bytes\""), std::string::npos);
  EXPECT_NE(metrics.find("\"redist.dense.elements_moved\""), std::string::npos);
}

TEST(Obs, ExportsAreByteIdenticalAcrossRuns) {
  const auto first = run_instrumented(redist::ExchangeKind::kDense);
  const auto second = run_instrumented(redist::ExchangeKind::kDense);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(Obs, DenseAndSparseExchangesRecordDifferentCounters) {
  const auto dense = run_instrumented(redist::ExchangeKind::kDense);
  const auto sparse = run_instrumented(redist::ExchangeKind::kSparse);
  EXPECT_NE(dense.second.find("\"mpi.alltoallv.bytes\""), std::string::npos);
  EXPECT_EQ(dense.second.find("\"mpi.sparse_alltoallv.bytes\""),
            std::string::npos);
  EXPECT_NE(sparse.second.find("\"mpi.sparse_alltoallv.bytes\""),
            std::string::npos);
  EXPECT_EQ(sparse.second.find("\"mpi.alltoallv.bytes\""), std::string::npos);
}

TEST(Obs, PlannerDecisionsAndMispredictsReachTheMetricsExport) {
  // The adaptive planner's audit trail (counters per decision code, probe
  // count, mispredict counter + rate gauge, decide span) must land in the
  // same exports every other subsystem uses.
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(4);
  cfg.recorder = rec;
  const double makespan = sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    mpi::Comm comm = mpi::Comm::world(ctx);
    plan::Planner planner(plan::parse_plan_spec("auto"));
    for (int step = 0; step < 3; ++step) {
      plan::DecideInputs din;
      din.n_local = 100;
      din.max_move = 0.1;
      din.input_in_solver_order = step > 0;
      din.volume = 1000.0;
      const plan::RedistPlan p = planner.decide(comm, din);
      plan::ObserveInputs oin;
      oin.t_sort = 1e-4;
      oin.t_resort = 1e-5;
      oin.t_restore = 1e-5;
      oin.resorted = p.method != plan::Method::kA;
      oin.sparse_resort = p.method == plan::Method::kBMaxMove;
      planner.observe(comm, oin);
    }
  });
  std::ostringstream trace, metrics;
  obs::write_chrome_trace(trace, {{"run", rec.get()}});
  obs::write_metrics_json(metrics, {{"run", makespan, rec.get()}});
  EXPECT_TRUE(json_valid(trace.str()));
  EXPECT_TRUE(json_valid(metrics.str()));
  EXPECT_NE(trace.str().find("\"plan.decide\""), std::string::npos);
  EXPECT_NE(metrics.str().find("\"plan.decision\""), std::string::npos);
  EXPECT_NE(metrics.str().find("\"plan.decision."), std::string::npos);
  EXPECT_NE(metrics.str().find("\"plan.mispredict\""), std::string::npos);
  EXPECT_NE(metrics.str().find("\"plan.mispredict.rate\""), std::string::npos);
  // Every decision increments the counter once per rank per step.
  const auto reduced = rec->reduce_counters();
  EXPECT_EQ(reduced.at("plan.decision").totals.sum, 4.0 * 3.0);
}

TEST(Obs, ExportSessionWritesRequestedFiles) {
  const std::string trace_path = testing::TempDir() + "/obs_session_trace.json";
  const std::string metrics_path =
      testing::TempDir() + "/obs_session_metrics.json";
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  {
    obs::ExportSession session(trace_path, metrics_path);
    ASSERT_TRUE(session.enabled());
    ASSERT_TRUE(session.tracing());
    sim::EngineConfig cfg = fcs_test::engine_config(2);
    cfg.recorder = session.begin_run("session-run");
    ASSERT_NE(cfg.recorder, nullptr);
    const double makespan = sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
      mpi::Comm comm = mpi::Comm::world(ctx);
      obs::Span span(ctx, "phase");
      comm.barrier();
    });
    session.end_run(makespan);
  }  // destructor writes the files

  std::ifstream tf(trace_path), mf(metrics_path);
  ASSERT_TRUE(tf.good()) << "trace file not written";
  ASSERT_TRUE(mf.good()) << "metrics file not written";
  std::stringstream ts, ms;
  ts << tf.rdbuf();
  ms << mf.rdbuf();
  EXPECT_TRUE(json_valid(ts.str()));
  EXPECT_TRUE(json_valid(ms.str()));
  EXPECT_NE(ts.str().find("0:session-run"), std::string::npos);
  EXPECT_NE(ts.str().find("\"phase\""), std::string::npos);
  EXPECT_NE(ms.str().find("\"mpi.barrier.calls\""), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(Obs, DisabledSessionReturnsNullRecorder) {
  obs::ExportSession session("", "");
  EXPECT_FALSE(session.enabled());
  EXPECT_EQ(session.begin_run("x"), nullptr);
  session.end_run(1.0);  // no-op, must not crash
  session.finish();
}

// --- Causal flow events. ----------------------------------------------------

TEST(Flow, MatchedEndpointsShareOneId) {
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(2);
  cfg.recorder = rec;
  sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const double payload = 1.5;
      ctx.send(1, 7, &payload, sizeof payload);
    } else {
      ctx.advance(1e-3);  // post late: the message is already on the wire
      (void)ctx.recv(0, 7);
    }
  });
  const auto& sends = rec->rank(0).flows();
  const auto& recvs = rec->rank(1).flows();
  ASSERT_EQ(sends.size(), 1u);
  ASSERT_EQ(recvs.size(), 1u);
  EXPECT_TRUE(sends[0].is_send);
  EXPECT_FALSE(recvs[0].is_send);
  EXPECT_EQ(sends[0].id, recvs[0].id);
  EXPECT_EQ(sends[0].peer, 1);
  EXPECT_EQ(recvs[0].peer, 0);
  EXPECT_EQ(sends[0].bytes, sizeof(double));
  EXPECT_EQ(recvs[0].bytes, sizeof(double));
  // The message left before the recv completed and arrived before the (late)
  // post, so this recv did not gate the receiver.
  EXPECT_GE(recvs[0].arrival, sends[0].time);
  EXPECT_GE(recvs[0].time, recvs[0].arrival);
  EXPECT_GT(recvs[0].post, recvs[0].arrival);
}

TEST(Flow, EarlyPostedRecvIsGatedByArrival) {
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(2);
  cfg.recorder = rec;
  sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.advance(1e-2);  // make the receiver wait
      const double payload = 2.5;
      ctx.send(1, 7, &payload, sizeof payload);
    } else {
      (void)ctx.recv(0, 7);
    }
  });
  const auto& recvs = rec->rank(1).flows();
  ASSERT_EQ(recvs.size(), 1u);
  EXPECT_GT(recvs[0].arrival, recvs[0].post);  // the wait critpath charges
  EXPECT_GE(recvs[0].time, recvs[0].arrival);
}

TEST(Flow, CollectiveRoundsAndTraceArrowsAreRecorded) {
  const auto [trace, metrics] = run_instrumented(redist::ExchangeKind::kDense);
  (void)metrics;
  // The alltoallv rounds inside fine_grained_redistribute route through the
  // same stamped p2p layer, so the trace must carry matched flow arrows.
  EXPECT_NE(trace.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(trace.find("\"bp\":\"e\""), std::string::npos);
}

TEST(Flow, MetricsOnlyRecorderRecordsNoFlows) {
  auto rec = std::make_shared<obs::Recorder>(/*record_spans=*/false);
  sim::EngineConfig cfg = fcs_test::engine_config(2);
  cfg.recorder = rec;
  sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    mpi::Comm comm = mpi::Comm::world(ctx);
    comm.barrier();
  });
  EXPECT_TRUE(rec->rank(0).flows().empty());
  EXPECT_TRUE(rec->rank(1).flows().empty());
}

// --- Critical-path reconstruction. ------------------------------------------

TEST(Critpath, HandoffChainIsExactlyReconstructed) {
  // Hand-built two-rank scenario with exact virtual times:
  //   rank 0: md.step [0,10], compute "a" [0,8], send at t=8
  //   rank 1: md.step [0,12], recv posted at 2, arrival 9, matched at 9.5
  // Expected path: [0,8] local on rank 0, [8,9] in flight, [9,12] on rank 1.
  obs::Recorder rec;
  rec.attach(2);
  obs::RankObs& r0 = rec.rank(0);
  obs::RankObs& r1 = rec.rank(1);
  double c0 = 0.0, c1 = 0.0;
  r0.bind_clock(&c0);
  r1.bind_clock(&c1);

  r0.begin_span("md.step");
  r0.begin_span("a");
  c0 = 8.0;
  r0.flow_send(/*id=*/1, /*peer=*/1, /*bytes=*/64);
  r0.end_span();
  c0 = 10.0;
  r0.end_span();

  r1.begin_span("md.step");
  c1 = 9.5;
  r1.flow_recv(/*id=*/1, /*peer=*/0, /*bytes=*/64, /*post=*/2.0,
               /*arrival=*/9.0);
  c1 = 12.0;
  r1.end_span();

  const obs::CritPathReport rep = obs::build_critpath(rec);
  ASSERT_EQ(rep.steps.size(), 1u);
  const obs::CritStep& s = rep.steps[0];
  EXPECT_EQ(s.step, 0);
  EXPECT_DOUBLE_EQ(s.begin, 0.0);
  EXPECT_DOUBLE_EQ(s.end, 12.0);
  EXPECT_DOUBLE_EQ(s.makespan, 12.0);
  EXPECT_DOUBLE_EQ(s.path, 12.0);
  EXPECT_DOUBLE_EQ(s.coverage, 1.0);
  EXPECT_EQ(s.critical_rank, 1);
  EXPECT_DOUBLE_EQ(s.comm, 1.0);
  EXPECT_DOUBLE_EQ(s.ranks.at(0), 8.0);
  EXPECT_DOUBLE_EQ(s.ranks.at(1), 3.0);
  EXPECT_DOUBLE_EQ(s.phases.at("a"), 8.0);
  EXPECT_DOUBLE_EQ(s.phases.at("md.step"), 11.0);  // 8 on rank 0 + 3 on rank 1
  ASSERT_EQ(s.links.size(), 1u);
  EXPECT_EQ(s.links[0].src, 0);
  EXPECT_EQ(s.links[0].dst, 1);
  EXPECT_DOUBLE_EQ(s.links[0].seconds, 1.0);
  EXPECT_EQ(s.links[0].msgs, 1u);
  EXPECT_DOUBLE_EQ(s.slack.min, 0.0);  // the critical rank has no slack
  EXPECT_DOUBLE_EQ(s.slack.max, 2.0);  // rank 0 finished its step at t=10
  EXPECT_DOUBLE_EQ(rep.total.path, 12.0);
  EXPECT_EQ(rep.total.critical_rank, 1);
}

TEST(Critpath, OverlappedTaskWindowsSplitExclusively) {
  // The overlapped fcs_run records "task." compute spans CONCURRENT with
  // retroactive exchange-flight windows (add_span_at), so the same wall
  // second sits inside two sibling task spans. The walk must split such
  // intervals exclusively at task boundaries - latest-begun covering task
  // span wins - so the task phases tile local time and coverage stays 1.
  //   rank 0: md.step [0,10]         (non-task: keeps nested attribution)
  //           task.force [0,6]       (compute span)
  //           task.xchg.0 [1,4]      (retroactive flight window)
  //           task.xchg.1 [5,8]      (flight outlives the compute span)
  obs::Recorder rec;
  rec.attach(1);
  obs::RankObs& r0 = rec.rank(0);
  double c0 = 0.0;
  r0.bind_clock(&c0);

  r0.begin_span("md.step");
  r0.begin_span("task.force");
  c0 = 6.0;
  r0.end_span();
  r0.add_span_at("task.xchg.0", 1.0, 4.0, /*depth=*/2);
  r0.add_span_at("task.xchg.1", 5.0, 8.0, /*depth=*/2);
  c0 = 10.0;
  r0.end_span();

  const obs::CritPathReport rep = obs::build_critpath(rec);
  ASSERT_EQ(rep.steps.size(), 1u);
  const obs::CritStep& s = rep.steps[0];
  EXPECT_DOUBLE_EQ(s.makespan, 10.0);
  EXPECT_DOUBLE_EQ(s.path, 10.0);
  EXPECT_DOUBLE_EQ(s.coverage, 1.0);
  // Exclusive split: force keeps [0,1] and [4,5]; the flight windows win
  // [1,4] and [5,8] (latest begin); [8,10] belongs to no task span.
  EXPECT_DOUBLE_EQ(s.phases.at("task.force"), 2.0);
  EXPECT_DOUBLE_EQ(s.phases.at("task.xchg.0"), 3.0);
  EXPECT_DOUBLE_EQ(s.phases.at("task.xchg.1"), 3.0);
  // Task phases tile the task-covered portion of the window exactly.
  EXPECT_DOUBLE_EQ(s.phases.at("task.force") + s.phases.at("task.xchg.0") +
                       s.phases.at("task.xchg.1"),
                   8.0);
  // The enclosing non-task span still sees every second (nested semantics).
  EXPECT_DOUBLE_EQ(s.phases.at("md.step"), 10.0);
}

TEST(Critpath, WaitTimeIsChargedToTheSender) {
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(2);
  cfg.recorder = rec;
  // Non-zero wire time so the path carries a real flight segment.
  cfg.network = std::make_shared<sim::SwitchedNetwork>();
  sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    obs::Span step(ctx, "md.step");
    if (ctx.rank() == 0) {
      obs::Span work(ctx, "producer");
      ctx.advance(1e-2);
      work.end();
      const double v = 1.0;
      ctx.send(1, 1, &v, sizeof v);
    } else {
      obs::Span wait(ctx, "consumer");
      (void)ctx.recv(0, 1);
    }
  });
  const obs::CritPathReport rep = obs::build_critpath(*rec);
  ASSERT_EQ(rep.steps.size(), 1u);
  const obs::CritStep& s = rep.steps[0];
  EXPECT_GT(s.coverage, 0.99);
  // Rank 1 finishes last, but nearly all of its step was spent waiting on
  // rank 0's compute, so the path must run through "producer".
  EXPECT_EQ(s.critical_rank, 1);
  ASSERT_TRUE(s.phases.count("producer"));
  EXPECT_GT(s.phases.at("producer"), 0.9 * s.path);
  ASSERT_EQ(s.links.size(), 1u);
  EXPECT_EQ(s.links[0].src, 0);
  EXPECT_EQ(s.links[0].dst, 1);
}

TEST(Critpath, ReportIsDeterministicAndCoversRealRuns) {
  const auto [t1, m1] = run_instrumented(redist::ExchangeKind::kSparse);
  const auto [t2, m2] = run_instrumented(redist::ExchangeKind::kSparse);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(m1, m2);
  EXPECT_NE(m1.find("\"critpath\""), std::string::npos);
  EXPECT_NE(m1.find("\"coverage\""), std::string::npos);
}

TEST(Critpath, WholeRunFallbackWhenNoStepSpans) {
  // run_instrumented has no md.step spans: the report must fall back to one
  // whole-run window (steps empty, totals still populated).
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(2);
  cfg.recorder = rec;
  sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    obs::Span span(ctx, "only.phase");
    mpi::Comm comm = mpi::Comm::world(ctx);
    comm.barrier();
  });
  const obs::CritPathReport rep = obs::build_critpath(*rec);
  EXPECT_TRUE(rep.steps.empty());
  EXPECT_GT(rep.total.path, 0.0);
  EXPECT_GT(rep.total.coverage, 0.99);
  EXPECT_TRUE(rep.total.phases.count("only.phase"));
}

// --- Export edge cases. -----------------------------------------------------

TEST(Obs, ZeroEpochRecorderExportsDeterministically) {
  obs::Recorder rec;
  rec.attach(2);  // attached but nothing recorded
  std::ostringstream t1, t2, m1, m2;
  obs::write_chrome_trace(t1, {{"empty", &rec}});
  obs::write_chrome_trace(t2, {{"empty", &rec}});
  obs::write_metrics_json(m1, {{"empty", 0.0, &rec}});
  obs::write_metrics_json(m2, {{"empty", 0.0, &rec}});
  EXPECT_TRUE(json_valid(t1.str()));
  EXPECT_TRUE(json_valid(m1.str()));
  EXPECT_EQ(t1.str(), t2.str());
  EXPECT_EQ(m1.str(), m2.str());
}

TEST(Obs, RankWithNoSpansStillExports) {
  obs::Recorder rec;
  rec.attach(3);
  double clock = 0.0;
  rec.rank(1).bind_clock(&clock);
  rec.rank(1).begin_span("md.step");
  clock = 2.0;
  rec.rank(1).end_span();
  rec.rank(2).add("lonely.counter", 5.0);
  std::ostringstream trace, metrics;
  obs::write_chrome_trace(trace, {{"partial", &rec}});
  obs::write_metrics_json(metrics, {{"partial", 2.0, &rec}});
  EXPECT_TRUE(json_valid(trace.str()));
  EXPECT_TRUE(json_valid(metrics.str()));
  EXPECT_NE(metrics.str().find("\"lonely.counter\""), std::string::npos);
}

TEST(Obs, CounterOnlyRunOmitsCritpathSection) {
  obs::Recorder rec(/*record_spans=*/false);
  rec.attach(2);
  rec.rank(0).add("x", 1.0);
  rec.rank(1).add("x", 2.0);
  std::ostringstream m1, m2;
  obs::write_metrics_json(m1, {{"counters", 1.0, &rec}});
  obs::write_metrics_json(m2, {{"counters", 1.0, &rec}});
  EXPECT_TRUE(json_valid(m1.str()));
  EXPECT_EQ(m1.str(), m2.str());
  EXPECT_EQ(m1.str().find("\"critpath\""), std::string::npos);
  EXPECT_NE(m1.str().find("\"x\""), std::string::npos);
}

TEST(Obs, LeakedSpanIsDetectedAtExport) {
  obs::Recorder rec;
  rec.attach(1);
  double clock = 0.0;
  rec.rank(0).bind_clock(&clock);
  rec.rank(0).begin_span("leaky.phase");

  const auto leaks = rec.leaked_spans();
  ASSERT_EQ(leaks.size(), 1u);
  EXPECT_EQ(leaks[0].rank, 0);
  EXPECT_EQ(leaks[0].name, "leaky.phase");

  std::ostringstream trace, metrics;
#ifndef NDEBUG
  // Debug builds fail fast naming the offending span.
  EXPECT_THROW(obs::write_chrome_trace(trace, {{"run", &rec}}), fcs::Error);
  try {
    obs::write_chrome_trace(trace, {{"run", &rec}});
  } catch (const fcs::Error& e) {
    EXPECT_NE(std::string(e.what()).find("leaky.phase"), std::string::npos);
  }
  EXPECT_THROW(obs::write_metrics_json(metrics, {{"run", 1.0, &rec}}),
               fcs::Error);
#else
  // Release builds degrade gracefully: skip the span-derived data but still
  // emit valid JSON.
  obs::write_chrome_trace(trace, {{"run", &rec}});
  obs::write_metrics_json(metrics, {{"run", 1.0, &rec}});
  EXPECT_TRUE(json_valid(trace.str()));
  EXPECT_TRUE(json_valid(metrics.str()));
  EXPECT_EQ(trace.str().find("\"leaky.phase\""), std::string::npos);
  EXPECT_EQ(metrics.str().find("\"critpath\""), std::string::npos);
#endif
}

// --- Buffer-pool high-water-mark gauges. ------------------------------------

TEST(Obs, BufferPoolHwmGaugesTrackPeakOutstanding) {
  obs::Recorder rec;
  rec.attach(1);
  obs::RankObs* o = &rec.rank(0);
  mpi::BufferPool pool;
  auto a = pool.acquire(100, o);
  auto b = pool.acquire(50, o);  // peak: 150 bytes across 2 buffers
  pool.release(std::move(b), o);
  auto c = pool.acquire(30, o);  // 130 outstanding: below the mark
  pool.release(std::move(a), o);
  pool.release(std::move(c), o);
  EXPECT_EQ(pool.bytes_hwm(), 150u);
  EXPECT_EQ(pool.buffers_hwm(), 2u);
  // The gauge is emitted as monotone counter increments, so the exported
  // total equals the high-water mark.
  const auto reduced = rec.reduce_counters();
  EXPECT_EQ(reduced.at("pool.bytes_hwm").totals.sum, 150.0);
  EXPECT_EQ(reduced.at("pool.buffers_hwm").totals.sum, 2.0);
}

TEST(Obs, PoolHwmGaugesReachTheMetricsExport) {
  const auto [trace, metrics] = run_instrumented(redist::ExchangeKind::kDense);
  (void)trace;
  EXPECT_NE(metrics.find("\"pool.bytes_hwm\""), std::string::npos);
  EXPECT_NE(metrics.find("\"pool.buffers_hwm\""), std::string::npos);
}

}  // namespace
