// Progress engine (minimpi/async.cpp) and task-graph executor
// (task/task_graph.cpp): request lifecycle, non-blocking vs blocking
// bit-identity, deterministic overlap scheduling, and a pending request
// under revocation in the fault model.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>

#include "obs/obs.hpp"
#include "sim/network.hpp"
#include "spmd_test_util.hpp"
#include "task/task_graph.hpp"

using fcs_test::run_ranks;

namespace {

double counter_sum(const obs::Recorder& rec, const std::string& name) {
  const auto reduced = rec.reduce_counters();
  const auto it = reduced.find(name);
  return it != reduced.end() ? it->second.totals.sum : 0.0;
}

// ---------------------------------------------------------------------------
// Request lifecycle, on the one non-blocking operation: the known-size sparse
// exchange

/// Per-rank byte counts with a single nonzero entry: `bytes` at `partner`.
std::vector<std::size_t> one_partner(const mpi::Comm& c, int partner,
                                     std::size_t bytes) {
  std::vector<std::size_t> v(static_cast<std::size_t>(c.size()), 0);
  v[static_cast<std::size_t>(partner)] = bytes;
  return v;
}

TEST(AsyncRequest, TestBeforeCompletionDoesNotBlock) {
  run_ranks(2, [](mpi::Comm& c) {
    const std::vector<std::size_t> none(2, 0);
    if (c.rank() == 1) {
      c.ctx().advance(1.0e-3);  // the payload cannot exist before this
      const int x = 42;
      c.isparse_alltoallv_bytes_known(&x, one_partner(c, 0, sizeof x), none,
                                      nullptr)
          .wait();
      return;
    }
    int payload = 0;
    mpi::Request rq = c.isparse_alltoallv_bytes_known(
        nullptr, none, one_partner(c, 1, sizeof payload), &payload);
    ASSERT_TRUE(rq.valid());
    // At virtual t=0 the sender has not even produced the message, so a
    // poll must report "not yet" and leave the clock before the send time.
    EXPECT_FALSE(rq.test());
    EXPECT_LT(c.ctx().now(), 1.0e-3);
    mpi::Status st = rq.wait();
    EXPECT_FALSE(rq.valid());  // completion invalidates the handle
    EXPECT_EQ(st.bytes, sizeof payload);
    EXPECT_EQ(payload, 42);
    EXPECT_GE(c.ctx().now(), 1.0e-3);
  });
}

TEST(AsyncRequest, SendCapturesPayloadEagerly) {
  run_ranks(2, [](mpi::Comm& c) {
    const std::vector<std::size_t> none(2, 0);
    if (c.rank() == 0) {
      int x = 7;
      mpi::Request rq = c.isparse_alltoallv_bytes_known(
          &x, one_partner(c, 1, sizeof x), none, nullptr);
      x = -1;  // the in-flight copy must be unaffected
      rq.wait();
      return;
    }
    c.ctx().advance(5.0e-4);
    int got = 0;
    c.isparse_alltoallv_bytes_known(nullptr, none,
                                    one_partner(c, 0, sizeof got), &got)
        .wait();
    EXPECT_EQ(got, 7);
  });
}

TEST(AsyncRequest, PendingRequestThrowsAfterRevoke) {
  // Rank 2 crashes while rank 0 and 1 hold pending exchanges that expect a
  // message from it. The survivors learn of the death through a blocking
  // receive and revoke; polling the stale request must then throw (it can
  // never complete) instead of spinning, and the survivors still shrink to
  // a working communicator.
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(3);
  cfg.fault_plan.crashes.push_back({2, 2.0e-4});
  cfg.recorder = rec;
  sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    mpi::Comm c = mpi::Comm::world(ctx);
    if (c.rank() == 2) {
      ctx.advance(1.0e-3);
      ctx.yield();  // dies at the first engine interaction past crash time
      ADD_FAILURE() << "crashed rank kept running";
      return;
    }
    int pending = 0;
    mpi::Request rq = c.isparse_alltoallv_bytes_known(
        nullptr, std::vector<std::size_t>(3, 0),
        one_partner(c, 2, sizeof pending), &pending);
    ASSERT_TRUE(rq.valid());
    int payload = 0;
    bool notified = false;
    try {
      c.recv(&payload, 1, 2, 12);  // never arrives: detector fires
    } catch (const mpi::RankFailedError&) {
      notified = true;
      c.revoke();
    }
    EXPECT_TRUE(notified);
    EXPECT_THROW(rq.test(), mpi::RankFailedError);

    mpi::ShrinkResult sr = c.shrink_recover(1);
    ASSERT_EQ(sr.comm.size(), 2);
    EXPECT_EQ(sr.comm.allreduce(1, mpi::OpSum{}), 2);
  });
}

// ---------------------------------------------------------------------------
// The non-blocking exchange is bit-identical to the blocking ones

TEST(AsyncCollectives, ISparseKnownMatchesBlocking) {
  run_ranks(4, [](mpi::Comm& c) {
    const int p = c.size();
    const int r = c.rank();
    // Rank r sends (r + d + 1) bytes of pattern to destination d; rank 3
    // sends nothing (exercises empty rows).
    std::vector<std::size_t> send_bytes(static_cast<std::size_t>(p), 0);
    if (r != 3)
      for (int d = 0; d < p; ++d)
        send_bytes[static_cast<std::size_t>(d)] =
            static_cast<std::size_t>(r + d + 1);
    std::vector<std::byte> in(
        std::accumulate(send_bytes.begin(), send_bytes.end(), std::size_t{0}));
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = static_cast<std::byte>(17 * r + i);

    std::vector<std::size_t> recv_dense;
    const std::vector<std::byte> dense =
        c.alltoallv_bytes(in.data(), send_bytes, recv_dense);
    std::vector<std::size_t> recv_sparse;
    const std::vector<std::byte> sparse =
        c.sparse_alltoallv_bytes(in.data(), send_bytes, recv_sparse);
    EXPECT_EQ(recv_sparse, recv_dense);
    EXPECT_EQ(sparse, dense);

    std::vector<std::byte> known(dense.size());
    c.sparse_alltoallv_bytes_known(in.data(), send_bytes, recv_dense,
                                   known.data());
    EXPECT_EQ(known, dense);

    std::vector<std::byte> async_out(dense.size());
    mpi::Request rq = c.isparse_alltoallv_bytes_known(
        in.data(), send_bytes, recv_dense, async_out.data());
    const mpi::Status st = rq.wait();
    EXPECT_EQ(async_out, dense);
    // Status counts the bytes that arrived from other ranks.
    EXPECT_EQ(st.bytes, dense.size() - recv_dense[static_cast<std::size_t>(r)]);
  });
}

// ---------------------------------------------------------------------------
// Task-graph executor

TEST(TaskExecutor, RunsNodesRespectingDependencies) {
  run_ranks(1, [](mpi::Comm& c) {
    std::vector<int> order;
    task::Graph g;
    const task::NodeId a = g.add_compute("a", [&] { order.push_back(0); });
    const task::NodeId b =
        g.add_compute("b", [&] { order.push_back(1); }, {a});
    g.add_compute("c", [&] { order.push_back(2); }, {a, b});
    g.add_compute("d", [&] { order.push_back(3); }, {a});
    task::Executor ex;
    const task::Executor::Stats st = ex.run(g, c.ctx());
    EXPECT_EQ(st.nodes, 4);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 0);  // a first
    // b before c (dependency), d anywhere after a; ready nodes run by id.
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
    EXPECT_EQ(order[3], 3);
  });
}

TEST(TaskExecutor, OverlapsExchangeFlightWithCompute) {
  // Sizable payload on a switched fabric so the flight window is wide, and
  // a compute node long enough to cover it: the executor must attribute the
  // covered flight time as overlap and pay (almost) no blocking wait.
  auto net = std::make_shared<sim::SwitchedNetwork>(5.0e-5, 1.0 / 1.0e9);
  run_ranks(2, [](mpi::Comm& c) {
    const std::size_t bytes = 1 << 20;
    std::vector<std::byte> in(bytes, std::byte{0x5a});
    std::vector<std::size_t> send(2, 0);
    send[static_cast<std::size_t>(1 - c.rank())] = bytes;
    std::vector<std::byte> out(bytes);
    bool finished = false;

    task::Graph g;
    g.add_comm(
        "xchg", [&] { return c.isparse_alltoallv_bytes_known(in.data(), send,
                                                             send, out.data()); },
        [&] { finished = true; });
    g.add_compute("force", [&] { c.ctx().advance(0.05); });
    task::Executor ex;
    const task::Executor::Stats st = ex.run(g, c.ctx());

    EXPECT_TRUE(finished);
    EXPECT_EQ(out, in);  // symmetric payload
    EXPECT_GT(st.comm_s, 0.0);
    EXPECT_NEAR(st.compute_s, 0.05, 1e-9);
    // The whole compute ran inside the flight window (the window closes
    // only at the post-compute poll, so comm_s exceeds compute_s by the
    // receive-side copy - which is all the executor had left to wait on).
    EXPECT_NEAR(st.overlap_s, st.compute_s, 1e-9);
    EXPECT_LT(st.wait_s, 1e-3);
  }, net);
}

TEST(TaskExecutor, BlocksHonestlyWhenNothingOverlaps) {
  auto net = std::make_shared<sim::SwitchedNetwork>(5.0e-5, 1.0 / 1.0e9);
  run_ranks(2, [](mpi::Comm& c) {
    const std::size_t bytes = 1 << 20;
    std::vector<std::byte> in(bytes, std::byte{0x11});
    std::vector<std::size_t> send(2, 0);
    send[static_cast<std::size_t>(1 - c.rank())] = bytes;
    std::vector<std::byte> out(bytes);

    task::Graph g;
    g.add_comm("xchg", [&] {
      return c.isparse_alltoallv_bytes_known(in.data(), send, send,
                                             out.data());
    });
    task::Executor ex;
    const task::Executor::Stats st = ex.run(g, c.ctx());
    // No compute to hide the flight: everything is blocking wait.
    EXPECT_EQ(st.overlap_s, 0.0);
    EXPECT_GT(st.wait_s, 0.0);
  }, net);
}

TEST(TaskExecutor, EmitsObsSpansAndCounters) {
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(2);
  cfg.recorder = rec;
  sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    mpi::Comm c = mpi::Comm::world(ctx);
    std::vector<std::size_t> send(2, 0);
    std::byte in{0x1};
    std::byte out{0x0};
    send[static_cast<std::size_t>(1 - c.rank())] = 1;
    task::Graph g;
    g.add_comm("xchg.0", [&] {
      return c.isparse_alltoallv_bytes_known(&in, send, send, &out);
    });
    g.add_compute("force", [&] { ctx.advance(1.0e-3); });
    task::Executor ex;
    ex.run(g, ctx);
  });
  EXPECT_EQ(counter_sum(*rec, "task.nodes"), 4.0);  // 2 nodes x 2 ranks
  EXPECT_GT(counter_sum(*rec, "task.compute_s"), 0.0);
  EXPECT_GT(counter_sum(*rec, "task.comm_s"), 0.0);
  bool saw_compute_span = false;
  bool saw_comm_span = false;
  for (int r = 0; r < rec->nranks(); ++r)
    for (const obs::SpanEvent& ev : rec->rank(r).spans()) {
      const std::string& name = rec->name_of(ev.name_id);
      if (name == "task.force") saw_compute_span = true;
      if (name == "task.xchg.0") saw_comm_span = true;
    }
  EXPECT_TRUE(saw_compute_span);
  EXPECT_TRUE(saw_comm_span);
}

TEST(TaskExecutor, ScheduleIsDeterministicAcrossRuns) {
  auto net = std::make_shared<sim::SwitchedNetwork>();
  auto once = [&net] {
    std::vector<double> stats;
    run_ranks(3, [&stats](mpi::Comm& c) {
      const int p = c.size();
      std::vector<std::size_t> send(static_cast<std::size_t>(p), 64);
      send[static_cast<std::size_t>(c.rank())] = 0;
      std::vector<std::byte> in(64 * static_cast<std::size_t>(p));
      std::vector<std::byte> out(in.size());
      std::vector<std::size_t> recv = send;

      task::Graph g;
      const task::NodeId pack =
          g.add_compute("pack", [&c] { c.ctx().advance(1.0e-5); });
      g.add_comm(
          "xchg",
          [&] {
            return c.isparse_alltoallv_bytes_known(in.data(), send, recv,
                                                   out.data());
          },
          nullptr, {pack});
      g.add_compute("force", [&c] { c.ctx().advance(2.0e-4); });
      task::Executor ex;
      const task::Executor::Stats st = ex.run(g, c.ctx());
      if (c.rank() == 0)
        stats = {st.compute_s, st.comm_s, st.overlap_s, st.wait_s,
                 c.ctx().now()};
    }, net);
    return stats;
  };
  const std::vector<double> first = once();
  const std::vector<double> second = once();
  ASSERT_EQ(first.size(), 5u);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(std::memcmp(&first[i], &second[i], sizeof(double)), 0) << i;
}

}  // namespace
