// Rank-crash fault model and ULFM-style recovery (DESIGN.md §13): failure
// detection and agreement, communicator shrink, buddy checkpointing, and
// the rollback-and-replay driver in md::run_simulation.
//
// The determinism claim tested here is CROSS-VARIANT: the recovered final
// state depends only on (rollback step, dead rank set), never on the crash's
// virtual time, the phase it interrupted, or the network model - so crashes
// planted at four different phase fractions, on two networks, must all
// produce bit-identical particle state. Bit-identity with the original
// p-rank run is not a goal (the shrunk communicator sums in a different
// order by construction).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "fcs/checkpoint.hpp"
#include "md/simulation.hpp"
#include "md/system.hpp"
#include "minimpi/buffer_pool.hpp"
#include "minimpi/comm.hpp"
#include "obs/obs.hpp"
#include "pm/pm_solver.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "spmd_test_util.hpp"

namespace {

double counter_sum(const obs::Recorder& rec, const std::string& name) {
  const auto reduced = rec.reduce_counters();
  const auto it = reduced.find(name);
  return it != reduced.end() ? it->second.totals.sum : 0.0;
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

std::uint64_t double_bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Order-independent global hash of the physical particle state: per
/// particle a mixed hash of the position / velocity / charge bit patterns,
/// XOR-combined locally and across ranks. Invariant under any resort or
/// redistribution, sensitive to a single flipped mantissa bit.
std::uint64_t particle_checksum(const mpi::Comm& c,
                                const md::LocalParticles& p) {
  std::uint64_t local = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    h = mix64(h, double_bits(p.pos[i].x));
    h = mix64(h, double_bits(p.pos[i].y));
    h = mix64(h, double_bits(p.pos[i].z));
    h = mix64(h, double_bits(p.vel[i].x));
    h = mix64(h, double_bits(p.vel[i].y));
    h = mix64(h, double_bits(p.vel[i].z));
    h = mix64(h, double_bits(p.q[i]));
    local ^= h;
  }
  return c.allreduce(local, mpi::OpXor{});
}

// --- minimpi-level protocol tests ------------------------------------------

TEST(Recovery, DetectRevokeShrinkAgree) {
  // Rank 2 crashes. Ranks 0 and 1 are blocked on receives from it and learn
  // of the death through the failure detector; rank 3 is blocked on an
  // unrelated receive from a LIVE peer and can only be freed by the
  // revocation - the wake path a recovery driver depends on.
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(4);
  cfg.fault_plan.crashes.push_back({2, 2.0e-4});
  cfg.recorder = rec;
  sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    mpi::Comm c = mpi::Comm::world(ctx);
    if (c.rank() == 2) {
      ctx.advance(1.0e-3);
      ctx.yield();  // first engine interaction past the crash time: dies here
      ADD_FAILURE() << "crashed rank kept running";
      return;
    }
    int payload = 0;
    bool notified = false;
    try {
      if (c.rank() == 3) {
        c.recv(&payload, 1, 1, 777);  // rank 1 never sends this
      } else {
        c.recv(&payload, 1, 2, 777);
      }
    } catch (const mpi::RankFailedError& e) {
      notified = true;
      if (c.rank() == 3) {
        EXPECT_EQ(e.failed_rank(), -1);  // woken by the revocation
      } else {
        // The first detector sees the dead peer; the second may already
        // observe the revocation the first raised (engine checks the
        // revoke epoch before the dead-source timeout).
        EXPECT_TRUE(e.failed_rank() == 2 || e.failed_rank() == -1)
            << e.failed_rank();
      }
      c.revoke();  // idempotent: every survivor may revoke
    }
    EXPECT_TRUE(notified);

    mpi::ShrinkResult sr = c.shrink_recover(1);
    ASSERT_EQ(sr.failed.size(), 1u);
    EXPECT_EQ(sr.failed[0], 2);
    ASSERT_EQ(sr.comm.size(), 3);
    // Survivors keep their relative order: world ranks 0, 1, 3.
    EXPECT_EQ(sr.comm.world_rank(0), 0);
    EXPECT_EQ(sr.comm.world_rank(1), 1);
    EXPECT_EQ(sr.comm.world_rank(2), 3);
    // The shrunk communicator is immediately usable for collectives.
    const int sum = sr.comm.allreduce(1, mpi::OpSum{});
    EXPECT_EQ(sum, 3);
  });
  EXPECT_GE(counter_sum(*rec, "sim.fault.detected"), 1.0);
  EXPECT_GE(counter_sum(*rec, "sim.fault.revokes"), 1.0);
  EXPECT_GE(counter_sum(*rec, "recover.agree.calls"), 3.0);
  EXPECT_GE(counter_sum(*rec, "recover.shrink.calls"), 3.0);
}

TEST(Recovery, MaxRetryEscalatesToPeerFailure) {
  // Unreliable link with every transmission dropped: the reliable channel
  // must give up after max_retry attempts and report the peer as failed
  // instead of retrying forever.
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(2);
  cfg.fault_plan.drop_rate = 1.0;
  cfg.fault_plan.max_retry = 4;
  cfg.fault_plan.seed = 3;
  cfg.recorder = rec;
  EXPECT_THROW(sim::run_spmd(cfg,
                             [](sim::RankCtx& ctx) {
                               mpi::Comm c = mpi::Comm::world(ctx);
                               const int x = c.rank();
                               c.send(&x, 1, 1 - c.rank(), 5);
                             }),
               mpi::RankFailedError);
  EXPECT_GE(counter_sum(*rec, "sim.fault.peer_reports"), 1.0);
}

// --- buffer pool reclamation (shrink must not leak retained buffers) -------

TEST(Recovery, BufferPoolAdoptFromMovesRetainedBuffers) {
  mpi::BufferPool a;
  mpi::BufferPool b;
  // Stock pool `a` with three retained buffers of distinct capacity classes
  // (acquire all before releasing - a released buffer would be regrown to
  // serve the next, larger request).
  std::vector<std::byte> b1 = a.acquire(500, nullptr);
  std::vector<std::byte> b2 = a.acquire(2000, nullptr);
  std::vector<std::byte> b3 = a.acquire(9000, nullptr);
  a.release(std::move(b1), nullptr);
  a.release(std::move(b2), nullptr);
  a.release(std::move(b3), nullptr);
  ASSERT_EQ(a.retained_buffers(), 3u);
  const std::size_t a_bytes = a.retained_bytes();

  b.adopt_from(a, nullptr);
  EXPECT_EQ(a.retained_buffers(), 0u);
  EXPECT_EQ(a.retained_bytes(), 0u);
  EXPECT_EQ(b.retained_buffers(), 3u);
  EXPECT_EQ(b.retained_bytes(), a_bytes);

  // Adoption into a full pool frees the excess instead of over-retaining.
  mpi::BufferPool tight(2);
  tight.adopt_from(b, nullptr);
  EXPECT_EQ(b.retained_buffers(), 0u);
  EXPECT_EQ(tight.retained_buffers(), 2u);
}

// --- checkpoint store ------------------------------------------------------

TEST(Recovery, CheckpointSchedule) {
  EXPECT_FALSE(fcs::CheckpointStore(0).enabled());
  fcs::CheckpointStore s(4);
  EXPECT_TRUE(s.enabled());
  EXPECT_TRUE(s.due(0));
  EXPECT_FALSE(s.due(3));
  EXPECT_TRUE(s.due(4));
}

TEST(Recovery, CheckpointRingShipsToBuddyWithoutSteadyStateAllocation) {
  fcs_test::run_ranks(4, [](mpi::Comm& c) {
    fcs::CheckpointStore store(2);
    const std::size_t bytes = 64 + static_cast<std::size_t>(c.rank()) * 8;
    std::vector<std::byte> blob(bytes,
                                static_cast<std::byte>(0x40 + c.rank()));
    store.save(c, blob, 0);
    ASSERT_TRUE(store.has_checkpoint());
    EXPECT_EQ(store.step_done(), 0);
    // Each rank guards the PRECEDING ring member's blob, byte for byte.
    const int prev = (c.rank() + 3) % 4;
    EXPECT_EQ(store.guarded_world_rank(), c.world_rank(prev));
    ASSERT_EQ(store.guarded().size(), 64 + static_cast<std::size_t>(prev) * 8);
    for (std::byte v : store.guarded())
      ASSERT_EQ(v, static_cast<std::byte>(0x40 + prev));

    // Steady state: saving the same-sized blob again reuses the retained
    // storage (allocation-free proxy). own_ keeps one buffer; the guarded
    // blob ping-pongs between the stage and commit buffers, so its pointer
    // must cycle with period two rather than move to fresh memory.
    store.save(c, blob, 2);
    const std::byte* own_before = store.own().data();
    const std::byte* guarded_even = store.guarded().data();
    store.save(c, blob, 4);
    const std::byte* guarded_odd = store.guarded().data();
    store.save(c, blob, 6);
    EXPECT_EQ(store.step_done(), 6);
    EXPECT_EQ(store.own().data(), own_before);
    EXPECT_EQ(store.guarded().data(), guarded_even);
    store.save(c, blob, 8);
    EXPECT_EQ(store.own().data(), own_before);
    EXPECT_EQ(store.guarded().data(), guarded_odd);
  });
}

// --- md-level rollback-and-replay ------------------------------------------

struct SimOutcome {
  std::uint64_t checksum = 0;
  std::uint64_t state = 0;  // SimulationResult::state_checksum, summed
  std::uint64_t count = 0;
  double qsum = 0.0;
  int final_size = 0;
  bool recovered = false;
  double makespan = 0.0;
};

/// One 8-rank MD run (512 ions, pm solver, surrogate motion) with scheduled
/// rank crashes. checkpoint_interval exceeds the step count, so the only
/// checkpoint is the post-init one and EVERY recovery rolls back to step 0 -
/// which is what makes outcomes comparable across crash times. `sparse`
/// runs method B with max-movement exploitation, `stage_fields` plain
/// method B with the integrator fields staged into every run (so the
/// solver carries them), and neither method A.
SimOutcome run_md_crash(bool sparse,
                        const std::vector<sim::FaultPlan::Crash>& crashes,
                        std::shared_ptr<obs::Recorder> rec = nullptr,
                        std::shared_ptr<const sim::NetworkModel> net = nullptr,
                        std::size_t extra_fields = 0,
                        bool stage_fields = false) {
  SimOutcome out;
  sim::EngineConfig ecfg = fcs_test::engine_config(8);
  if (net) ecfg.network = std::move(net);
  ecfg.fault_plan.crashes = crashes;
  ecfg.recorder = std::move(rec);
  out.makespan = sim::run_spmd(ecfg, [&](sim::RankCtx& ctx) {
    mpi::Comm world = mpi::Comm::world(ctx);
    md::SystemConfig sys;
    sys.box = domain::Box({0, 0, 0}, {16, 16, 16}, {true, true, true});
    sys.n_global = 512;
    sys.distribution = md::InitialDistribution::kProcessGrid;
    md::LocalParticles lp = md::generate_system(world, sys);

    auto make_handle = [&sys](const mpi::Comm& c) {
      auto h = std::make_unique<fcs::Fcs>(c, "pm");
      h->set_common(sys.box);
      h->set_accuracy(1e-3);
      auto& pm_solver = dynamic_cast<pm::PmSolver&>(h->solver());
      pm_solver.set_cutoff(1.5);
      pm_solver.set_mesh(16);
      return h;
    };
    std::unique_ptr<fcs::Fcs> handle = make_handle(world);

    md::SimulationConfig cfg;
    cfg.box = sys.box;
    cfg.steps = 6;
    cfg.resort = sparse || stage_fields;
    cfg.exploit_max_movement = sparse;
    cfg.stage_fields = stage_fields;
    cfg.surrogate_motion = true;
    cfg.surrogate_step = 0.05;
    cfg.modeled_compute = true;
    cfg.checkpoint_interval = 10;
    cfg.extra_vec3_fields = extra_fields;
    mpi::Comm final_comm;  // set by the factory when a recovery happens
    cfg.rebuild_handle = [&](const mpi::Comm& nc) {
      final_comm = nc;
      return make_handle(nc);
    };

    const md::SimulationResult res =
        md::run_simulation(world, *handle, lp, cfg);

    // A crashed rank never reaches this point (its fiber is unwound), so
    // the outcome reflects the survivors' agreed state.
    const mpi::Comm& c = final_comm.valid() ? final_comm : world;
    out.recovered = final_comm.valid();
    out.final_size = c.size();
    out.checksum = particle_checksum(c, lp);
    out.state = c.allreduce(res.state_checksum, mpi::OpSum{});
    out.count = md::global_count(c, lp);
    double q = 0.0;
    for (double v : lp.q) q += v;
    out.qsum = c.allreduce(q, mpi::OpSum{});
  });
  return out;
}

class RecoveryMd : public ::testing::TestWithParam<bool> {};
INSTANTIATE_TEST_SUITE_P(DenseSparse, RecoveryMd, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "sparse" : "dense";
                         });

TEST_P(RecoveryMd, CrashAtAnyPhaseRecoversBitIdentically) {
  const bool sparse = GetParam();
  // Crash-free reference gives the timeline to plant crashes into.
  const SimOutcome base = run_md_crash(sparse, {});
  ASSERT_FALSE(base.recovered);
  ASSERT_EQ(base.count, 512u);

  // Four crash times spread over the run interrupt four different phases
  // (post-init, mid-exchange, during force, during the late steps). All
  // roll back to the step-0 checkpoint, so all four variants must agree
  // bit-for-bit - plus a torus-network variant, since the recovered state
  // may not depend on message timing either.
  std::vector<SimOutcome> outcomes;
  auto rec = std::make_shared<obs::Recorder>();
  for (const double frac : {0.40, 0.55, 0.70, 0.85}) {
    outcomes.push_back(run_md_crash(
        sparse, {{2, frac * base.makespan}},
        frac == 0.40 ? rec : nullptr));
  }
  outcomes.push_back(run_md_crash(sparse, {{2, 0.6 * base.makespan}}, nullptr,
                                  std::make_shared<sim::TorusNetwork>(
                                      std::vector<int>{2, 2, 2})));

  for (const SimOutcome& o : outcomes) {
    EXPECT_TRUE(o.recovered);
    EXPECT_EQ(o.final_size, 7);
    EXPECT_EQ(o.count, 512u) << "particles lost or duplicated by recovery";
    EXPECT_NEAR(o.qsum, 0.0, 1e-12) << "charge not conserved";
    EXPECT_EQ(o.checksum, outcomes.front().checksum)
        << "recovered state depends on the crash phase";
  }

  // Observability of the first variant: one crash, one re-hosted shard,
  // checkpoints taken, replayed steps accounted, pool buffers migrated.
  EXPECT_EQ(counter_sum(*rec, "sim.fault.crashes"), 1.0);
  EXPECT_GE(counter_sum(*rec, "recover.crashes"), 1.0);
  EXPECT_EQ(counter_sum(*rec, "recover.rehosted"), 1.0);
  EXPECT_GE(counter_sum(*rec, "recover.ckpt.count"), 8.0);
  EXPECT_GE(counter_sum(*rec, "recover.replay_steps"), 1.0);
  EXPECT_GT(counter_sum(*rec, "pool.reclaimed"), 0.0);
}

TEST_P(RecoveryMd, ExtraPayloadFieldsRecoverWithTheirParticles) {
  // The extra payload vectors are part of the buddy checkpoint: a recovery
  // rolls them back with the particles and re-hosts the dead shard's rows,
  // so they keep following their particles through every later resort.
  const bool sparse = GetParam();
  const SimOutcome base = run_md_crash(sparse, {}, nullptr, nullptr, 2);
  ASSERT_FALSE(base.recovered);
  const SimOutcome early =
      run_md_crash(sparse, {{2, 0.40 * base.makespan}}, nullptr, nullptr, 2);
  const SimOutcome late =
      run_md_crash(sparse, {{2, 0.70 * base.makespan}}, nullptr, nullptr, 2);
  for (const SimOutcome& o : {early, late}) {
    EXPECT_TRUE(o.recovered);
    EXPECT_EQ(o.count, 512u);
  }
  EXPECT_EQ(early.checksum, late.checksum);
  EXPECT_EQ(early.state, late.state)
      << "recovered extra payload depends on the crash phase";
}

TEST(RecoveryMdMisc, CarriedFieldsRecoverWithTheirParticles) {
  // Fields the solver carries inside its own exchange live in the same
  // vectors the buddy checkpoint holds, so a recovery rolls them back and
  // re-hosts the dead shard's rows like any other payload.
  const SimOutcome base = run_md_crash(false, {}, nullptr, nullptr, 2, true);
  ASSERT_FALSE(base.recovered);
  auto rec = std::make_shared<obs::Recorder>();
  const SimOutcome early = run_md_crash(false, {{2, 0.40 * base.makespan}},
                                        rec, nullptr, 2, true);
  const SimOutcome late = run_md_crash(false, {{2, 0.70 * base.makespan}},
                                       nullptr, nullptr, 2, true);
  for (const SimOutcome& o : {early, late}) {
    EXPECT_TRUE(o.recovered);
    EXPECT_EQ(o.count, 512u);
  }
  EXPECT_EQ(early.checksum, late.checksum);
  EXPECT_EQ(early.state, late.state)
      << "recovered carried fields depend on the crash phase";
  EXPECT_GT(counter_sum(*rec, "redist.carry.exchanges"), 0.0);
  EXPECT_EQ(counter_sum(*rec, "recover.rehosted"), 1.0);
}

TEST(RecoveryMdMisc, RecoveredRunIsDeterministic) {
  const SimOutcome base = run_md_crash(false, {});
  const double t = 0.55 * base.makespan;
  const SimOutcome a = run_md_crash(false, {{2, t}});
  const SimOutcome b = run_md_crash(false, {{2, t}});
  EXPECT_TRUE(a.recovered);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(RecoveryMdMisc, TwoNonAdjacentCrashesRecover) {
  const SimOutcome base = run_md_crash(false, {});
  const SimOutcome out = run_md_crash(
      false, {{2, 0.45 * base.makespan}, {5, 0.65 * base.makespan}});
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.final_size, 6);
  EXPECT_EQ(out.count, 512u);
  EXPECT_NEAR(out.qsum, 0.0, 1e-12);
}

TEST(RecoveryMdMisc, AdjacentDoubleCrashIsUnrecoverable) {
  // Ranks 2 and 3 are checkpoint buddies; both dying inside the same
  // interval loses both replicas of rank 2's blob - recovery must refuse
  // with a diagnostic rather than silently dropping the shard.
  const SimOutcome base = run_md_crash(false, {});
  const double t = 0.5 * base.makespan;
  try {
    run_md_crash(false, {{2, t}, {3, t}});
    FAIL() << "expected an unrecoverable-failure error";
  } catch (const fcs::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unrecoverable"), std::string::npos)
        << e.what();
  }
}

TEST(RecoveryMdMisc, CrashWithoutCheckpointingPropagates) {
  const SimOutcome base = run_md_crash(false, {});
  sim::EngineConfig ecfg = fcs_test::engine_config(8);
  ecfg.fault_plan.crashes.push_back({1, 0.5 * base.makespan});
  EXPECT_THROW(
      sim::run_spmd(ecfg,
                    [](sim::RankCtx& ctx) {
                      mpi::Comm world = mpi::Comm::world(ctx);
                      md::SystemConfig sys;
                      sys.box = domain::Box({0, 0, 0}, {16, 16, 16},
                                            {true, true, true});
                      sys.n_global = 512;
                      sys.distribution = md::InitialDistribution::kProcessGrid;
                      md::LocalParticles lp = md::generate_system(world, sys);
                      fcs::Fcs handle(world, "pm");
                      handle.set_common(sys.box);
                      handle.set_accuracy(1e-3);
                      auto& pm_solver =
                          dynamic_cast<pm::PmSolver&>(handle.solver());
                      pm_solver.set_cutoff(1.5);
                      pm_solver.set_mesh(16);
                      md::SimulationConfig cfg;
                      cfg.box = sys.box;
                      cfg.steps = 6;
                      cfg.surrogate_motion = true;
                      cfg.surrogate_step = 0.05;
                      cfg.modeled_compute = true;
                      // checkpoint_interval = 0: failures are fatal.
                      md::run_simulation(world, handle, lp, cfg);
                    }),
      mpi::RankFailedError);
}

}  // namespace
