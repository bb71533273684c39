#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "md/simulation.hpp"
#include "minimpi/cart.hpp"
#include "md/system.hpp"
#include "obs/export.hpp"
#include "spmd_test_util.hpp"

using domain::Box;
using domain::Vec3;
using fcs_test::run_ranks;

namespace {

md::SystemConfig small_system(md::InitialDistribution dist,
                              std::size_t n = 6 * 6 * 6) {
  md::SystemConfig cfg;
  cfg.box = Box({0, 0, 0}, {12, 12, 12}, {true, true, true});
  cfg.n_global = n;
  cfg.jitter = 0.2;
  cfg.distribution = dist;
  return cfg;
}

class SystemGen : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, SystemGen, ::testing::Values(1, 2, 4, 8, 13));

TEST_P(SystemGen, GridDistributionIsCompleteAndLocal) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    const auto cfg = small_system(md::InitialDistribution::kProcessGrid);
    md::LocalParticles lp = md::generate_system(c, cfg);
    EXPECT_EQ(md::global_count(c, lp), 216u);
    // Every local particle is inside my grid subdomain.
    const std::vector<int> dims = mpi::dims_create(p, 3);
    const domain::CartGrid grid(cfg.box, {dims[0], dims[1], dims[2]});
    for (const Vec3& x : lp.pos)
      EXPECT_EQ(grid.rank_of_position(x), c.rank());
    // Neutral system.
    double qsum = 0;
    for (double q : lp.q) qsum += q;
    EXPECT_NEAR(c.allreduce(qsum, mpi::OpSum{}), 0.0, 1e-12);
  });
}

TEST_P(SystemGen, RandomDistributionIsCompleteAndBalanced) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    const auto cfg = small_system(md::InitialDistribution::kRandom, 12 * 12 * 12);
    md::LocalParticles lp = md::generate_system(c, cfg);
    EXPECT_EQ(md::global_count(c, lp), 1728u);
    // Roughly balanced (binomial bound, generous).
    const double expected = 1728.0 / p;
    EXPECT_GT(lp.size(), expected * 0.5);
    EXPECT_LT(lp.size(), expected * 1.6);
  });
}

TEST_P(SystemGen, SingleProcessHoldsAll) {
  const int p = GetParam();
  run_ranks(p, [](mpi::Comm& c) {
    const auto cfg = small_system(md::InitialDistribution::kSingleProcess);
    md::LocalParticles lp = md::generate_system(c, cfg);
    if (c.rank() == 0)
      EXPECT_EQ(lp.size(), 216u);
    else
      EXPECT_EQ(lp.size(), 0u);
  });
}

TEST(SystemGen, DeterministicAcrossDistributions) {
  // The same global particle multiset regardless of the distribution.
  auto checksum_with = [](md::InitialDistribution dist) {
    std::uint64_t sum = 0;
    run_ranks(4, [&](mpi::Comm& c) {
      const auto cfg = small_system(dist);
      md::LocalParticles lp = md::generate_system(c, cfg);
      std::uint64_t local = 0;
      for (std::size_t i = 0; i < lp.size(); ++i) {
        const double key =
            lp.pos[i].x * 3.1 + lp.pos[i].y * 7.7 + lp.pos[i].z * 13.3 +
            lp.q[i];
        local += static_cast<std::uint64_t>(std::llround(key * 1e6));
      }
      const auto total = c.allreduce(local, mpi::OpSum{});
      if (c.rank() == 0) sum = total;
    });
    return sum;
  };
  const auto a = checksum_with(md::InitialDistribution::kSingleProcess);
  const auto b = checksum_with(md::InitialDistribution::kRandom);
  const auto g = checksum_with(md::InitialDistribution::kProcessGrid);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, g);
}

TEST(Integrator, ConstantVelocityMotion) {
  md::LocalParticles p;
  p.pos = {{1, 1, 1}};
  p.vel = {{0.5, -0.25, 0}};
  p.acc = {{0, 0, 0}};
  p.q = {1.0};
  Box box({0, 0, 0}, {4, 4, 4}, {true, true, true});
  const double moved = md::advance_positions(p, box, 2.0);
  EXPECT_NEAR(moved, std::sqrt(1.0 + 0.25), 1e-12);
  EXPECT_NEAR(p.pos[0].x, 2.0, 1e-12);
  EXPECT_NEAR(p.pos[0].y, 0.5, 1e-12);
}

TEST(Integrator, WrapsAroundPeriodicBox) {
  md::LocalParticles p;
  p.pos = {{3.9, 0.1, 2.0}};
  p.vel = {{0.2, -0.2, 0}};
  p.acc = {{0, 0, 0}};
  p.q = {1.0};
  Box box({0, 0, 0}, {4, 4, 4}, {true, true, true});
  md::advance_positions(p, box, 1.0);
  EXPECT_NEAR(p.pos[0].x, 0.1, 1e-12);
  EXPECT_NEAR(p.pos[0].y, 3.9, 1e-12);
}

TEST(Integrator, HarmonicLikeTwoBodyConservesEnergy) {
  // Two opposite charges orbiting: integrate with the direct solver and
  // check that total energy drifts only mildly over many steps.
  run_ranks(2, [](mpi::Comm& c) {
    Box box({0, 0, 0}, {20, 20, 20}, {false, false, false});
    md::LocalParticles p;
    if (c.rank() == 0) {
      p.pos = {{9.0, 10.0, 10.0}};
      p.vel = {{0, 0.5, 0}};
      p.q = {1.0};
    } else {
      p.pos = {{11.0, 10.0, 10.0}};
      p.vel = {{0, -0.5, 0}};
      p.q = {-1.0};
    }
    p.acc.assign(p.size(), Vec3{});

    fcs::Fcs handle(c, "direct");
    handle.set_common(box);
    md::SimulationConfig cfg;
    cfg.box = box;
    cfg.dt = 0.02;
    cfg.steps = 100;
    md::SimulationResult res = md::run_simulation(c, handle, p, cfg);

    // E_total = E_pot + E_kin must be approximately conserved.
    const double ekin_last =
        c.allreduce(md::kinetic_energy(p), mpi::OpSum{});
    const double e_first = res.energy_first + 0.25;  // two 0.5*v^2 = 0.25 each
    const double e_last = res.energy_last + ekin_last;
    EXPECT_NEAR(e_last, e_first, 0.02 * std::abs(e_first));
  });
}

TEST(Simulation, MethodBStepsKeepParticleCountAndArrays) {
  run_ranks(4, [](mpi::Comm& c) {
    const auto cfg_sys = small_system(md::InitialDistribution::kRandom);
    md::LocalParticles p = md::generate_system(c, cfg_sys);

    fcs::Fcs handle(c, "pm");
    handle.set_common(cfg_sys.box);
    handle.set_accuracy(1e-2);
    md::SimulationConfig cfg;
    cfg.box = cfg_sys.box;
    cfg.steps = 4;
    cfg.resort = true;
    cfg.exploit_max_movement = true;
    cfg.dt = 0.005;
    md::SimulationResult res = md::run_simulation(c, handle, p, cfg);

    ASSERT_EQ(res.step_times.size(), 5u);
    for (bool r : res.resorted) EXPECT_TRUE(r);
    // Arrays stay mutually consistent.
    EXPECT_EQ(p.vel.size(), p.size());
    EXPECT_EQ(p.acc.size(), p.size());
    EXPECT_EQ(md::global_count(c, p), 216u);
  });
}

TEST(Simulation, SurrogateMotionReportsTimesAndPreservesCount) {
  auto net = std::make_shared<sim::SwitchedNetwork>();
  run_ranks(8, [](mpi::Comm& c) {
    const auto cfg_sys = small_system(md::InitialDistribution::kProcessGrid,
                                      10 * 10 * 10);
    md::LocalParticles p = md::generate_system(c, cfg_sys);
    fcs::Fcs handle(c, "pm");
    handle.set_common(cfg_sys.box);
    handle.set_accuracy(1e-2);
    md::SimulationConfig cfg;
    cfg.box = cfg_sys.box;
    cfg.steps = 3;
    cfg.resort = true;
    cfg.exploit_max_movement = true;
    cfg.modeled_compute = true;
    cfg.surrogate_motion = true;
    cfg.surrogate_step = 0.05;
    md::SimulationResult res = md::run_simulation(c, handle, p, cfg);
    EXPECT_EQ(md::global_count(c, p), 1000u);
    EXPECT_GT(res.total_time, 0.0);
    for (const auto& t : res.step_times) EXPECT_GE(t.total, 0.0);
  }, net);
}

TEST(Simulation, MethodAVersusBTimingShape) {
  // The paper's core claim, in miniature: with a grid initial distribution
  // and small movement, method B's per-step redistribution (sort + resort)
  // must be cheaper than method A's (sort + restore) after the first step.
  auto net = std::make_shared<sim::SwitchedNetwork>();
  auto run_with = [&](bool resort) {
    std::vector<fcs::PhaseTimes> times;
    run_ranks(8, [&](mpi::Comm& c) {
      const auto cfg_sys = small_system(md::InitialDistribution::kRandom,
                                        12 * 12 * 12);
      md::LocalParticles p = md::generate_system(c, cfg_sys);
      fcs::Fcs handle(c, "pm");
      handle.set_common(cfg_sys.box);
      handle.set_accuracy(1e-2);
      md::SimulationConfig cfg;
      cfg.box = cfg_sys.box;
      cfg.steps = 3;
      cfg.resort = resort;
      cfg.exploit_max_movement = resort;
      cfg.modeled_compute = true;
      cfg.surrogate_motion = true;
      cfg.surrogate_step = 0.02;
      md::SimulationResult res = md::run_simulation(c, handle, p, cfg);
      if (c.rank() == 0) times = res.step_times;
    }, net);
    return times;
  };
  const auto ta = run_with(false);
  const auto tb = run_with(true);
  // After the first step, B's redistribution beats A's.
  double redist_a = 0, redist_b = 0;
  for (std::size_t s = 2; s < ta.size(); ++s) {
    redist_a += ta[s].sort + ta[s].restore;
    redist_b += tb[s].sort + tb[s].resort;
  }
  EXPECT_LT(redist_b, redist_a);
}

TEST(Simulation, SettingsTravelWithEachRun) {
  // Two configurations side by side in one process: overlapped + validated
  // + a fixed:B planner with cfg.resort = false, then plain phased B, then
  // the first configuration again. The planner, not cfg.resort, makes the
  // first runs resort, and their integrator fields must still overlap with
  // the forces. Nothing of the first run may leak into the second, and the
  // third must replay the first exactly.
  struct Outcome {
    std::string metrics;  // makespan + every counter and histogram
    double makespan = 0.0;
    std::uint64_t state = 0;
    std::map<std::string, obs::CounterReduction> counters;
  };
  auto run = [](bool first_config) {
    auto rec = std::make_shared<obs::Recorder>();
    sim::EngineConfig ecfg;
    ecfg.nranks = 8;
    ecfg.network = std::make_shared<sim::SwitchedNetwork>();
    ecfg.recorder = rec;
    ecfg.validate = first_config;
    Outcome out;
    out.makespan = sim::run_spmd(ecfg, [&](sim::RankCtx& ctx) {
      mpi::Comm c = mpi::Comm::world(ctx);
      const auto cfg_sys =
          small_system(md::InitialDistribution::kRandom, 12 * 12 * 12);
      md::LocalParticles p = md::generate_system(c, cfg_sys);
      fcs::Fcs handle(c, "pm");
      handle.set_common(cfg_sys.box);
      handle.set_accuracy(1e-2);
      md::SimulationConfig cfg;
      cfg.box = cfg_sys.box;
      cfg.steps = 3;
      cfg.modeled_compute = true;
      cfg.surrogate_motion = true;
      cfg.surrogate_step = 0.5;
      cfg.extra_vec3_fields = 2;
      if (first_config) {
        cfg.overlap = true;
        cfg.plan = plan::parse_plan_spec("fixed:B");
      } else {
        cfg.resort = true;
      }
      const md::SimulationResult res = md::run_simulation(c, handle, p, cfg);
      const std::uint64_t state =
          c.allreduce(res.state_checksum, mpi::OpSum{});
      if (c.rank() == 0) out.state = state;
    });
    std::ostringstream metrics;
    obs::write_metrics_json(metrics, {{"run", out.makespan, rec.get()}});
    out.metrics = metrics.str();
    out.counters = rec->reduce_counters();
    return out;
  };
  const Outcome first = run(true);
  const Outcome plain = run(false);
  const Outcome again = run(true);

  EXPECT_EQ(first.makespan, again.makespan);
  EXPECT_EQ(first.metrics, again.metrics);
  EXPECT_EQ(first.state, again.state);
  EXPECT_EQ(first.state, plain.state);
  for (const char* name : {"fcs.task.runs", "redist.fused.async_runs",
                           "redist.validate.checks", "plan.decision"}) {
    const auto in_first = first.counters.find(name);
    ASSERT_NE(in_first, first.counters.end()) << name;
    EXPECT_GT(in_first->second.totals.sum, 0.0) << name;
    EXPECT_EQ(plain.counters.count(name), 0u) << name;
  }
}

}  // namespace
