#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "md/simulation.hpp"
#include "md/system.hpp"
#include "minimpi/cart.hpp"
#include "obs/obs.hpp"
#include "plan/planner.hpp"
#include "pm/pm_solver.hpp"
#include "spmd_test_util.hpp"

using fcs_test::run_ranks;
using fcs_test::save_blob;

namespace {

// ---------------------------------------------------------------------------
// Spec parsing and env override

TEST(PlanSpec, ParsesOffAutoAndFixedForms) {
  EXPECT_EQ(plan::parse_plan_spec("off").mode, plan::PlanMode::kOff);
  EXPECT_EQ(plan::parse_plan_spec("").mode, plan::PlanMode::kOff);
  EXPECT_EQ(plan::parse_plan_spec("auto").mode, plan::PlanMode::kAuto);

  const plan::PlanConfig a = plan::parse_plan_spec("fixed:A");
  EXPECT_EQ(a.mode, plan::PlanMode::kFixed);
  EXPECT_EQ(a.fixed.method, plan::Method::kA);
  EXPECT_EQ(a.fixed.sort, plan::SortAlgo::kAuto);
  EXPECT_EQ(a.fixed.exchange, plan::Exchange::kAuto);

  // "Bmm" and "B+mm" are the same method; sort/exchange tokens in any order.
  const plan::PlanConfig m1 = plan::parse_plan_spec("fixed:Bmm,merge,neigh");
  const plan::PlanConfig m2 =
      plan::parse_plan_spec("fixed:neighborhood,B+mm,merge");
  EXPECT_EQ(m1.fixed, m2.fixed);
  EXPECT_EQ(m1.fixed.method, plan::Method::kBMaxMove);
  EXPECT_EQ(m1.fixed.sort, plan::SortAlgo::kMerge);
  EXPECT_EQ(m1.fixed.exchange, plan::Exchange::kNeighborhood);

  const plan::PlanConfig b =
      plan::parse_plan_spec("fixed:B,partition,alltoall");
  EXPECT_EQ(b.fixed.method, plan::Method::kB);
  EXPECT_EQ(b.fixed.sort, plan::SortAlgo::kPartition);
  EXPECT_EQ(b.fixed.exchange, plan::Exchange::kAllToAll);

  // Explicit "auto" keeps the solver heuristic for sort/exchange.
  const plan::PlanConfig h = plan::parse_plan_spec("fixed:B+mm,auto");
  EXPECT_EQ(h.fixed.sort, plan::SortAlgo::kAuto);
}

TEST(PlanSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(plan::parse_plan_spec("bogus"), fcs::Error);
  EXPECT_THROW(plan::parse_plan_spec("fixed:"), fcs::Error);
  EXPECT_THROW(plan::parse_plan_spec("fixed:merge"), fcs::Error);  // no method
  EXPECT_THROW(plan::parse_plan_spec("fixed:A,B"), fcs::Error);  // two methods
  EXPECT_THROW(plan::parse_plan_spec("fixed:A,sideways"), fcs::Error);
  EXPECT_THROW(plan::parse_plan_spec("AUTO"), fcs::Error);
}

TEST(PlanSpec, DecisionCodesRoundTrip) {
  const plan::RedistPlan bmm{plan::Method::kBMaxMove, plan::SortAlgo::kMerge,
                             plan::Exchange::kNeighborhood};
  EXPECT_STREQ(plan::decision_code(bmm).chars, "Mmn");
  const plan::RedistPlan b{plan::Method::kB, plan::SortAlgo::kPartition,
                           plan::Exchange::kAllToAll};
  EXPECT_STREQ(plan::decision_code(b).chars, "Bpd");
  const plan::RedistPlan a{plan::Method::kA, plan::SortAlgo::kAuto,
                           plan::Exchange::kAuto};
  EXPECT_STREQ(plan::decision_code(a).chars, "Aaa");
}

// ---------------------------------------------------------------------------
// Cost model (NLMS regression)

TEST(PlanCostModel, NlmsConvergesGeometricallyOnARepeatedPhase) {
  // NLMS on a repeated input shrinks the prediction error by (1 - eta) per
  // update, regardless of the feature scale mix - the property that lets a
  // steady-state workload calibrate within a few steps.
  const plan::CostModel::Features truth = {5e-6, 1e-9, 8e-6, 2e-9, 4e-9};
  auto cost_of = [&](const plan::CostModel::Features& f) {
    double s = 0.0;
    for (int t = 0; t < plan::CostModel::kTerms; ++t)
      s += truth[static_cast<std::size_t>(t)] * f[static_cast<std::size_t>(t)];
    return s;
  };
  for (const plan::CostModel::Features& f :
       {plan::CostModel::Features{64, 3e5, 0, 0, 1e4},
        plan::CostModel::Features{0, 0, 26, 2e4, 1e4},
        plan::CostModel::Features{128, 1e6, 0, 0, 3e5}}) {
    plan::CostModel model;
    const double want = cost_of(f);
    double err = std::abs(model.predict(f) - want);
    for (int i = 0; i < 40; ++i) {
      model.update(f, want, 0.25);
      const double next = std::abs(model.predict(f) - want);
      EXPECT_LE(next, 0.76 * err + 1e-18) << "update " << i;
      err = next;
    }
    EXPECT_NEAR(model.predict(f), want, 1e-3 * want);
  }
}

TEST(PlanCostModel, DisjointPhasesCalibrateIndependently) {
  // A dense-only phase and a sparse-only phase touch disjoint coefficient
  // sets, so interleaved training converges on both - how the shared model
  // learns the all-to-all and point-to-point arms side by side.
  const plan::CostModel::Features dense = {64, 3e5, 0, 0, 0};
  const plan::CostModel::Features sparse = {0, 0, 26, 2e4, 0};
  const double dense_cost = 7e-4, sparse_cost = 9e-5;
  plan::CostModel model;
  for (int i = 0; i < 60; ++i) {
    model.update(dense, dense_cost, 0.25);
    model.update(sparse, sparse_cost, 0.25);
  }
  EXPECT_NEAR(model.predict(dense), dense_cost, 1e-3 * dense_cost);
  EXPECT_NEAR(model.predict(sparse), sparse_cost, 1e-3 * sparse_cost);
}

TEST(PlanCostModel, CoefficientsStayNonNegativeAndIgnoreBadSamples) {
  plan::CostModel model;
  const plan::CostModel::Features f = {1e3, 1e6, 1e3, 1e6, 1e6};
  // Drive hard towards zero cost: coefficients must clamp at 0, not go
  // negative (a negative per-byte cost would make every arm "free").
  for (int i = 0; i < 100; ++i) model.update(f, 0.0, 1.0);
  for (double c : model.coefficients()) EXPECT_GE(c, 0.0);
  // Degenerate samples are ignored, not NaN-poisoning.
  model.update({0, 0, 0, 0, 0}, 1.0, 0.5);
  model.update(f, -1.0, 0.5);
  EXPECT_TRUE(std::isfinite(model.predict(f)));
}

// ---------------------------------------------------------------------------
// Planner decisions (SPMD, synthetic observations)

plan::ObserveInputs synthetic_observation(const plan::RedistPlan& p,
                                          double t_sort, double t_finish) {
  plan::ObserveInputs oin;
  oin.t_sort = t_sort;
  if (p.method == plan::Method::kA) {
    oin.t_restore = t_finish;
    oin.resorted = false;
  } else {
    oin.t_resort = t_finish;
    oin.resorted = true;
    oin.sparse_resort = p.method == plan::Method::kBMaxMove;
  }
  return oin;
}

TEST(Planner, FixedModeEmitsConfiguredPlanWithoutCommunication) {
  auto net = std::make_shared<sim::SwitchedNetwork>();
  const double makespan = run_ranks(4, [](mpi::Comm& c) {
    plan::Planner planner(plan::parse_plan_spec("fixed:B+mm,merge,neigh"));
    for (int step = 0; step < 3; ++step) {
      plan::DecideInputs din;
      din.n_local = 50;
      din.max_move = 0.1;
      din.input_in_solver_order = step > 0;
      din.volume = 1000.0;
      const plan::RedistPlan p = planner.decide(c, din);
      EXPECT_EQ(p.method, plan::Method::kBMaxMove);
      EXPECT_EQ(p.sort, plan::SortAlgo::kMerge);
      EXPECT_EQ(p.exchange, plan::Exchange::kNeighborhood);
      planner.observe(c, synthetic_observation(p, 1e-3, 1e-4));
    }
    EXPECT_EQ(planner.decision_string(), "MmnMmnMmn");
    EXPECT_EQ(planner.probe_count(), 0);
    EXPECT_EQ(planner.mispredict_count(), 0);
  }, net);
  // Fixed mode must not communicate at all: this is what lets fixed plans
  // replay the legacy virtual-time behaviour bit-identically.
  EXPECT_EQ(makespan, 0.0);
}

TEST(Planner, AutoProbesOnDeterministicSchedule) {
  run_ranks(4, [](mpi::Comm& c) {
    plan::PlanConfig cfg = plan::parse_plan_spec("auto");
    cfg.probe_rate = 0.5;  // probe every 2nd decision after the holdoff
    plan::Planner planner(cfg);
    for (int step = 0; step < 8; ++step) {
      plan::DecideInputs din;
      din.n_local = 50;
      din.max_move = 0.05;
      din.input_in_solver_order = true;  // all three arms feasible
      din.volume = 1000.0;
      const plan::RedistPlan p = planner.decide(c, din);
      planner.observe(c, synthetic_observation(p, 1e-3, 1e-4));
    }
    EXPECT_EQ(planner.decision_count(), 8);
    // Holdoff skips the first 3 decisions; then every 2nd probes: 4, 6, 8.
    EXPECT_EQ(planner.probe_count(), 3);
    EXPECT_EQ(planner.decision_string().size(), 24u);
  });
}

TEST(Planner, MispredictAuditFiresWhenChosenArmDisappoints) {
  run_ranks(2, [](mpi::Comm& c) {
    plan::PlanConfig cfg = plan::parse_plan_spec("auto");
    cfg.probe_rate = 0.0;
    plan::Planner planner(cfg);
    plan::DecideInputs din;
    din.n_local = 50;
    din.max_move = 0.05;
    din.input_in_solver_order = true;
    din.volume = 1000.0;
    const plan::RedistPlan p = planner.decide(c, din);
    // The run costs far more than any alternative's prediction.
    planner.observe(c, synthetic_observation(p, 100.0, 100.0));
    EXPECT_EQ(planner.mispredict_count(), 1);
    // A cheap run is not a mispredict.
    const plan::RedistPlan q = planner.decide(c, din);
    planner.observe(c, synthetic_observation(q, 0.0, 0.0));
    EXPECT_EQ(planner.mispredict_count(), 1);
  });
}

TEST(Planner, MovementBoundArmGatedBySubdomainScale) {
  run_ranks(8, [](mpi::Comm& c) {
    plan::PlanConfig cfg = plan::parse_plan_spec("auto");
    plan::Planner planner(cfg);
    // volume 1000 over 8 ranks: subdomain cube side 5. A bound of 20 spans
    // several shells, so neither merge sorting nor neighborhood exchange
    // can pay off - the B+mm arm must never be chosen, probes included.
    for (int step = 0; step < 12; ++step) {
      plan::DecideInputs din;
      din.n_local = 50;
      din.max_move = 20.0;
      din.input_in_solver_order = true;
      din.volume = 1000.0;
      const plan::RedistPlan p = planner.decide(c, din);
      EXPECT_NE(p.method, plan::Method::kBMaxMove);
      planner.observe(c, synthetic_observation(p, 1e-3, 1e-4));
    }
    EXPECT_EQ(planner.decision_string().find('M'), std::string::npos);
    // An unknown bound (< 0) gates the arm too.
    plan::DecideInputs din;
    din.n_local = 50;
    din.max_move = -1.0;
    din.input_in_solver_order = true;
    din.volume = 1000.0;
    EXPECT_NE(planner.decide(c, din).method, plan::Method::kBMaxMove);
  });
}

TEST(Planner, ObservationsCalibrateRhoAndModel) {
  run_ranks(2, [](mpi::Comm& c) {
    plan::PlanConfig cfg = plan::parse_plan_spec("auto");
    cfg.probe_rate = 0.0;
    plan::Planner planner(cfg);
    EXPECT_DOUBLE_EQ(planner.bin_rho(plan::CostBin::kSortInorderDense), 1.0);
    plan::DecideInputs din;
    din.n_local = 50;
    din.max_move = 0.05;
    din.input_in_solver_order = true;
    din.volume = 1000.0;
    const plan::RedistPlan p = planner.decide(c, din);
    const plan::CostBin sort_bin = p.method == plan::Method::kBMaxMove
                                       ? plan::CostBin::kSortInorderSparse
                                       : plan::CostBin::kSortInorderDense;
    const double predicted = planner.bin_prediction(sort_bin);
    planner.observe(c, synthetic_observation(p, 10.0 * predicted, 1e-6));
    // The executed bin's rho moved towards the observed/predicted ratio.
    EXPECT_NE(planner.bin_rho(sort_bin), 1.0);
    EXPECT_GT(planner.bin_prediction(sort_bin), predicted);
  });
}

TEST(Planner, SaveLoadReplaysBitIdenticalDecisions) {
  // The buddy-checkpoint contract: a planner loaded from a saved blob is
  // indistinguishable from the one that saved it - same decisions on the
  // same inputs, bit for bit.
  run_ranks(4, [](mpi::Comm& c) {
    plan::PlanConfig cfg = plan::parse_plan_spec("auto");
    cfg.probe_rate = 0.5;
    const auto din_at = [](int step) {
      plan::DecideInputs din;
      din.n_local = 40 + 10 * (step % 4);
      din.max_move = step % 3 == 0 ? 0.05 : 0.4;
      din.input_in_solver_order = step % 5 != 1;
      din.volume = 500.0 + 100.0 * step;
      return din;
    };
    plan::Planner a(cfg);
    for (int step = 0; step < 5; ++step) {
      const plan::RedistPlan p = a.decide(c, din_at(step));
      a.observe(c, synthetic_observation(p, 1e-3 * (1 + step % 2), 2e-4));
    }

    const std::vector<std::byte> blob = save_blob(a);
    plan::Planner b(cfg);
    fcs::ByteReader reader(blob.data(), blob.size());
    b.load(reader);
    EXPECT_TRUE(reader.done());
    // The decision audit travels with the adaptation state.
    EXPECT_EQ(b.decision_string(), a.decision_string());
    EXPECT_EQ(b.decision_count(), a.decision_count());
    EXPECT_EQ(b.probe_count(), a.probe_count());

    // From here the two planners must stay in lockstep: identical plans,
    // probes included (the probe schedule is part of the blob), and
    // identical blobs afterwards.
    for (int step = 5; step < 12; ++step) {
      const plan::RedistPlan pa = a.decide(c, din_at(step));
      const plan::RedistPlan pb = b.decide(c, din_at(step));
      EXPECT_EQ(pa, pb) << "step " << step;
      const plan::ObserveInputs oin =
          synthetic_observation(pa, 1e-3 / (1 + step % 3), 3e-4);
      a.observe(c, oin);
      b.observe(c, oin);
    }
    EXPECT_EQ(a.decision_string(), b.decision_string());
    EXPECT_EQ(save_blob(a), save_blob(b));
  });
}

// ---------------------------------------------------------------------------
// Whole-simulation behaviour (the md driver + fcs handle threading)

md::SystemConfig plan_test_system(std::size_t n = 512) {
  md::SystemConfig sys;
  sys.box = domain::Box({0, 0, 0}, {16, 16, 16}, {true, true, true});
  sys.n_global = n;
  sys.distribution = md::InitialDistribution::kRandom;
  return sys;
}

struct SimCapture {
  std::vector<fcs::PhaseTimes> step_times;
  std::string decisions;
  double makespan = 0.0;
};

SimCapture run_plan_simulation(int nranks, const std::string& solver,
                               const md::SimulationConfig& cfg) {
  SimCapture cap;
  const md::SystemConfig sys = plan_test_system();
  cap.makespan = run_ranks(nranks, [&](mpi::Comm& c) {
    md::LocalParticles particles = md::generate_system(c, sys);
    fcs::Fcs handle(c, solver);
    handle.set_common(sys.box);
    handle.set_accuracy(1e-3);
    if (solver == "pm") {
      auto& pm_solver = dynamic_cast<pm::PmSolver&>(handle.solver());
      pm_solver.set_cutoff(1.5);
      pm_solver.set_mesh(16);
    }
    md::SimulationConfig run_cfg = cfg;
    run_cfg.box = sys.box;
    const md::SimulationResult res =
        md::run_simulation(c, handle, particles, run_cfg);
    if (c.rank() == 0) {
      cap.step_times = res.step_times;
      cap.decisions = res.plan_decisions;
    }
  });
  return cap;
}

void expect_identical_times(const SimCapture& a, const SimCapture& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.step_times.size(), b.step_times.size());
  for (std::size_t s = 0; s < a.step_times.size(); ++s) {
    EXPECT_EQ(a.step_times[s].sort, b.step_times[s].sort) << "step " << s;
    EXPECT_EQ(a.step_times[s].compute, b.step_times[s].compute) << "step " << s;
    EXPECT_EQ(a.step_times[s].restore, b.step_times[s].restore) << "step " << s;
    EXPECT_EQ(a.step_times[s].resort, b.step_times[s].resort) << "step " << s;
    EXPECT_EQ(a.step_times[s].total, b.step_times[s].total) << "step " << s;
  }
}

md::SimulationConfig surrogate_sim(int steps, double step_len) {
  md::SimulationConfig cfg;
  cfg.steps = steps;
  cfg.modeled_compute = true;
  cfg.surrogate_motion = true;
  cfg.surrogate_step = step_len;
  return cfg;
}

TEST(PlanSim, FixedSpecsReproduceLegacyRunsBitIdentically) {
  for (const char* solver : {"pm", "fmm"}) {
    // Method A: legacy resort=false vs the planner pinned to fixed:A.
    md::SimulationConfig legacy_a = surrogate_sim(4, 0.1);
    md::SimulationConfig fixed_a = legacy_a;
    fixed_a.plan = plan::parse_plan_spec("fixed:A");
    expect_identical_times(run_plan_simulation(4, solver, legacy_a),
                           run_plan_simulation(4, solver, fixed_a));

    // Method B+mm: legacy resort+exploit vs fixed:B+mm.
    md::SimulationConfig legacy_m = surrogate_sim(4, 0.1);
    legacy_m.resort = true;
    legacy_m.exploit_max_movement = true;
    md::SimulationConfig fixed_m = legacy_m;
    fixed_m.plan = plan::parse_plan_spec("fixed:B+mm");
    const SimCapture legacy = run_plan_simulation(4, solver, legacy_m);
    const SimCapture planned = run_plan_simulation(4, solver, fixed_m);
    expect_identical_times(legacy, planned);
    EXPECT_TRUE(legacy.decisions.empty());
    EXPECT_EQ(planned.decisions, "MaaMaaMaaMaaMaa");  // initial + 4 steps
  }
}

TEST(PlanSim, AutoDecisionSequenceIsDeterministicAcrossReruns) {
  md::SimulationConfig cfg = surrogate_sim(6, 0.1);
  cfg.plan = plan::parse_plan_spec("auto");
  const SimCapture first = run_plan_simulation(8, "pm", cfg);
  const SimCapture second = run_plan_simulation(8, "pm", cfg);
  ASSERT_EQ(first.decisions.size(), 7u * 3u);  // initial run + 6 steps
  EXPECT_EQ(first.decisions, second.decisions);
  expect_identical_times(first, second);
}

TEST(PlanSim, AutoNeverPicksMovementArmUnderLargeDrift) {
  // Box 16 over 8 ranks: subdomain cube side 8; 10 per step is a scramble.
  md::SimulationConfig cfg = surrogate_sim(6, 10.0);
  cfg.plan = plan::parse_plan_spec("auto");
  const SimCapture cap = run_plan_simulation(8, "pm", cfg);
  EXPECT_EQ(cap.decisions.find('M'), std::string::npos) << cap.decisions;
}

TEST(PlanSim, ForcedNeighborhoodDegradesToDenseFallback) {
  // 16 ranks on a 4x2x2 grid: non-neighbor pairs exist along x. Forcing
  // fixed:B+mm,merge,neighborhood under multi-shell movement must degrade
  // to the dense all-to-all (counted as redist.fallback), not lose
  // particles or trip the non-neighbor check.
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig ecfg = fcs_test::engine_config(16);
  ecfg.stack_bytes = 512 * 1024;
  ecfg.recorder = rec;
  sim::Engine engine(ecfg);
  engine.run([](sim::RankCtx& ctx) {
    mpi::Comm comm = mpi::Comm::world(ctx);
    const md::SystemConfig sys = plan_test_system();
    md::LocalParticles particles = md::generate_system(comm, sys);
    fcs::Fcs handle(comm, "pm");
    handle.set_common(sys.box);
    handle.set_accuracy(1e-3);
    auto& pm_solver = dynamic_cast<pm::PmSolver&>(handle.solver());
    pm_solver.set_cutoff(1.5);
    pm_solver.set_mesh(16);
    md::SimulationConfig cfg = surrogate_sim(4, 6.0);  // subdomain x is 4
    cfg.box = sys.box;
    cfg.plan = plan::parse_plan_spec("fixed:B+mm,merge,neighborhood");
    const md::SimulationResult res =
        md::run_simulation(comm, handle, particles, cfg);
    EXPECT_EQ(res.step_times.size(), 5u);
    for (bool resorted : res.resorted) EXPECT_TRUE(resorted);
    EXPECT_EQ(md::global_count(comm, particles), 512u);
  });
  const auto reduced = rec->reduce_counters();
  auto sum_of = [&](const char* name) {
    const auto it = reduced.find(name);
    return it != reduced.end() ? it->second.totals.sum : 0.0;
  };
  EXPECT_GT(sum_of("redist.fallback"), 0.0);
  EXPECT_GT(sum_of("redist.dense.calls"), 0.0);
  EXPECT_GT(sum_of("plan.decision.Mmn"), 0.0);
}

}  // namespace
