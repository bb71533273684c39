// The dynamic load-balancing subsystem (src/lb): weighted splitter search,
// segment/target consistency between the full and incremental migration
// paths, weighted grid cuts, the Balancer trigger state machine, and the
// end-to-end clustered-workload behaviour through the fcs layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

#include "lb/incremental.hpp"
#include "lb/lb.hpp"
#include "lb/weighted_split.hpp"
#include "md/simulation.hpp"
#include "md/system.hpp"
#include "obs/export.hpp"
#include "redist/resort.hpp"
#include "sortlib/partition_sort.hpp"
#include "spmd_test_util.hpp"
#include "support/rng.hpp"

using fcs_test::run_ranks;
using fcs_test::save_blob;

namespace {

struct Rec {
  std::uint64_t key;
  std::uint64_t payload;
};
std::uint64_t rec_key(const Rec& r) { return r.key; }

// ---------------------------------------------------------------------------
// Weighted splitter search

TEST(WeightedSplitters, EqualWeightsAreCountBalanced) {
  run_ranks(4, [](mpi::Comm& c) {
    // Rank r holds keys r*100 .. r*100+99; unit weights must split the
    // 400-key space into four segments of ~100 keys each.
    std::vector<std::uint64_t> keys(100);
    for (std::size_t i = 0; i < keys.size(); ++i)
      keys[i] = static_cast<std::uint64_t>(c.rank()) * 100 + i;
    const auto splitters = lb::weighted_splitter_keys(c, keys, 1.0, c.size());
    ASSERT_EQ(splitters.size(), 3u);
    EXPECT_TRUE(std::is_sorted(splitters.begin(), splitters.end()));
    const auto counts = lb::segment_target_counts(c, keys, splitters);
    std::uint64_t total = 0;
    for (std::uint64_t n : counts) {
      EXPECT_NEAR(static_cast<double>(n), 100.0, 1.0);
      total += n;
    }
    EXPECT_EQ(total, 400u);
  });
}

TEST(WeightedSplitters, HeavyRankGetsFewerElements) {
  run_ranks(2, [](mpi::Comm& c) {
    // Rank 0's elements cost 3x rank 1's: the weighted cut must hand rank 0
    // roughly a third of the elements rank 1 gets.
    std::vector<std::uint64_t> keys(100);
    for (std::size_t i = 0; i < keys.size(); ++i)
      keys[i] = static_cast<std::uint64_t>(c.rank()) * 100 + i;
    const double w = c.rank() == 0 ? 3.0 : 1.0;
    const auto splitters = lb::weighted_splitter_keys(c, keys, w, c.size());
    ASSERT_EQ(splitters.size(), 1u);
    // Total weight 400, target 200 -> cut inside rank 0's range near key 66.
    const auto counts = lb::segment_target_counts(c, keys, splitters);
    EXPECT_NEAR(static_cast<double>(counts[0]) * 3.0, 200.0, 3.0);
    EXPECT_EQ(counts[0] + counts[1], 200u);
  });
}

TEST(WeightedSplitters, EmptyAndSingleRankInputs) {
  for (int p : {1, 3, 7}) {
    run_ranks(p, [p](mpi::Comm& c) {
      // Only rank 0 holds elements; the other ranks pass empty (but still
      // collective) inputs. All the weight sits in one key range.
      std::vector<std::uint64_t> keys;
      if (c.rank() == 0)
        for (std::uint64_t i = 0; i < 90; ++i) keys.push_back(i);
      const auto splitters = lb::weighted_splitter_keys(c, keys, 1.0, p);
      ASSERT_EQ(splitters.size(), static_cast<std::size_t>(p - 1));
      const auto counts = lb::segment_target_counts(c, keys, splitters);
      std::uint64_t total = 0;
      for (std::uint64_t n : counts) {
        EXPECT_NEAR(static_cast<double>(n), 90.0 / p, 1.0);
        total += n;
      }
      EXPECT_EQ(total, 90u);
    });
  }
}

TEST(WeightedSplitters, UniformItemWeightsMatchTheScalarOverload) {
  run_ranks(4, [](mpi::Comm& c) {
    fcs::Rng rng = fcs::Rng(5).stream(static_cast<std::uint64_t>(c.rank()));
    std::vector<std::uint64_t> keys(80);
    for (auto& k : keys) k = rng() % 1000;
    std::sort(keys.begin(), keys.end());
    const auto scalar = lb::weighted_splitter_keys(c, keys, 2.5, c.size());
    const std::vector<double> weights(keys.size(), 2.5);
    const auto per_item = lb::weighted_splitter_keys(c, keys, weights, c.size());
    EXPECT_EQ(scalar, per_item);
  });
}

TEST(WeightedSplitters, PerItemWeightsCutInsideAHotspot) {
  run_ranks(2, [](mpi::Comm& c) {
    // Both ranks hold 100 keys, but the top half of rank 1's range is a 9x
    // hotspot. A scalar per-rank weight could only shrink rank 1's whole
    // share; per-item weights must move the cut INTO rank 1's range, past
    // the cheap keys and into the hotspot.
    std::vector<std::uint64_t> keys(100);
    std::vector<double> weights(100);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<std::uint64_t>(c.rank()) * 100 + i;
      weights[i] = (c.rank() == 1 && i >= 50) ? 9.0 : 1.0;
    }
    const auto splitters =
        lb::weighted_splitter_keys(c, keys, weights, c.size());
    ASSERT_EQ(splitters.size(), 1u);
    // Total weight 100 + 50 + 450 = 600; the half-weight point (300) sits
    // ~17 keys into the hotspot: 100 + 50 + 17*9 = 303.
    EXPECT_GT(splitters[0], 150u);
    EXPECT_LT(splitters[0], 175u);
    // The weighted halves balance to within one element's weight.
    double below = 0.0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] < splitters[0]) below += weights[i];
    }
    const double global_below = c.allreduce(below, mpi::OpSum{});
    EXPECT_NEAR(global_below, 300.0, 9.0);
  });
}

TEST(WeightedSplitters, FullRepartitionMatchesSegmentOfKey) {
  // The invariant the incremental path relies on: feeding
  // segment_target_counts to parallel_sort_partition lands every element on
  // exactly the rank segment_of_key names - including ties at splitters.
  run_ranks(4, [](mpi::Comm& c) {
    fcs::Rng rng = fcs::Rng(77).stream(static_cast<std::uint64_t>(c.rank()));
    std::vector<Rec> items(120);
    for (std::size_t i = 0; i < items.size(); ++i)
      items[i] = {rng() % 37,  // heavy duplication forces splitter ties
                  redist::make_index(c.rank(), i)};
    sortlib::sort_by_key(items, rec_key);
    std::vector<std::uint64_t> keys(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) keys[i] = items[i].key;

    const auto splitters = lb::weighted_splitter_keys(c, keys, 1.0, c.size());
    const auto targets = lb::segment_target_counts(c, keys, splitters);
    sortlib::parallel_sort_partition(c, items, rec_key, &targets);

    EXPECT_EQ(items.size(), targets[static_cast<std::size_t>(c.rank())]);
    for (const Rec& r : items)
      EXPECT_EQ(lb::segment_of_key(splitters, r.key),
                static_cast<std::size_t>(c.rank()));
  });
}

// ---------------------------------------------------------------------------
// Incremental migration

TEST(IncrementalMigrate, MovesOnlyBoundaryElements) {
  run_ranks(4, [](mpi::Comm& c) {
    const std::uint64_t r = static_cast<std::uint64_t>(c.rank());
    // Rank r owns keys [r*100, r*100+100); 5 of them drifted into the next
    // segment (wrapping to segment 0 from the last rank).
    std::vector<Rec> items(100);
    for (std::size_t i = 0; i < items.size(); ++i)
      items[i] = {r * 100 + i, redist::make_index(c.rank(), i)};
    for (std::size_t i = 0; i < 5; ++i)
      items[i].key = ((r + 1) % 4) * 100 + i;
    sortlib::sort_by_key(items, rec_key);
    const std::vector<std::uint64_t> splitters = {100, 200, 300};

    // 20 movers of 400 elements = 5%; a 10% budget accepts the migration.
    ASSERT_TRUE(lb::incremental_migrate(c, items, rec_key, splitters, 0.10));
    EXPECT_EQ(items.size(), 100u);
    EXPECT_TRUE(sortlib::is_sorted_by_key(items, rec_key));
    for (const Rec& it : items)
      EXPECT_EQ(lb::segment_of_key(splitters, it.key),
                static_cast<std::size_t>(c.rank()));
  });
}

TEST(IncrementalMigrate, OverBudgetLeavesItemsUntouched) {
  run_ranks(4, [](mpi::Comm& c) {
    const std::uint64_t r = static_cast<std::uint64_t>(c.rank());
    std::vector<Rec> items(100);
    for (std::size_t i = 0; i < items.size(); ++i)
      items[i] = {r * 100 + i, redist::make_index(c.rank(), i)};
    for (std::size_t i = 0; i < 5; ++i)
      items[i].key = ((r + 1) % 4) * 100 + i;
    sortlib::sort_by_key(items, rec_key);
    std::vector<Rec> before = items;

    // 5% movers against a 1% budget: every rank must refuse identically and
    // leave the input byte-for-byte alone.
    ASSERT_FALSE(lb::incremental_migrate(c, items, rec_key,
                                         {100, 200, 300}, 0.01));
    ASSERT_EQ(items.size(), before.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(items[i].key, before[i].key);
      EXPECT_EQ(items[i].payload, before[i].payload);
    }
  });
}

TEST(IncrementalMigrate, AlreadyBalancedSkipsTheExchange) {
  run_ranks(3, [](mpi::Comm& c) {
    const std::uint64_t r = static_cast<std::uint64_t>(c.rank());
    std::vector<Rec> items(50);
    for (std::size_t i = 0; i < items.size(); ++i)
      items[i] = {r * 100 + i, redist::make_index(c.rank(), i)};
    ASSERT_TRUE(
        lb::incremental_migrate(c, items, rec_key, {100, 200}, 0.0));
    EXPECT_EQ(items.size(), 50u);
  });
}

TEST(IncrementalMigrate, ExtremeSkewAllElementsOnOneRank) {
  for (int p : {3, 7, 12}) {
    run_ranks(p, [p](mpi::Comm& c) {
      // Everything sits on rank 0 but belongs all over the key space; the
      // mover fraction is (p-1)/p, so only a budget of 1 accepts it.
      std::vector<Rec> items;
      if (c.rank() == 0) {
        for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(p) * 20; ++i)
          items.push_back({i, redist::make_index(0, i)});
      }
      std::vector<std::uint64_t> splitters;
      for (int s = 1; s < p; ++s)
        splitters.push_back(static_cast<std::uint64_t>(s) * 20);
      ASSERT_TRUE(lb::incremental_migrate(c, items, rec_key, splitters, 1.0));
      EXPECT_EQ(items.size(), 20u);
      for (const Rec& it : items)
        EXPECT_EQ(lb::segment_of_key(splitters, it.key),
                  static_cast<std::size_t>(c.rank()));
    });
  }
}

// ---------------------------------------------------------------------------
// Weighted grid cuts

TEST(WeightedAxisCuts, ClusteredMassShrinksTheCrowdedCells) {
  run_ranks(2, [](mpi::Comm& c) {
    const domain::Box box({0, 0, 0}, {100, 100, 100}, {true, true, true});
    // All mass in x < 25; y and z uniform.
    fcs::Rng rng = fcs::Rng(5).stream(static_cast<std::uint64_t>(c.rank()));
    std::vector<domain::Vec3> pos(2000);
    for (auto& p : pos)
      p = {rng.uniform(0.0, 25.0), rng.uniform(0.0, 100.0),
           rng.uniform(0.0, 100.0)};
    const std::array<int, 3> dims = {4, 4, 1};
    const std::array<double, 3> min_frac = {0.02, 0.02, 0.02};
    const auto cuts = lb::weighted_axis_cuts(c, box, pos, 1.0, dims, min_frac);

    ASSERT_EQ(cuts[0].size(), 3u);
    ASSERT_EQ(cuts[1].size(), 3u);
    EXPECT_TRUE(cuts[2].empty());
    for (std::size_t axis = 0; axis < 2; ++axis) {
      double prev = 0.0;
      for (double v : cuts[axis]) {
        EXPECT_GE(v, prev + min_frac[axis] - 1e-12);
        EXPECT_LT(v, 1.0);
        prev = v;
      }
    }
    // The x quartile cuts all land inside the crowded band; the uniform y
    // cuts stay near the plain quarters.
    EXPECT_LT(cuts[0][2], 0.25 + 1e-6);
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_NEAR(cuts[1][s], 0.25 * static_cast<double>(s + 1), 0.02);
  });
}

TEST(WeightedAxisCuts, InfeasibleMinimumWidthFallsBackToUniform) {
  run_ranks(1, [](mpi::Comm& c) {
    const domain::Box box({0, 0, 0}, {10, 10, 10}, {true, true, true});
    std::vector<domain::Vec3> pos = {{1, 1, 1}, {2, 2, 2}};
    // 4 cells x 0.3 minimum width > 1: the axis must degrade to uniform.
    const auto cuts = lb::weighted_axis_cuts(c, box, pos, 1.0, {4, 1, 1},
                                             {0.3, 0.3, 0.3});
    ASSERT_EQ(cuts[0].size(), 3u);
    EXPECT_DOUBLE_EQ(cuts[0][0], 0.25);
    EXPECT_DOUBLE_EQ(cuts[0][1], 0.50);
    EXPECT_DOUBLE_EQ(cuts[0][2], 0.75);
  });
}

// ---------------------------------------------------------------------------
// Balancer cost model and trigger state machine

TEST(Balancer, HysteresisEngagesAndReleases) {
  run_ranks(4, [](mpi::Comm& c) {
    lb::LbConfig cfg;
    cfg.enabled = true;
    cfg.imbalance_trigger = 1.25;
    cfg.hysteresis = 0.10;
    cfg.cooldown_epochs = 1;
    lb::Balancer bal(cfg);

    // Balanced epoch: ratio 1, no trigger.
    bal.observe(c, 100, 1.0);
    EXPECT_NEAR(bal.imbalance(), 1.0, 1e-12);
    EXPECT_FALSE(bal.should_rebalance());

    // Rank 0 twice as loaded: ratio 2/1.25 = 1.6 >= trigger -> engaged.
    bal.observe(c, 100, c.rank() == 0 ? 2.0 : 1.0);
    EXPECT_NEAR(bal.imbalance(), 1.6, 1e-9);
    EXPECT_TRUE(bal.should_rebalance());
    bal.note_rebalanced();
    EXPECT_FALSE(bal.should_rebalance());  // cooldown not yet elapsed

    // Ratio 1.209: below the trigger but above trigger - hysteresis, so the
    // balancer keeps refining.
    bal.observe(c, 100, c.rank() == 0 ? 1.3 : 1.0);
    EXPECT_GT(bal.imbalance(), 1.15);
    EXPECT_LT(bal.imbalance(), 1.25);
    EXPECT_TRUE(bal.should_rebalance());

    // Fully balanced again: below trigger - hysteresis -> released.
    bal.observe(c, 100, 1.0);
    EXPECT_FALSE(bal.should_rebalance());
  });
}

TEST(Balancer, CooldownSpacesOutPlans) {
  run_ranks(2, [](mpi::Comm& c) {
    lb::LbConfig cfg;
    cfg.enabled = true;
    cfg.imbalance_trigger = 1.1;
    cfg.hysteresis = 0.05;
    cfg.cooldown_epochs = 2;
    lb::Balancer bal(cfg);
    auto imbalanced_epoch = [&]() {
      bal.observe(c, 50, c.rank() == 0 ? 3.0 : 1.0);
    };
    imbalanced_epoch();
    ASSERT_TRUE(bal.should_rebalance());
    bal.note_rebalanced();
    imbalanced_epoch();
    EXPECT_FALSE(bal.should_rebalance());  // 1 epoch since plan < cooldown 2
    imbalanced_epoch();
    EXPECT_TRUE(bal.should_rebalance());
  });
}

TEST(Balancer, EmptyRankAdoptsTheGlobalMeanWeight) {
  run_ranks(3, [](mpi::Comm& c) {
    lb::LbConfig cfg;
    cfg.enabled = true;
    cfg.smoothing = 1.0;  // no memory: weight = last epoch's cost/particle
    lb::Balancer bal(cfg);
    // Rank 2 holds nothing; its weight must come out at the global mean
    // cost per particle (3.0 / 100), not at a degenerate zero.
    bal.observe(c, c.rank() == 2 ? 0 : 50, c.rank() == 2 ? 0.0 : 1.5);
    EXPECT_GT(bal.weight(), 0.0);
    if (c.rank() == 2) {
      EXPECT_NEAR(bal.weight(), 0.03, 1e-12);
    }
  });
}

// ---------------------------------------------------------------------------
// End to end through the fcs layer

md::SimulationResult run_clustered(mpi::Comm& c, const std::string& solver,
                                   bool lb_enabled, int steps) {
  md::SystemConfig sys;
  sys.box = domain::Box({0, 0, 0}, {64, 64, 64}, {true, true, true});
  sys.n_global = 6144;
  sys.distribution = md::InitialDistribution::kClustered;
  sys.cluster_count = 4;
  sys.cluster_sigma = 0.06;
  md::LocalParticles particles = md::generate_system(c, sys);

  fcs::Fcs handle(c, solver);
  handle.set_common(sys.box);
  handle.set_accuracy(1e-3);
  md::SimulationConfig cfg;
  cfg.box = sys.box;
  cfg.steps = steps;
  cfg.resort = true;
  cfg.exploit_max_movement = true;
  cfg.modeled_compute = true;
  cfg.surrogate_motion = true;
  cfg.surrogate_step = 0.05;  // nearly static: the hotspots persist
  cfg.lb.enabled = lb_enabled;
  cfg.lb.imbalance_trigger = 1.05;
  cfg.lb.hysteresis = 0.02;
  return md::run_simulation(c, handle, particles, cfg);
}

TEST(LbEndToEnd, ClusteredFmmImbalanceDropsBelowStatic) {
  md::SimulationResult with_lb, without_lb;
  run_ranks(12, [&](mpi::Comm& c) {
    auto r = run_clustered(c, "fmm", true, 6);
    if (c.rank() == 0) with_lb = std::move(r);
  });
  run_ranks(12, [&](mpi::Comm& c) {
    auto r = run_clustered(c, "fmm", false, 6);
    if (c.rank() == 0) without_lb = std::move(r);
  });
  ASSERT_EQ(with_lb.compute_imbalance.size(), 7u);
  // The balancer needs one observation epoch; from then on the weighted
  // cuts must beat the count-balanced static decomposition.
  const double lb_tail = *std::min_element(
      with_lb.compute_imbalance.begin() + 2, with_lb.compute_imbalance.end());
  const double static_tail = *std::min_element(
      without_lb.compute_imbalance.begin() + 2,
      without_lb.compute_imbalance.end());
  EXPECT_LT(lb_tail, static_tail);
  EXPECT_LT(with_lb.compute_imbalance.back(),
            without_lb.compute_imbalance.front());
}

TEST(LbEndToEnd, SameConfigIsByteIdentical) {
  const auto run_once = [] {
    auto rec = std::make_shared<obs::Recorder>(/*record_spans=*/true);
    sim::EngineConfig ecfg = fcs_test::engine_config(8);
    ecfg.recorder = rec;
    const double makespan = sim::run_spmd(ecfg, [](sim::RankCtx& ctx) {
      mpi::Comm comm = mpi::Comm::world(ctx);
      (void)run_clustered(comm, "fmm", true, 4);
    });
    std::ostringstream metrics;
    obs::write_metrics_json(metrics, {{"lb-run", makespan, rec.get()}});
    return metrics.str();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Balancer, SaveLoadRoundTrip) {
  // The buddy-checkpoint unit: a loaded balancer carries the evolved weight,
  // trigger state, and decomposition plan of the one saved.
  run_ranks(2, [](mpi::Comm& c) {
    lb::LbConfig cfg;
    cfg.enabled = true;
    lb::Balancer bal(cfg);
    bal.observe(c, 100, c.rank() == 0 ? 2.0 : 1.0);  // engages the trigger
    bal.set_splitters({7, 42, 99});
    bal.note_rebalanced();

    const std::vector<std::byte> blob = save_blob(bal);
    lb::Balancer back(cfg);
    fcs::ByteReader reader(blob.data(), blob.size());
    back.load(reader);
    EXPECT_TRUE(reader.done());
    EXPECT_DOUBLE_EQ(back.weight(), bal.weight());
    EXPECT_DOUBLE_EQ(back.imbalance(), bal.imbalance());
    EXPECT_EQ(back.should_rebalance(), bal.should_rebalance());
    ASSERT_TRUE(back.has_splitters());
    EXPECT_EQ(back.splitters(), bal.splitters());
    // Load -> save is the identity on the byte stream.
    EXPECT_EQ(save_blob(back), blob);
  });
}

}  // namespace
