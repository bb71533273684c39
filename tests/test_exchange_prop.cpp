// Property tests for the redistribution layer (redist/exchange_plan.*):
// deterministic randomized distribution functions drive the fused
// ExchangePlan / FusedBatch path and the one-exchange-per-field path over the
// same data (the fused batch on both of its schedules, execute() and the
// slabbed asynchronous one), asserting bit-identical results - including under
// duplicate/ghost targets, empty ranks, self-only traffic, and all-to-one
// hotspots - and checking both against a sequential reference each rank
// computes locally (every input is a pure function of seed, rank and item).
// Supporting invariants: the distribution function is evaluated exactly once
// per item, resort indices stay a valid inverse permutation under ghost
// duplication, and steady-state fcs_run steps allocate nothing in the
// exchange path (pool.alloc stops growing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fcs/fcs.hpp"
#include "md/simulation.hpp"
#include "md/system.hpp"
#include "obs/obs.hpp"
#include "pm/pm_solver.hpp"
#include "redist/atasp.hpp"
#include "redist/exchange_plan.hpp"
#include "redist/resort.hpp"
#include "spmd_test_util.hpp"

using fcs_test::run_ranks;
using redist::ExchangeKind;

namespace {

// Deterministic per-item hash (splitmix64): target choices depend only on
// (seed, rank, item), never on evaluation order, so every re-derivation of a
// distribution sees the same targets.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
std::uint64_t item_hash(std::uint64_t seed, int rank, std::size_t i) {
  return mix(seed ^ mix(static_cast<std::uint64_t>(rank) << 32 | i));
}

// The adversarial distribution shapes of the harness.
enum class Scenario {
  kRandomGhosts,  // random owners, duplicate + ghost targets
  kEmptyRanks,    // only every third rank sends, only even ranks receive
  kSelfOnly,      // all traffic stays local
  kAllToOne       // hotspot: everything lands on rank 0
};

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kRandomGhosts: return "RandomGhosts";
    case Scenario::kEmptyRanks: return "EmptyRanks";
    case Scenario::kSelfOnly: return "SelfOnly";
    case Scenario::kAllToOne: return "AllToOne";
  }
  return "?";
}

std::size_t scenario_items(Scenario s, int rank) {
  if (s == Scenario::kEmptyRanks && rank % 3 != 0) return 0;
  return 40 + 13 * static_cast<std::size_t>(rank % 5);
}

void scenario_targets(Scenario s, int p, int rank, std::size_t i,
                      std::vector<int>& t) {
  const std::uint64_t h = item_hash(7771, rank, i);
  switch (s) {
    case Scenario::kRandomGhosts: {
      const int owner = static_cast<int>(h % static_cast<std::uint64_t>(p));
      t.push_back(owner);
      if ((h >> 8) % 4 == 0) t.push_back((owner + 1) % p);
      if ((h >> 16) % 8 == 0) {
        t.push_back(owner);  // duplicate target: two copies to one rank
        t.push_back((owner + 2) % p);
      }
      break;
    }
    case Scenario::kEmptyRanks: {
      const int half = (p + 1) / 2;
      t.push_back(static_cast<int>(h % static_cast<std::uint64_t>(half)) * 2 %
                  p);
      break;
    }
    case Scenario::kSelfOnly:
      t.push_back(rank);
      break;
    case Scenario::kAllToOne:
      t.push_back(0);
      break;
  }
}

// The three payload fields of one item: 1 x double, 3 x double (Vec3-like),
// 2 x int64 - a pure function of (rank, item).
struct ItemPayload {
  double f1;
  double f3[3];
  std::int64_t i2[2];
};

ItemPayload item_payload(int rank, std::size_t i) {
  const std::uint64_t h = item_hash(99, rank, i);
  ItemPayload v;
  v.f1 = static_cast<double>(h % 100000) * 1e-3;
  for (int k = 0; k < 3; ++k)
    v.f3[k] = static_cast<double>((h >> (8 * k)) & 0xffff);
  v.i2[0] = static_cast<std::int64_t>(h);
  v.i2[1] =
      static_cast<std::int64_t>(rank) << 32 | static_cast<std::int64_t>(i);
  return v;
}

template <class T>
void expect_bytes_equal(const std::vector<T>& a, const std::vector<T>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << what;
  }
}

class ExchangeProp
    : public ::testing::TestWithParam<std::tuple<int, ExchangeKind, Scenario>> {
};

std::string param_name(
    const ::testing::TestParamInfo<ExchangeProp::ParamType>& info) {
  const auto [p, kind, s] = info.param;
  return std::string(scenario_name(s)) +
         (kind == ExchangeKind::kDense ? "Dense" : "Sparse") + "P" +
         std::to_string(p);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExchangeProp,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 12),
                       ::testing::Values(ExchangeKind::kDense,
                                         ExchangeKind::kSparse),
                       ::testing::Values(Scenario::kRandomGhosts,
                                         Scenario::kEmptyRanks,
                                         Scenario::kSelfOnly,
                                         Scenario::kAllToOne)),
    param_name);

// Fused plan applies (single-field and multi-segment FusedBatch) must be
// bit-identical to the legacy one-exchange-per-field path for every
// distribution shape.
TEST_P(ExchangeProp, FusedPathIsBitIdenticalToPerFieldLegacy) {
  const auto [p, kind, scenario] = GetParam();
  run_ranks(p, [p = p, kind = kind, scenario = scenario](mpi::Comm& c) {
    const int r = c.rank();
    const std::size_t n = scenario_items(scenario, r);
    auto dist = [&](std::size_t i, std::vector<int>& t) {
      scenario_targets(scenario, p, r, i, t);
    };

    // Three payload fields of different shapes: 1 x double, 3 x double
    // (Vec3-like), 2 x int64.
    std::vector<double> f1(n), f3(3 * n);
    std::vector<std::int64_t> i2(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const ItemPayload v = item_payload(r, i);
      f1[i] = v.f1;
      std::memcpy(&f3[3 * i], v.f3, sizeof v.f3);
      std::memcpy(&i2[2 * i], v.i2, sizeof v.i2);
    }

    // Sequential reference, no exchange: this rank receives, for each source
    // rank in ascending order and each of its items in ascending order, one
    // copy per occurrence of this rank in the item's target list.
    std::vector<double> want1, want3;
    std::vector<std::int64_t> want2;
    std::vector<int> targets;
    for (int src = 0; src < p; ++src) {
      for (std::size_t i = 0; i < scenario_items(scenario, src); ++i) {
        targets.clear();
        scenario_targets(scenario, p, src, i, targets);
        const ItemPayload v = item_payload(src, i);
        for (const int target : targets) {
          if (target != r) continue;
          want1.push_back(v.f1);
          want3.insert(want3.end(), v.f3, v.f3 + 3);
          want2.insert(want2.end(), v.i2, v.i2 + 2);
        }
      }
    }

    // Legacy reference: one fine-grained exchange per field (item structs).
    struct F1 { double v; };
    struct F3 { double v[3]; };
    struct I2 { std::int64_t v[2]; };
    std::vector<F1> s1(n);
    std::vector<F3> s3(n);
    std::vector<I2> s2(n);
    for (std::size_t i = 0; i < n; ++i) {
      s1[i].v = f1[i];
      std::memcpy(s3[i].v, &f3[3 * i], sizeof s3[i].v);
      std::memcpy(s2[i].v, &i2[2 * i], sizeof s2[i].v);
    }
    auto item_dist = [&](const auto&, std::size_t i, std::vector<int>& t) {
      dist(i, t);
    };
    const std::vector<F1> ref1 =
        redist::fine_grained_redistribute(c, s1, item_dist, kind);
    const std::vector<F3> ref3 =
        redist::fine_grained_redistribute(c, s3, item_dist, kind);
    const std::vector<I2> ref2 =
        redist::fine_grained_redistribute(c, s2, item_dist, kind);

    // Plan path: build once, negotiate counts, apply each field.
    redist::ExchangePlan plan = redist::ExchangePlan::build(c, n, dist, kind);
    plan.negotiate(c);
    ASSERT_EQ(plan.n_recv_total(), ref1.size());
    const std::vector<double> a1 = plan.apply<double>(c, f1.data(), 1);
    const std::vector<double> a3 = plan.apply<double>(c, f3.data(), 3);
    const std::vector<std::int64_t> a2 =
        plan.apply<std::int64_t>(c, i2.data(), 2);
    ASSERT_EQ(a1.size(), ref1.size());
    ASSERT_EQ(a3.size(), 3 * ref3.size());
    ASSERT_EQ(a2.size(), 2 * ref2.size());
    if (!a1.empty()) {  // memcmp must not see the null data() of empty vectors
      EXPECT_EQ(
          std::memcmp(a1.data(), ref1.data(), a1.size() * sizeof(double)), 0);
      EXPECT_EQ(
          std::memcmp(a3.data(), ref3.data(), a3.size() * sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(a2.data(), ref2.data(),
                            a2.size() * sizeof(std::int64_t)),
                0);
    }
    expect_bytes_equal(a1, want1, "plan f1 vs sequential reference");
    expect_bytes_equal(a3, want3, "plan f3 vs sequential reference");
    expect_bytes_equal(a2, want2, "plan i2 vs sequential reference");

    // Fused path: all three fields in ONE message per partner. Outputs alias
    // the inputs, like the fcs resort batch does.
    std::vector<double> g1 = f1, g3 = f3;
    std::vector<std::int64_t> g2 = i2;
    redist::FusedBatch batch(c, plan);
    batch.add(g1, 1, g1);
    batch.add(g3, 3, g3);
    batch.add(g2, 2, g2);
    batch.execute();
    expect_bytes_equal(g1, a1, "fused f1");
    expect_bytes_equal(g3, a3, "fused f3");
    expect_bytes_equal(g2, a2, "fused i2");
    expect_bytes_equal(g1, want1, "fused f1 vs sequential reference");
    expect_bytes_equal(g3, want3, "fused f3 vs sequential reference");
    expect_bytes_equal(g2, want2, "fused i2 vs sequential reference");

    // The slabbed asynchronous schedule of the same batch (the overlapped
    // fcs_run's), at slab counts from one up to more than there are ranks.
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                static_cast<std::size_t>(p) + 1}) {
      SCOPED_TRACE("slabs " + std::to_string(k));
      std::vector<double> h1 = f1, h3 = f3;
      std::vector<std::int64_t> h2 = i2;
      batch.add(h1, 1, h1);
      batch.add(h3, 3, h3);
      batch.add(h2, 2, h2);
      const std::size_t nslabs = batch.async_begin(k);
      ASSERT_EQ(nslabs, std::min(k, static_cast<std::size_t>(p)));
      for (std::size_t i = 0; i < nslabs; ++i) {
        batch.async_pack(i);
        batch.async_start(i).wait();
      }
      batch.async_finish();
      EXPECT_EQ(batch.segment_count(), 0u);
      expect_bytes_equal(h1, g1, "async f1 vs execute");
      expect_bytes_equal(h3, g3, "async f3 vs execute");
      expect_bytes_equal(h2, g2, "async i2 vs execute");
      expect_bytes_equal(h1, want1, "async f1 vs sequential reference");
      expect_bytes_equal(h3, want3, "async f3 vs sequential reference");
      expect_bytes_equal(h2, want2, "async i2 vs sequential reference");
    }

    // Conservation across the communicator.
    const auto slots = c.allreduce(
        static_cast<std::uint64_t>(plan.n_send_slots()), mpi::OpSum{});
    const auto recvd = c.allreduce(
        static_cast<std::uint64_t>(plan.n_recv_total()), mpi::OpSum{});
    EXPECT_EQ(slots, recvd);
  });
}

// An exchange plan is reusable: applying the same plan repeatedly (the
// steady-state fcs_run shape) keeps producing the identical bytes, and only
// the first acquire of each staging buffer may allocate.
TEST_P(ExchangeProp, RepeatedAppliesAreStableAndStopAllocating) {
  const auto [p, kind, scenario] = GetParam();
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig ecfg = fcs_test::engine_config(p);
  ecfg.recorder = rec;
  sim::run_spmd(ecfg, [&, p = p, kind = kind,
                       scenario = scenario](sim::RankCtx& ctx) {
    mpi::Comm c = mpi::Comm::world(ctx);
    const int r = c.rank();
    const std::size_t n = scenario_items(scenario, r);
    auto dist = [&](std::size_t i, std::vector<int>& t) {
      scenario_targets(scenario, p, r, i, t);
    };
    std::vector<double> data(3 * n);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<double>(item_hash(5, r, i));

    redist::ExchangePlan plan = redist::ExchangePlan::build(c, n, dist, kind);
    plan.negotiate(c);
    obs::RankObs* const o = ctx.obs();
    std::vector<double> first;
    for (int step = 0; step < 8; ++step) {
      if (o != nullptr) o->set_epoch(step);
      const std::vector<double> out = plan.apply<double>(c, data.data(), 3);
      if (step == 0)
        first = out;
      else
        expect_bytes_equal(out, first, "repeated apply");
    }
  });
  // The staging buffers are acquired from the communicator pool; after the
  // first two applies every acquire must be a reuse.
  const auto reduced = rec->reduce_counters();
  const auto it = reduced.find("pool.alloc");
  if (it != reduced.end()) {
    for (const auto& [epoch, summary] : it->second.by_epoch) {
      if (epoch >= 2) {
        EXPECT_EQ(summary.sum, 0.0) << "pool.alloc grew in epoch " << epoch;
      }
    }
  }
}

// Satellite: the distribution function is evaluated exactly once per item -
// the plan caches the targets instead of re-deriving them for the
// pack/count/offset passes.
TEST(ExchangeProp, DistributionFunctionRunsExactlyOncePerItem) {
  for (const ExchangeKind kind :
       {ExchangeKind::kDense, ExchangeKind::kSparse}) {
    run_ranks(3, [kind](mpi::Comm& c) {
      const std::size_t n = 57;
      std::vector<double> items(n);
      for (std::size_t i = 0; i < n; ++i)
        items[i] = static_cast<double>(item_hash(11, c.rank(), i));
      std::vector<int> calls(n, 0);
      auto counted = redist::fine_grained_redistribute(
          c, items,
          [&](const double&, std::size_t i, std::vector<int>& t) {
            ++calls[i];
            t.push_back(static_cast<int>(
                item_hash(12, c.rank(), i) % static_cast<std::uint64_t>(
                                                 c.size())));
            if (item_hash(13, c.rank(), i) % 3 == 0)
              t.push_back(c.rank());  // occasional ghost copy
          },
          kind);
      (void)counted;
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(calls[i], 1) << "item " << i;
    });
  }
}

// Ghost duplication in the primary exchange must not corrupt the resort
// machinery: the owned copies' origin indices invert into a valid
// permutation, the zero-communication ResortPlan accepts them, and both the
// per-field plan resort and the fused batch reproduce the index-addressed
// resort_values bytes - and the sequential reference: the value at current
// position j is the field value of original particle origin[j].
TEST_P(ExchangeProp, ResortIndicesStayInversePermutationUnderGhosts) {
  const auto [p, kind, scenario] = GetParam();
  if (scenario != Scenario::kRandomGhosts) GTEST_SKIP();
  run_ranks(p, [p = p, kind = kind](mpi::Comm& c) {
    const int r = c.rank();
    const std::size_t n = 30 + 7 * static_cast<std::size_t>(r % 4);
    struct P {
      double x;
      std::uint64_t origin;
    };
    std::vector<P> items(n);
    for (std::size_t i = 0; i < n; ++i)
      items[i] = {static_cast<double>(item_hash(31, r, i)),
                  redist::make_index(r, i)};
    // Exactly one OWNER target per item plus ghost copies; ownership is
    // recomputable from the origin, so received copies sort themselves into
    // owned vs ghost without side channels.
    auto owner_of = [p](std::uint64_t origin) {
      return static_cast<int>(mix(origin) % static_cast<std::uint64_t>(p));
    };
    const std::vector<P> received = redist::fine_grained_redistribute(
        c, items,
        [&](const P& pt, std::size_t, std::vector<int>& t) {
          const int owner = owner_of(pt.origin);
          t.push_back(owner);
          if (p > 1 && mix(pt.origin ^ 0xabcd) % 3 == 0)
            t.push_back((owner + 1) % p);  // ghost copy
        },
        kind);

    std::vector<std::uint64_t> origin_of_current;
    for (const P& pt : received)
      if (owner_of(pt.origin) == r) origin_of_current.push_back(pt.origin);

    const std::vector<std::uint64_t> resort_indices =
        redist::invert_origin_indices(c, origin_of_current, n, kind);
    const redist::ResortPlan rp =
        redist::ResortPlan::build(c, resort_indices, origin_of_current, kind);
    ASSERT_TRUE(rp.valid());
    ASSERT_EQ(rp.n_changed(), origin_of_current.size());

    // Every original particle names exactly one target, and round-tripping a
    // field through the plan matches the index-addressed resort bitwise.
    // field_value(src, i, k): component k of original particle i on `src`.
    auto field_value = [](int src, std::size_t i, std::size_t k) {
      return static_cast<double>(item_hash(32, src, 2 * i + k)) * 1e-6;
    };
    std::vector<double> field(2 * n);
    for (std::size_t i = 0; i < field.size(); ++i)
      field[i] = field_value(r, i / 2, i % 2);
    // Sequential reference for the resorted field, from the origin indices
    // alone.
    std::vector<double> want(2 * origin_of_current.size());
    for (std::size_t j = 0; j < origin_of_current.size(); ++j)
      for (std::size_t k = 0; k < 2; ++k)
        want[2 * j + k] =
            field_value(redist::index_rank(origin_of_current[j]),
                        redist::index_pos(origin_of_current[j]), k);
    std::vector<double> want_b(origin_of_current.size());
    for (std::size_t j = 0; j < want_b.size(); ++j) want_b[j] = want[2 * j + 1];
    const std::vector<double> legacy = redist::resort_values(
        c, resort_indices, field, 2, rp.n_changed(), kind);
    const std::vector<double> planned = rp.resort(c, field, 2);
    expect_bytes_equal(planned, legacy, "resort plan vs resort_values");
    expect_bytes_equal(legacy, want, "resort_values vs sequential reference");
    expect_bytes_equal(planned, want, "resort plan vs sequential reference");

    std::vector<double> fused = field;
    std::vector<double> field_b(n);
    for (std::size_t i = 0; i < n; ++i) field_b[i] = field[2 * i + 1];
    const std::vector<double> legacy_b = redist::resort_values(
        c, resort_indices, field_b, 1, rp.n_changed(), kind);
    std::vector<double> fused_b = field_b;
    redist::FusedBatch batch(c, rp.plan(), rp.placement());
    batch.add(fused, 2, fused);
    batch.add(fused_b, 1, fused_b);
    batch.execute();
    expect_bytes_equal(fused, legacy, "fused resort field 1");
    expect_bytes_equal(fused_b, legacy_b, "fused resort field 2");
    expect_bytes_equal(fused, want, "fused field 1 vs sequential reference");
    expect_bytes_equal(fused_b, want_b,
                       "fused field 2 vs sequential reference");

    // The placement really is a permutation: every current element claimed.
    std::vector<char> hit(rp.n_changed(), 0);
    for (std::size_t k = 0; k < rp.n_changed(); ++k) {
      ASSERT_LT(rp.placement()[k], rp.n_changed());
      ASSERT_FALSE(hit[rp.placement()[k]]);
      hit[rp.placement()[k]] = 1;
    }
  });
}

// ---------------------------------------------------------------------------
// Allocation regression over full fcs_run steps: once warmed up, the fused
// exchange path performs zero heap allocations - pool.alloc stops growing -
// for both the dense (fixed:B) and sparse (fixed:B+mm neighborhood) paths.

md::SystemConfig prop_system() {
  md::SystemConfig sys;
  sys.box = domain::Box({0, 0, 0}, {16, 16, 16}, {true, true, true});
  sys.n_global = 512;
  sys.distribution = md::InitialDistribution::kRandom;
  return sys;
}

double pool_alloc_after_warmup(const std::string& plan_spec, int steps,
                               int warmup) {
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig ecfg = fcs_test::engine_config(8);
  ecfg.stack_bytes = 512 * 1024;
  ecfg.recorder = rec;
  sim::Engine engine(ecfg);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm = mpi::Comm::world(ctx);
    const md::SystemConfig sys = prop_system();
    md::LocalParticles particles = md::generate_system(comm, sys);
    fcs::Fcs handle(comm, "pm");
    handle.set_common(sys.box);
    handle.set_accuracy(1e-3);
    auto& pm_solver = dynamic_cast<pm::PmSolver&>(handle.solver());
    pm_solver.set_cutoff(1.5);
    pm_solver.set_mesh(16);
    md::SimulationConfig cfg;
    cfg.steps = steps;
    cfg.modeled_compute = true;
    cfg.surrogate_motion = true;
    cfg.surrogate_step = 0.1;
    cfg.box = sys.box;
    cfg.plan = plan::parse_plan_spec(plan_spec);
    (void)md::run_simulation(comm, handle, particles, cfg);
  });
  const auto reduced = rec->reduce_counters();
  // Sanity: the fused path actually ran.
  const auto fused = reduced.find("redist.fused.batches");
  EXPECT_TRUE(fused != reduced.end() && fused->second.totals.sum > 0.0)
      << plan_spec;
  double late = 0.0;
  if (const auto it = reduced.find("pool.alloc"); it != reduced.end())
    for (const auto& [epoch, summary] : it->second.by_epoch)
      if (epoch > warmup) late += summary.sum;
  return late;
}

TEST(ExchangeProp, SteadyStateRunsDoNotAllocateDense) {
  EXPECT_EQ(pool_alloc_after_warmup("fixed:B", 14, 7), 0.0);
}

TEST(ExchangeProp, SteadyStateRunsDoNotAllocateSparse) {
  EXPECT_EQ(pool_alloc_after_warmup("fixed:B+mm,merge,neighborhood", 14, 7),
            0.0);
}

}  // namespace
