// Property tests for carried fields: caller vectors riding a solver's own
// redistribution exchange as sortlib::CarrySet columns. Randomized field
// sets (two 24-byte columns plus 0-6 extra fields of 8-48 bytes) ride the
// carried exchange across rank counts and dense/sparse negotiation,
// asserting it is bit-identical to the one-exchange-per-field plan path,
// that resort indices derived from the carried exchange stay a valid
// inverse permutation, and that sending every row home with resort_values
// round-trips every column bitwise. Simulations that carry their staged
// integrator fields match the ResortBatch path's checksum and stay
// zero-alloc in the steady state. A double-walk audit proves the
// distribution callback runs exactly once per particle when staged fields
// share one fused batch and every row is delivered exactly once, and a
// fuzzed CarrySet::permute moves every column's rows coherently.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "fcs/fcs.hpp"
#include "md/simulation.hpp"
#include "md/system.hpp"
#include "obs/obs.hpp"
#include "pm/pm_solver.hpp"
#include "redist/exchange_plan.hpp"
#include "redist/resort.hpp"
#include "sortlib/carry.hpp"
#include "spmd_test_util.hpp"

using fcs_test::run_ranks;
using redist::ExchangeKind;

namespace {

// Deterministic per-item hash (splitmix64), same scheme as the exchange
// property harness: values depend only on (seed, rank, item).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
std::uint64_t item_hash(std::uint64_t seed, int rank, std::size_t i) {
  return mix(seed ^ mix(static_cast<std::uint64_t>(rank) << 32 | i));
}

// Randomized-but-deterministic field sets: two 24-byte columns (like
// velocities and accelerations) plus extra fields whose count (0..6) and
// widths the seed decides. Every field is a vector of 8-byte lanes: 1-3
// lanes for scalar-like fields, 3 or 6 for Vec3-like ones, so row widths run
// from 8 to 48 bytes (the 48-byte rows exercise the generic gather fallback
// next to the 8/16/24/32 fast paths).
std::vector<std::size_t> field_lanes(std::uint64_t seed) {
  std::vector<std::size_t> lanes = {3, 3};
  const std::size_t count = (seed * 5 + 3) % 7;
  for (std::size_t f = 0; f < count; ++f) {
    const std::uint64_t h = item_hash(seed ^ 0xF00D, 0, f);
    lanes.push_back(h % 4 == 3 ? 3 * (1 + (h >> 8) % 2) : 1 + (h >> 8) % 3);
  }
  return lanes;
}

class CarryProp
    : public ::testing::TestWithParam<std::tuple<int, ExchangeKind, int>> {};

std::string param_name(
    const ::testing::TestParamInfo<CarryProp::ParamType>& info) {
  const auto [p, kind, seed] = info.param;
  return std::string("Fields") + std::to_string((seed * 5 + 3) % 7) +
         (kind == ExchangeKind::kDense ? "Dense" : "Sparse") + "P" +
         std::to_string(p);
}

// Seeds chosen so the extra-field counts cover 0 (the two 24-byte columns
// only), 1, the maximum 6, and a mixed middle value.
INSTANTIATE_TEST_SUITE_P(
    Shapes, CarryProp,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 12),
                       ::testing::Values(ExchangeKind::kDense,
                                         ExchangeKind::kSparse),
                       ::testing::Values(0, 1, 2, 5)),
    param_name);

// The carried exchange (one alltoallv shipping every column next to the
// items) must be bit-identical to the per-field path (one ExchangePlan
// apply per field), the origin indices it delivers must invert into a valid
// resort permutation, and resort_values must send every row home to the
// original bytes.
TEST_P(CarryProp, CarriedExchangeMatchesPerFieldPlanBitwise) {
  const auto [p, kind, seed] = GetParam();
  run_ranks(p, [p = p, kind = kind, seed = seed](mpi::Comm& c) {
    const int r = c.rank();
    // Some ranks hold nothing so empty send/recv sides are exercised too.
    const std::size_t n = (p > 2 && r % 3 == 2)
                              ? 0
                              : 40 + 13 * static_cast<std::size_t>(r % 5) +
                                    static_cast<std::size_t>(seed);

    // Fill every column with deterministic 8-byte lanes and snapshot the
    // originals.
    const std::vector<std::size_t> lanes =
        field_lanes(static_cast<std::uint64_t>(seed));
    std::vector<std::vector<std::uint64_t>> cols(lanes.size());
    for (std::size_t f = 0; f < cols.size(); ++f) {
      cols[f].resize(n * lanes[f]);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t w = 0; w < lanes[f]; ++w)
          cols[f][i * lanes[f] + w] =
              item_hash(static_cast<std::uint64_t>(seed) * 131 + f, r,
                        i * 64 + w);
    }
    const std::vector<std::vector<std::uint64_t>> snap = cols;

    std::vector<std::uint64_t> origins(n);
    for (std::size_t i = 0; i < n; ++i) origins[i] = redist::make_index(r, i);
    auto target_of = [p = p, r, seed = seed](std::size_t i) {
      return static_cast<int>(item_hash(777 + static_cast<std::uint64_t>(seed),
                                        r, i) %
                              static_cast<std::uint64_t>(p));
    };
    auto dist = [&](std::size_t i, std::vector<int>& t) {
      t.push_back(target_of(i));
    };

    // Per-field reference: one plan apply per field (from the snapshots -
    // the columns are overwritten by the carried exchange below).
    redist::ExchangePlan plan = redist::ExchangePlan::build(c, n, dist, kind);
    plan.negotiate(c);
    const std::vector<std::uint64_t> ref_origin =
        plan.apply<std::uint64_t>(c, origins.data(), 1);
    std::vector<std::vector<std::uint64_t>> ref(cols.size());
    for (std::size_t f = 0; f < cols.size(); ++f)
      ref[f] = plan.apply<std::uint64_t>(c, snap[f].data(), lanes[f]);

    // Carried path: ONE exchange ships the origin items plus every column.
    // Slots are packed destination-major in stable item order, exactly like
    // the plan's pack.
    std::vector<std::size_t> dest_counts(static_cast<std::size_t>(p), 0);
    for (std::size_t i = 0; i < n; ++i)
      ++dest_counts[static_cast<std::size_t>(target_of(i))];
    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    for (int d = 1; d < p; ++d)
      cursor[static_cast<std::size_t>(d)] =
          cursor[static_cast<std::size_t>(d) - 1] +
          dest_counts[static_cast<std::size_t>(d) - 1];
    std::vector<std::uint32_t> slot_src(n);
    for (std::size_t i = 0; i < n; ++i)
      slot_src[cursor[static_cast<std::size_t>(target_of(i))]++] =
          static_cast<std::uint32_t>(i);

    sortlib::CarrySet carry;
    for (std::size_t f = 0; f < cols.size(); ++f)
      carry.cols.push_back(sortlib::carry_column(cols[f], lanes[f]));
    std::vector<std::byte> out_items;
    sortlib::carry_exchange(
        c, kind == ExchangeKind::kSparse,
        reinterpret_cast<const std::byte*>(origins.data()),
        sizeof(std::uint64_t), n, dest_counts, slot_src.data(),
        /*col_src=*/nullptr, carry, out_items);

    const std::size_t nr = out_items.size() / sizeof(std::uint64_t);
    ASSERT_EQ(nr, ref_origin.size());
    if (nr > 0) {
      EXPECT_EQ(std::memcmp(out_items.data(), ref_origin.data(),
                            nr * sizeof(std::uint64_t)),
                0)
          << "carried origin items";
    }
    for (std::size_t f = 0; f < cols.size(); ++f) {
      ASSERT_EQ(ref[f].size(), nr * lanes[f]) << "field " << f;
      ASSERT_EQ(cols[f].size(), nr * lanes[f]) << "field " << f;
      if (nr > 0) {
        EXPECT_EQ(std::memcmp(cols[f].data(), ref[f].data(),
                              nr * lanes[f] * sizeof(std::uint64_t)),
                  0)
            << "carried column " << f;
      }
    }

    // The delivered origins invert into a valid resort permutation: the
    // zero-communication ResortPlan accepts them and its placement claims
    // every current element exactly once.
    std::vector<std::uint64_t> recv_origin(nr);
    if (nr > 0)
      std::memcpy(recv_origin.data(), out_items.data(),
                  nr * sizeof(std::uint64_t));
    const std::vector<std::uint64_t> resort_indices =
        redist::invert_origin_indices(c, recv_origin, n, kind);
    ASSERT_EQ(resort_indices.size(), n);
    const redist::ResortPlan rp =
        redist::ResortPlan::build(c, resort_indices, recv_origin, kind);
    ASSERT_TRUE(rp.valid());
    ASSERT_EQ(rp.n_changed(), nr);
    std::vector<char> hit(nr, 0);
    for (std::size_t k = 0; k < nr; ++k) {
      ASSERT_LT(rp.placement()[k], nr);
      ASSERT_FALSE(hit[rp.placement()[k]]);
      hit[rp.placement()[k]] = 1;
    }

    // Round trip: sending every carried row back to its origin restores the
    // exact original bytes of every column.
    for (std::size_t f = 0; f < cols.size(); ++f) {
      cols[f] = redist::resort_values(c, recv_origin, cols[f], lanes[f], n,
                                      kind);
      ASSERT_EQ(cols[f].size(), snap[f].size()) << "restored column " << f;
      if (n > 0) {
        EXPECT_EQ(std::memcmp(cols[f].data(), snap[f].data(),
                              n * lanes[f] * sizeof(std::uint64_t)),
                  0)
            << "restored column " << f;
      }
    }

    // Conservation across the communicator.
    const auto sent = c.allreduce(static_cast<std::uint64_t>(n), mpi::OpSum{});
    const auto recvd =
        c.allreduce(static_cast<std::uint64_t>(nr), mpi::OpSum{});
    EXPECT_EQ(sent, recvd);
  });
}

// Double-walk audit for fields that share one fused batch (the route of a
// staged field the solver cannot carry): queuing caller vectors into a
// FusedBatch evaluates the distribution callback exactly once per particle
// (the plan caches targets for the count/pack passes), and every row is
// delivered exactly once - tags stay unique and their totals conserved.
TEST(CarryProp, DistributionRunsOnceAndEachRowShipsExactlyOnce) {
  for (const ExchangeKind kind :
       {ExchangeKind::kDense, ExchangeKind::kSparse}) {
    run_ranks(3, [kind](mpi::Comm& c) {
      const int r = c.rank();
      const std::size_t n = 41 + 7 * static_cast<std::size_t>(r);
      // Globally unique, exactly-representable tags per (row, field).
      auto tag = [r](std::size_t i) {
        return static_cast<double>(r) * 1.0e6 + static_cast<double>(i);
      };
      std::vector<domain::Vec3> v(n), a(n);
      std::vector<double> q(n);
      double local_pre = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = {tag(i), 1.0, 2.0};
        a[i] = {tag(i) + 0.5, 3.0, 4.0};
        q[i] = tag(i) + 0.25;
        local_pre += v[i].x + a[i].x + q[i];
      }

      std::vector<int> calls(n, 0);
      auto dist = [&](std::size_t i, std::vector<int>& t) {
        ++calls[i];
        t.push_back(static_cast<int>(item_hash(5, r, i) % 3));
      };
      redist::ExchangePlan plan = redist::ExchangePlan::build(c, n, dist, kind);
      plan.negotiate(c);
      redist::FusedBatch batch(c, plan);
      batch.add(v, 1, v);
      batch.add(a, 1, a);
      batch.add(q, 1, q);
      batch.execute();

      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(calls[i], 1) << "item " << i;

      const std::size_t nr = plan.n_recv_total();
      ASSERT_EQ(v.size(), nr);
      ASSERT_EQ(a.size(), nr);
      ASSERT_EQ(q.size(), nr);
      std::set<double> seen;
      double local_post = 0.0;
      for (std::size_t k = 0; k < nr; ++k) {
        EXPECT_TRUE(seen.insert(v[k].x).second) << "duplicate row " << k;
        local_post += v[k].x + a[k].x + q[k];
      }
      // Tag sums are integers scaled by dyadic fractions, so the double
      // reductions are exact: equality means every row arrived exactly once.
      const double pre = c.allreduce(local_pre, mpi::OpSum{});
      const double post = c.allreduce(local_post, mpi::OpSum{});
      EXPECT_EQ(pre, post);
      const auto sent =
          c.allreduce(static_cast<std::uint64_t>(n), mpi::OpSum{});
      const auto recvd =
          c.allreduce(static_cast<std::uint64_t>(nr), mpi::OpSum{});
      EXPECT_EQ(sent, recvd);
    });
  }
}

// Full-simulation bit-identity: the same run with the integrator fields
// carried by the solver (stage_fields) and resorted by a ResortBatch after
// each run produces the identical rank-local state checksum for both
// solvers (carrying is a pure transport change).
TEST(CarryProp, CarriedSimulationMatchesResortBatchChecksum) {
  for (const char* solver : {"fmm", "pm"}) {
    run_ranks(6, [solver](mpi::Comm& c) {
      auto run_once = [&](bool stage_fields) {
        md::SystemConfig sys;
        sys.box = domain::Box({0, 0, 0}, {16, 16, 16}, {true, true, true});
        sys.n_global = 1024;
        sys.distribution = md::InitialDistribution::kRandom;
        md::LocalParticles particles = md::generate_system(c, sys);
        fcs::Fcs handle(c, solver);
        handle.set_common(sys.box);
        handle.set_accuracy(1e-3);
        if (std::string(solver) == "pm") {
          auto& pm_solver = dynamic_cast<pm::PmSolver&>(handle.solver());
          pm_solver.set_cutoff(1.5);
          pm_solver.set_mesh(16);
        }
        md::SimulationConfig cfg;
        cfg.box = sys.box;
        cfg.steps = 4;
        cfg.resort = true;
        cfg.modeled_compute = true;
        cfg.surrogate_motion = true;
        cfg.surrogate_step = 0.1;
        cfg.extra_vec3_fields = 2;
        cfg.stage_fields = stage_fields;
        const md::SimulationResult res =
            md::run_simulation(c, handle, particles, cfg);
        return res.state_checksum;
      };
      const std::uint64_t batched = run_once(false);
      const std::uint64_t carried = run_once(true);
      EXPECT_EQ(batched, carried) << solver;
    });
  }
}

// ---------------------------------------------------------------------------
// Steady-state allocation regression: fcs_run steps with staged fields
// allocate nothing from the buffer pool once warmed up, and the route under
// test actually runs.

double staged_pool_alloc_after_warmup(const std::string& plan_spec, int steps,
                                     int warmup, const char* carry_counter) {
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig ecfg = fcs_test::engine_config(8);
  ecfg.stack_bytes = 512 * 1024;
  ecfg.recorder = rec;
  sim::Engine engine(ecfg);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm = mpi::Comm::world(ctx);
    md::SystemConfig sys;
    sys.box = domain::Box({0, 0, 0}, {16, 16, 16}, {true, true, true});
    sys.n_global = 512;
    sys.distribution = md::InitialDistribution::kRandom;
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
    cfg.stage_fields = true;
    cfg.extra_vec3_fields = 2;
    cfg.plan = plan::parse_plan_spec(plan_spec);
    (void)md::run_simulation(comm, handle, particles, cfg);
  });
  const auto reduced = rec->reduce_counters();
  // Sanity: the route under test actually ran.
  const auto it_sanity = reduced.find(carry_counter);
  EXPECT_TRUE(it_sanity != reduced.end() && it_sanity->second.totals.sum > 0.0)
      << plan_spec << " never hit " << carry_counter;
  double late = 0.0;
  if (const auto it = reduced.find("pool.alloc"); it != reduced.end())
    for (const auto& [epoch, summary] : it->second.by_epoch)
      if (epoch > warmup) late += summary.sum;
  return late;
}

TEST(CarryProp, CarriedSteadyStateRunsDoNotAllocateDense) {
  EXPECT_EQ(staged_pool_alloc_after_warmup("fixed:B", 14, 7,
                                           "redist.carry.exchanges"),
            0.0);
}

TEST(CarryProp, CarriedSteadyStateRunsDoNotAllocateSparse) {
  EXPECT_EQ(staged_pool_alloc_after_warmup("fixed:B+mm,merge,neighborhood",
                                           14, 7, "redist.fused.batches"),
            0.0);
}

// Fuzzed permutations move every column's rows coherently.
TEST(CarryProp, PermuteMovesEveryColumnRowCoherently) {
  const std::size_t n = 257;
  std::vector<domain::Vec3> vel(n);
  std::vector<std::uint64_t> q(n);
  for (std::size_t i = 0; i < n; ++i) {
    vel[i] = {0, static_cast<double>(i), 0};
    q[i] = i ^ 0xabcdULL;
  }
  std::vector<std::byte> scratch;
  sortlib::CarrySet carry;
  carry.scratch = &scratch;
  carry.cols.push_back(sortlib::carry_column(vel, 1));
  carry.cols.push_back(sortlib::carry_column(q, 1));
  // Deterministic Fisher-Yates shuffle.
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::uint64_t h = 42;
  for (std::size_t i = n - 1; i > 0; --i) {
    h = mix(h);
    std::swap(order[i], order[h % (i + 1)]);
  }
  carry.permute(order.data(), n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto src = static_cast<std::size_t>(order[k]);
    EXPECT_EQ(vel[k].y, static_cast<double>(src));
    EXPECT_EQ(q[k], src ^ 0xabcdULL);
  }
}

}  // namespace
