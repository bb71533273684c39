// Property and fuzz tests for the columnar particle store (src/store):
// randomized field sets (0-6 extra fields of mixed widths) ride the carried
// solver exchange across rank counts and dense/sparse negotiation, asserting
// the store-backed redistribution is bit-identical to the legacy
// one-exchange-per-field plan path, that resort indices derived from the
// carried exchange stay a valid inverse permutation, that restoring the
// payload round-trips every column bitwise, and that store-backed fcs_run
// steps stay zero-alloc in the steady state. A deterministic fuzz driver
// exercises the FieldRegistry / column-view error paths (duplicate or empty
// registration, zero-width fields, unregistered lookups, view width
// mismatches, late registration) and grow/shrink cycles (prefix survives,
// new rows zero, capacity monotone). A double-walk audit proves the
// distribution callback runs exactly once per particle in the store path and
// every column row is delivered exactly once.
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
#include "store/particle_store.hpp"
#include "support/error.hpp"

using fcs_test::run_ranks;
using redist::ExchangeKind;
using store::FieldType;
using store::ParticleStore;

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

// Randomized-but-deterministic field sets: the seed decides how many extra
// fields exist (0..6) and each field's type and component count, covering
// every FieldType and row widths from 8 to 48 bytes (the 48-byte rows
// exercise the generic gather fallback next to the 8/16/24/32 fast paths).
struct FieldDef {
  FieldType type;
  std::size_t components;
};

std::vector<FieldDef> field_defs(std::uint64_t seed) {
  const std::size_t count = (seed * 5 + 3) % 7;
  std::vector<FieldDef> defs;
  for (std::size_t f = 0; f < count; ++f) {
    const std::uint64_t h = item_hash(seed ^ 0xF00D, 0, f);
    FieldDef d;
    switch (h % 4) {
      case 0: d.type = FieldType::kF64; break;
      case 1: d.type = FieldType::kI64; break;
      case 2: d.type = FieldType::kU64; break;
      default: d.type = FieldType::kVec3; break;
    }
    d.components = d.type == FieldType::kVec3 ? 1 + (h >> 8) % 2
                                              : 1 + (h >> 8) % 3;
    defs.push_back(d);
  }
  return defs;
}

class StoreProp
    : public ::testing::TestWithParam<std::tuple<int, ExchangeKind, int>> {};

std::string param_name(
    const ::testing::TestParamInfo<StoreProp::ParamType>& info) {
  const auto [p, kind, seed] = info.param;
  return std::string("Fields") + std::to_string((seed * 5 + 3) % 7) +
         (kind == ExchangeKind::kDense ? "Dense" : "Sparse") + "P" +
         std::to_string(p);
}

// Seeds chosen so the extra-field counts cover 0 (builtin-only), 1, the
// maximum 6, and a mixed middle value.
INSTANTIATE_TEST_SUITE_P(
    Shapes, StoreProp,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 12),
                       ::testing::Values(ExchangeKind::kDense,
                                         ExchangeKind::kSparse),
                       ::testing::Values(0, 1, 2, 5)),
    param_name);

// The carried store exchange (one alltoallv shipping every payload column
// next to the items) must be bit-identical to the legacy path (one
// ExchangePlan apply per field), the origin indices it delivers must invert
// into a valid resort permutation, and restore_payload must round-trip every
// column back to the original bytes.
TEST_P(StoreProp, CarriedExchangeMatchesPerFieldPlanBitwise) {
  const auto [p, kind, seed] = GetParam();
  run_ranks(p, [p = p, kind = kind, seed = seed](mpi::Comm& c) {
    const int r = c.rank();
    // Some ranks hold nothing so empty send/recv sides are exercised too.
    const std::size_t n = (p > 2 && r % 3 == 2)
                              ? 0
                              : 40 + 13 * static_cast<std::size_t>(r % 5) +
                                    static_cast<std::size_t>(seed);

    ParticleStore st;
    const std::vector<FieldDef> defs =
        field_defs(static_cast<std::uint64_t>(seed));
    for (std::size_t f = 0; f < defs.size(); ++f)
      st.register_field("x" + std::to_string(f), defs[f].type,
                        defs[f].components);
    st.resize(n);

    // Payload columns = everything except positions and Morton keys.
    std::vector<std::size_t> payload_ids;
    for (std::size_t id = 0; id < st.field_count(); ++id)
      if (id != ParticleStore::kPos && id != ParticleStore::kKey)
        payload_ids.push_back(id);
    ASSERT_EQ(payload_ids.size(), st.payload_fields());

    // Fill every payload column with deterministic 8-byte lanes (all field
    // widths are multiples of 8) and snapshot the originals.
    std::vector<std::vector<std::byte>> snap(st.field_count());
    for (const std::size_t id : payload_ids) {
      const std::size_t lanes = st.item_bytes(id) / 8;
      std::uint64_t* q = reinterpret_cast<std::uint64_t*>(st.raw(id));
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t w = 0; w < lanes; ++w)
          q[i * lanes + w] =
              item_hash(static_cast<std::uint64_t>(seed) * 131 + id, r,
                        i * 64 + w);
      snap[id].assign(st.raw(id), st.raw(id) + n * st.item_bytes(id));
    }

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

    // Legacy reference: one plan apply per field (from the snapshots - the
    // store columns are overwritten by the carried exchange below).
    redist::ExchangePlan plan = redist::ExchangePlan::build(c, n, dist, kind);
    plan.negotiate(c);
    const std::vector<std::uint64_t> ref_origin =
        plan.apply<std::uint64_t>(c, origins.data(), 1);
    std::vector<std::vector<std::uint64_t>> ref(st.field_count());
    for (const std::size_t id : payload_ids)
      ref[id] = plan.apply<std::uint64_t>(
          c, reinterpret_cast<const std::uint64_t*>(snap[id].data()),
          st.item_bytes(id) / 8);

    // Store path: ONE carried exchange ships the origin items plus every
    // payload column. Slots are packed destination-major in stable item
    // order, exactly like the plan's pack.
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

    std::vector<std::byte> out_items;
    sortlib::carry_exchange(
        c, kind == ExchangeKind::kSparse,
        reinterpret_cast<const std::byte*>(origins.data()),
        sizeof(std::uint64_t), n, dest_counts, slot_src.data(),
        /*col_src=*/nullptr, st.exchange_columns(), out_items);

    const std::size_t nr = out_items.size() / sizeof(std::uint64_t);
    ASSERT_EQ(nr, ref_origin.size());
    if (nr > 0) {
      EXPECT_EQ(std::memcmp(out_items.data(), ref_origin.data(),
                            nr * sizeof(std::uint64_t)),
                0)
          << "carried origin items";
    }
    for (const std::size_t id : payload_ids) {
      ASSERT_EQ(ref[id].size() * 8, nr * st.item_bytes(id)) << "field " << id;
      if (nr > 0) {
        EXPECT_EQ(std::memcmp(st.raw(id), ref[id].data(),
                              nr * st.item_bytes(id)),
                  0)
            << "carried column " << id;
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
    // exact original bytes of every payload column.
    st.restore_payload(c, recv_origin, n, kind);
    for (const std::size_t id : payload_ids) {
      if (n > 0) {
        EXPECT_EQ(std::memcmp(st.raw(id), snap[id].data(),
                              n * st.item_bytes(id)),
                  0)
            << "restored column " << id;
      }
    }

    // Conservation across the communicator.
    const auto sent = c.allreduce(static_cast<std::uint64_t>(n), mpi::OpSum{});
    const auto recvd =
        c.allreduce(static_cast<std::uint64_t>(nr), mpi::OpSum{});
    EXPECT_EQ(sent, recvd);
  });
}

// Double-walk audit for the store path: staging the store's columns into a
// FusedBatch evaluates the distribution callback exactly once per particle
// (the plan caches targets for the count/pack passes), and every column row
// is delivered exactly once - tags stay unique and their totals conserved.
TEST(StoreProp, DistributionRunsOnceAndEachRowShipsExactlyOnce) {
  for (const ExchangeKind kind :
       {ExchangeKind::kDense, ExchangeKind::kSparse}) {
    run_ranks(3, [kind](mpi::Comm& c) {
      const int r = c.rank();
      const std::size_t n = 41 + 7 * static_cast<std::size_t>(r);
      ParticleStore st;
      const std::size_t qid = st.register_field("q", FieldType::kF64);
      st.resize(n);
      // Globally unique, exactly-representable tags per (row, field).
      auto tag = [r](std::size_t i) {
        return static_cast<double>(r) * 1.0e6 + static_cast<double>(i);
      };
      domain::Vec3* const v = st.vel();
      domain::Vec3* const a = st.acc();
      double* const q = st.view<double>(qid);
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
      st.stage_into(batch);
      batch.execute();

      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(calls[i], 1) << "item " << i;

      const std::size_t nr = plan.n_recv_total();
      const domain::Vec3* const v2 = st.vel();
      const domain::Vec3* const a2 = st.acc();
      const double* const q2 = st.view<const double>(qid);
      std::set<double> seen;
      double local_post = 0.0;
      for (std::size_t k = 0; k < nr; ++k) {
        EXPECT_TRUE(seen.insert(v2[k].x).second) << "duplicate row " << k;
        local_post += v2[k].x + a2[k].x + q2[k];
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

// Full-simulation bit-identity: the same run with and without the store
// produces the identical rank-local state checksum for both solvers (the
// store is a pure transport change).
TEST(StoreProp, StoreBackedSimulationMatchesLegacyChecksum) {
  for (const char* solver : {"fmm", "pm"}) {
    run_ranks(6, [solver](mpi::Comm& c) {
      auto run_once = [&](bool use_store) {
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
        cfg.use_store = use_store;
        const md::SimulationResult res =
            md::run_simulation(c, handle, particles, cfg);
        return res.state_checksum;
      };
      const std::uint64_t legacy = run_once(false);
      const std::uint64_t stored = run_once(true);
      EXPECT_EQ(legacy, stored) << solver;
    });
  }
}

// ---------------------------------------------------------------------------
// Steady-state allocation regression: store-backed fcs_run steps allocate
// nothing once warmed up, and the carried exchange actually runs.

double store_pool_alloc_after_warmup(const std::string& plan_spec, int steps,
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
    cfg.use_store = true;
    cfg.extra_vec3_fields = 2;
    cfg.plan = plan::parse_plan_spec(plan_spec);
    (void)md::run_simulation(comm, handle, particles, cfg);
  });
  const auto reduced = rec->reduce_counters();
  // Sanity: the store transport actually ran.
  const auto it_sanity = reduced.find(carry_counter);
  EXPECT_TRUE(it_sanity != reduced.end() && it_sanity->second.totals.sum > 0.0)
      << plan_spec << " never hit " << carry_counter;
  double late = 0.0;
  if (const auto it = reduced.find("pool.alloc"); it != reduced.end())
    for (const auto& [epoch, summary] : it->second.by_epoch)
      if (epoch > warmup) late += summary.sum;
  return late;
}

TEST(StoreProp, StoreSteadyStateRunsDoNotAllocateDense) {
  EXPECT_EQ(store_pool_alloc_after_warmup("fixed:B", 14, 7,
                                          "redist.carry.exchanges"),
            0.0);
}

TEST(StoreProp, StoreSteadyStateRunsDoNotAllocateSparse) {
  EXPECT_EQ(store_pool_alloc_after_warmup("fixed:B+mm,merge,neighborhood", 14,
                                          7, "redist.fused.batches"),
            0.0);
}

// ---------------------------------------------------------------------------
// Deterministic fuzz driver for the registry / column-view error paths:
// every misuse throws fcs::Error instead of corrupting memory.

TEST(StoreFuzz, RegistryAndViewErrorPathsThrow) {
  ParticleStore st;
  // Duplicate registrations: builtin and extra names alike.
  EXPECT_THROW(st.register_field("vel", FieldType::kVec3), fcs::Error);
  const std::size_t qid = st.register_field("q", FieldType::kF64);
  EXPECT_THROW(st.register_field("q", FieldType::kF64), fcs::Error);
  // Degenerate specs: empty name, zero-width field.
  EXPECT_THROW(st.register_field("", FieldType::kF64), fcs::Error);
  EXPECT_THROW(st.register_field("z", FieldType::kF64, 0), fcs::Error);
  // Unregistered lookups by name and by id.
  EXPECT_THROW(st.registry().id_of("nope"), fcs::Error);
  EXPECT_THROW(st.registry().spec(99), fcs::Error);
  EXPECT_THROW(st.raw(99), fcs::Error);
  EXPECT_THROW(st.item_bytes(99), fcs::Error);
  EXPECT_THROW(st.capacity_bytes(99), fcs::Error);
  // Typed views must match the component width.
  EXPECT_THROW(st.view<double>(ParticleStore::kVel), fcs::Error);
  EXPECT_THROW(st.view<float>(qid), fcs::Error);
  EXPECT_NO_THROW(st.view<double>(qid));
  // Fields register once per run: loading particles seals the registry.
  st.resize(4);
  EXPECT_THROW(st.register_field("late", FieldType::kF64), fcs::Error);
  // Permutations must cover the exact row count.
  const std::uint32_t order[4] = {1, 0, 3, 2};
  EXPECT_THROW(st.permute(order, 3), fcs::Error);
  EXPECT_NO_THROW(st.permute(order, 4));
}

// Grow/shrink cycles: the surviving prefix is preserved bit for bit, regrown
// rows come back zeroed, and column capacity never shrinks (the grow-only
// pool contract behind the zero-alloc steady state).
TEST(StoreFuzz, GrowShrinkCyclesPreserveDataAndCapacity) {
  ParticleStore st;
  const std::size_t qid = st.register_field("charge", FieldType::kF64);
  const std::size_t tid = st.register_field("tag", FieldType::kU64, 2);
  std::vector<std::uint64_t> model;  // expected contents of the tag column
  std::size_t cap_q = 0, cap_t = 0;
  std::uint64_t h = 0xfeedULL;
  for (int iter = 0; iter < 120; ++iter) {
    h = mix(h);
    const std::size_t n_old = st.size();
    const std::size_t n_new = h % 1500;
    st.resize(n_new);
    ASSERT_EQ(st.size(), n_new);

    // Capacity is monotone non-decreasing across arbitrary resize cycles.
    EXPECT_GE(st.capacity_bytes(qid), cap_q) << "iter " << iter;
    EXPECT_GE(st.capacity_bytes(tid), cap_t) << "iter " << iter;
    EXPECT_GE(st.capacity_bytes(tid), n_new * st.item_bytes(tid));
    cap_q = std::max(cap_q, st.capacity_bytes(qid));
    cap_t = std::max(cap_t, st.capacity_bytes(tid));

    const std::uint64_t* t = st.view<std::uint64_t>(tid);
    // Surviving prefix preserved...
    const std::size_t keep = std::min(n_old, n_new);
    if (keep > 0) {
      ASSERT_EQ(std::memcmp(t, model.data(), keep * 2 * sizeof(std::uint64_t)),
                0)
          << "iter " << iter;
    }
    // ...and freshly (re)grown rows are zero-initialized.
    for (std::size_t i = keep; i < n_new; ++i) {
      ASSERT_EQ(t[2 * i], 0u) << "iter " << iter << " row " << i;
      ASSERT_EQ(t[2 * i + 1], 0u) << "iter " << iter << " row " << i;
    }

    // Restamp every row for the next round.
    std::uint64_t* tw = st.view<std::uint64_t>(tid);
    double* qw = st.view<double>(qid);
    model.assign(2 * n_new, 0);
    for (std::size_t i = 0; i < n_new; ++i) {
      model[2 * i] = tw[2 * i] = mix(h ^ i);
      model[2 * i + 1] = tw[2 * i + 1] = mix(h ^ (i << 1));
      qw[i] = static_cast<double>(i);
    }
  }
}

// Fuzzed permutations move every column's rows coherently (positions and
// Morton keys included).
TEST(StoreFuzz, PermuteMovesEveryColumnRowCoherently) {
  ParticleStore st;
  const std::size_t qid = st.register_field("q", FieldType::kU64);
  const std::size_t n = 257;
  st.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    st.pos()[i] = {static_cast<double>(i), 0, 0};
    st.vel()[i] = {0, static_cast<double>(i), 0};
    st.keys()[i] = i;
    st.view<std::uint64_t>(qid)[i] = i ^ 0xabcdULL;
  }
  // Deterministic Fisher-Yates shuffle.
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::uint64_t h = 42;
  for (std::size_t i = n - 1; i > 0; --i) {
    h = mix(h);
    std::swap(order[i], order[h % (i + 1)]);
  }
  st.permute(order.data(), n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto src = static_cast<std::size_t>(order[k]);
    EXPECT_EQ(st.pos()[k].x, static_cast<double>(src));
    EXPECT_EQ(st.vel()[k].y, static_cast<double>(src));
    EXPECT_EQ(st.keys()[k], src);
    EXPECT_EQ(st.view<std::uint64_t>(qid)[k], src ^ 0xabcdULL);
  }
}

}  // namespace
