#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "fcs/fcs.hpp"
#include "minimpi/cart.hpp"
#include "obs/obs.hpp"
#include "pm/pm_solver.hpp"
#include "sim/network.hpp"
#include "pm/ewald.hpp"
#include "spmd_test_util.hpp"
#include "support/rng.hpp"

using domain::Box;
using domain::Vec3;
using fcs_test::run_ranks;

namespace {

struct TestSystem {
  Box box{{0, 0, 0}, {8, 8, 8}, {true, true, true}};
  std::vector<Vec3> pos;
  std::vector<double> q;
};

TestSystem make_system(std::size_t side, std::uint64_t seed = 55) {
  TestSystem s;
  fcs::Rng rng(seed);
  for (std::size_t x = 0; x < side; ++x)
    for (std::size_t y = 0; y < side; ++y)
      for (std::size_t z = 0; z < side; ++z) {
        Vec3 p{(x + 0.5) * 8.0 / side, (y + 0.5) * 8.0 / side,
               (z + 0.5) * 8.0 / side};
        p.x += rng.uniform(-0.2, 0.2);
        p.y += rng.uniform(-0.2, 0.2);
        p.z += rng.uniform(-0.2, 0.2);
        s.pos.push_back(s.box.wrap(p));
        s.q.push_back(((x + y + z) % 2 == 0) ? 1.0 : -1.0);
      }
  return s;
}

void deal(const TestSystem& s, const mpi::Comm& c, std::vector<Vec3>& pos,
          std::vector<double>& q) {
  pos.clear();
  q.clear();
  for (std::size_t i = 0; i < s.pos.size(); ++i) {
    if (static_cast<int>(i % c.size()) != c.rank()) continue;
    pos.push_back(s.pos[i]);
    q.push_back(s.q[i]);
  }
}

template <class T>
void expect_bits_equal(const std::vector<T>& a, const std::vector<T>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << what;
  }
}

TEST(FcsHandle, UnknownSolverThrows) {
  run_ranks(1, [](mpi::Comm& c) {
    EXPECT_THROW(fcs::Fcs handle(c, "nosuchsolver"), fcs::Error);
  });
}

// std::string, not const char*: gtest prints a char pointer with its address,
// which would put a per-run address into every discovered ctest name.
class FcsMethods : public ::testing::TestWithParam<std::tuple<int, std::string>> {};
INSTANTIATE_TEST_SUITE_P(
    RanksAndSolvers, FcsMethods,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values("pm", "direct")));

TEST_P(FcsMethods, MethodAKeepsOrderAndMatchesDirect) {
  const auto [p, solver_name] = GetParam();
  const TestSystem sys = make_system(5);
  run_ranks(p, [&, solver = solver_name](mpi::Comm& c) {
    std::vector<Vec3> pos;
    std::vector<double> q;
    deal(sys, c, pos, q);
    const auto pos_before = pos;

    fcs::Fcs handle(c, solver);
    handle.set_common(sys.box);
    handle.set_accuracy(1e-3);
    handle.tune(pos, q);
    std::vector<double> phi;
    std::vector<Vec3> field;
    fcs::RunResult rr = handle.run(pos, q, phi, field);  // method A

    EXPECT_FALSE(rr.resorted);
    EXPECT_FALSE(handle.last_run_resorted());
    EXPECT_EQ(rr.n_local, pos_before.size());
    // Arrays untouched by method A.
    ASSERT_EQ(pos.size(), pos_before.size());
    for (std::size_t i = 0; i < pos.size(); ++i)
      EXPECT_EQ(pos[i], pos_before[i]);
    ASSERT_EQ(phi.size(), pos.size());
    ASSERT_EQ(field.size(), pos.size());
    // Results correspond to the original order: verify against a serial
    // reference on rank layouts.
    std::vector<double> ref_phi;
    std::vector<Vec3> ref_field;
    pm::ewald_reference(sys.box, sys.pos, sys.q,
                        pm::tune_ewald(sys.box, 2.4, 1e-8), ref_phi, ref_field);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      const std::size_t gi = i * p + static_cast<std::size_t>(c.rank());
      EXPECT_NEAR(phi[i], ref_phi[gi], 0.05);
    }
  });
}

TEST_P(FcsMethods, MethodBReturnsChangedOrderAndResortFollows) {
  const auto [p, solver_name] = GetParam();
  const TestSystem sys = make_system(5);
  run_ranks(p, [&, solver = solver_name](mpi::Comm& c) {
    std::vector<Vec3> pos;
    std::vector<double> q;
    deal(sys, c, pos, q);
    const std::size_t n_before = pos.size();

    // Tag each original particle so resorted data can be cross-checked:
    // extra[i] encodes the particle's position hash.
    auto tag_of = [](const Vec3& v) {
      return std::floor(v.x * 1e5) + std::floor(v.y * 1e3) + v.z;
    };
    std::vector<double> extra(n_before);
    for (std::size_t i = 0; i < n_before; ++i) extra[i] = tag_of(pos[i]);

    fcs::Fcs handle(c, solver);
    handle.set_common(sys.box);
    handle.set_accuracy(1e-3);
    handle.tune(pos, q);
    std::vector<double> phi;
    std::vector<Vec3> field;
    fcs::RunOptions opts;
    opts.resort = true;
    fcs::RunResult rr = handle.run(pos, q, phi, field, opts);

    EXPECT_TRUE(rr.resorted);
    EXPECT_TRUE(handle.last_run_resorted());
    EXPECT_EQ(pos.size(), handle.resort_particle_count());
    ASSERT_EQ(phi.size(), pos.size());

    // The global particle multiset is preserved.
    const auto total = c.allreduce(static_cast<std::uint64_t>(pos.size()),
                                   mpi::OpSum{});
    EXPECT_EQ(total, static_cast<std::uint64_t>(sys.pos.size()));

    // Additional data follows its particle.
    handle.resort_floats(extra, 1);
    ASSERT_EQ(extra.size(), pos.size());
    for (std::size_t i = 0; i < pos.size(); ++i)
      EXPECT_NEAR(extra[i], tag_of(pos[i]), 1e-9);

    // Integer payloads too.
    std::vector<std::int64_t> itags(n_before);
    // (resort indices are still valid for the ORIGINAL layout)
    for (std::size_t i = 0; i < n_before; ++i)
      itags[i] = 1000 * c.rank() + static_cast<std::int64_t>(i);
    handle.resort_ints(itags, 1);
    EXPECT_EQ(itags.size(), pos.size());
  });
}

TEST(FcsMethods, CapacityFallbackRestores) {
  const TestSystem sys = make_system(5);
  run_ranks(4, [&](mpi::Comm& c) {
    std::vector<Vec3> pos;
    std::vector<double> q;
    deal(sys, c, pos, q);
    const auto pos_before = pos;

    fcs::Fcs handle(c, "pm");
    handle.set_common(sys.box);
    handle.set_accuracy(1e-2);
    handle.tune(pos, q);
    std::vector<double> phi;
    std::vector<Vec3> field;
    fcs::RunOptions opts;
    opts.resort = true;
    opts.max_local = 1;  // too small on purpose
    fcs::RunResult rr = handle.run(pos, q, phi, field, opts);

    // Paper: if the arrays of at least one process are too small, the
    // original order and distribution is restored.
    EXPECT_FALSE(rr.resorted);
    EXPECT_FALSE(handle.last_run_resorted());
    ASSERT_EQ(pos.size(), pos_before.size());
    for (std::size_t i = 0; i < pos.size(); ++i)
      EXPECT_EQ(pos[i], pos_before[i]);
    EXPECT_EQ(phi.size(), pos_before.size());
    // resort_* must refuse now.
    std::vector<double> extra(pos.size(), 1.0);
    EXPECT_THROW(handle.resort_floats(extra, 1), fcs::Error);
  });
}

// Capacity fallback after the solver already carried the staged fields into
// its order: the run restores, so every row must come home again
// (resort_values through fcs_run), and the resort machinery refuses.
TEST(FcsMethods, CapacityFallbackSendsCarriedFieldsHome) {
  const TestSystem sys = make_system(5);
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(4);
  cfg.recorder = rec;
  sim::run_spmd(cfg, [&sys](sim::RankCtx& ctx) {
    mpi::Comm c = mpi::Comm::world(ctx);
    std::vector<Vec3> pos;
    std::vector<double> q;
    deal(sys, c, pos, q);
    const std::size_t n = pos.size();

    std::vector<double> sf(n);
    std::vector<std::int64_t> si(2 * n);
    std::vector<Vec3> vel(n), acc(n);
    for (std::size_t i = 0; i < n; ++i) {
      sf[i] = pos[i].x + 1e-3 * i;
      si[2 * i] = c.rank();
      si[2 * i + 1] = static_cast<std::int64_t>(i);
      vel[i] = Vec3{pos[i].y, pos[i].z, pos[i].x};
      acc[i] = pos[i] * 2.0;
    }
    const std::vector<double> sf_before = sf;
    const std::vector<std::int64_t> si_before = si;
    const std::vector<Vec3> vel_before = vel;
    const std::vector<Vec3> acc_before = acc;

    fcs::Fcs handle(c, "pm");
    handle.set_common(sys.box);
    handle.set_accuracy(1e-2);
    handle.tune(pos, q);
    handle.stage_floats(sf, 1).stage_ints(si, 2).stage_vec3(vel).stage_vec3(
        acc);
    std::vector<double> phi;
    std::vector<Vec3> field;
    fcs::RunOptions opts;
    opts.resort = true;
    opts.max_local = 1;  // too small on purpose
    const fcs::RunResult rr = handle.run(pos, q, phi, field, opts);

    EXPECT_FALSE(rr.resorted);
    EXPECT_FALSE(handle.last_run_resorted());
    EXPECT_FALSE(handle.resort_plan().valid());
    EXPECT_THROW(handle.resort_batch(), fcs::Error);
    EXPECT_EQ(handle.staged_field_count(), 0u);
    expect_bits_equal(sf, sf_before, "staged floats");
    expect_bits_equal(si, si_before, "staged ints");
    expect_bits_equal(vel, vel_before, "staged vec3 (vel)");
    expect_bits_equal(acc, acc_before, "staged vec3 (acc)");
  });
  // The solver really carried the fields before the fallback sent them home.
  const auto reduced = rec->reduce_counters();
  const auto carried = reduced.find("redist.carry.exchanges");
  ASSERT_NE(carried, reduced.end());
  EXPECT_GT(carried->second.totals.sum, 0.0);
}

// Staged fields that cannot follow the run's particles are rejected before
// the solve, by a resorting and by a restoring run alike: a vector of the
// wrong length, and one vector staged twice (carried, its two column views
// would permute one buffer twice). Nothing moves, the queue still clears,
// and the handle keeps working.
TEST(FcsMethods, StagedFieldsAreCheckedBeforeTheSolve) {
  const TestSystem sys = make_system(4);
  run_ranks(4, [&](mpi::Comm& c) {
    std::vector<Vec3> pos;
    std::vector<double> q;
    deal(sys, c, pos, q);
    fcs::Fcs handle(c, "pm");
    handle.set_common(sys.box);
    handle.set_accuracy(1e-2);
    handle.tune(pos, q);
    std::vector<double> phi;
    std::vector<Vec3> field;
    for (const bool resort : {true, false}) {
      SCOPED_TRACE(resort ? "resorting run" : "restoring run");
      fcs::RunOptions opts;
      opts.resort = resort;
      auto expect_rejected = [&](const std::string& what) {
        const std::vector<Vec3> pos_before = pos;
        try {
          handle.run(pos, q, phi, field, opts);
          ADD_FAILURE() << "expected an error naming '" << what << "'";
        } catch (const fcs::Error& e) {
          EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
              << e.what();
        }
        EXPECT_EQ(handle.staged_field_count(), 0u);
        expect_bits_equal(pos, pos_before, "positions");
      };
      const std::size_t n = pos.size();
      std::vector<Vec3> vel(n);
      std::vector<double> wrong(n + 1);
      handle.stage_vec3(vel).stage_floats(wrong, 1);
      expect_rejected("staged field 1 holds " + std::to_string(n + 1) +
                      " values");
      handle.stage_vec3(vel).stage_vec3(vel);
      expect_rejected("staged field 1 is staged twice");

      handle.stage_vec3(vel);
      const fcs::RunResult rr = handle.run(pos, q, phi, field, opts);
      EXPECT_EQ(rr.resorted, resort);
      EXPECT_EQ(vel.size(), pos.size());
    }
  });
}

TEST(FcsMethods, MethodAandBSamePhysics) {
  const TestSystem sys = make_system(6);
  run_ranks(4, [&](mpi::Comm& c) {
    std::vector<Vec3> pos_a, pos_b;
    std::vector<double> q_a, q_b;
    deal(sys, c, pos_a, q_a);
    pos_b = pos_a;
    q_b = q_a;

    auto energy_with = [&](bool resort, std::vector<Vec3>& pos,
                           std::vector<double>& q) {
      fcs::Fcs handle(c, "pm");
      handle.set_common(sys.box);
      handle.set_accuracy(1e-3);
      handle.tune(pos, q);
      std::vector<double> phi;
      std::vector<Vec3> field;
      fcs::RunOptions opts;
      opts.resort = resort;
      handle.run(pos, q, phi, field, opts);
      double e = 0;
      for (std::size_t i = 0; i < q.size(); ++i) e += q[i] * phi[i];
      return 0.5 * c.allreduce(e, mpi::OpSum{});
    };
    const double ea = energy_with(false, pos_a, q_a);
    const double eb = energy_with(true, pos_b, q_b);
    EXPECT_NEAR(ea, eb, 1e-9 * std::abs(ea));
  });
}

TEST(FcsMethods, RepeatedMethodBRunsWithMovementHint) {
  // Simulates the paper's per-step loop: repeated method B runs where the
  // input is already in solver order; the solvers must engage their
  // max-movement optimizations and keep producing consistent results.
  const TestSystem sys = make_system(6);
  run_ranks(8, [&](mpi::Comm& c) {
    std::vector<Vec3> pos;
    std::vector<double> q;
    deal(sys, c, pos, q);
    fcs::Fcs handle(c, "pm");
    handle.set_common(sys.box);
    handle.set_accuracy(1e-3);
    handle.tune(pos, q);
    std::vector<double> phi;
    std::vector<Vec3> field;
    fcs::RunOptions opts;
    opts.resort = true;

    handle.run(pos, q, phi, field, opts);
    double e_prev = 0;
    for (std::size_t i = 0; i < q.size(); ++i) e_prev += q[i] * phi[i];
    e_prev = 0.5 * c.allreduce(e_prev, mpi::OpSum{});

    fcs::Rng rng = fcs::Rng(77).stream(c.rank());
    for (int step = 0; step < 3; ++step) {
      // Tiny displacements.
      for (auto& x : pos) {
        x.x += rng.uniform(-0.01, 0.01);
        x.y += rng.uniform(-0.01, 0.01);
        x.z += rng.uniform(-0.01, 0.01);
        x = sys.box.wrap(x);
      }
      opts.max_particle_move = 0.02;
      fcs::RunResult rr = handle.run(pos, q, phi, field, opts);
      EXPECT_TRUE(rr.resorted);
      double e = 0;
      for (std::size_t i = 0; i < q.size(); ++i) e += q[i] * phi[i];
      e = 0.5 * c.allreduce(e, mpi::OpSum{});
      // Energy changes only slightly for tiny displacements.
      EXPECT_NEAR(e, e_prev, 0.05 * std::abs(e_prev));
      e_prev = e;
    }
  });
}

TEST(FcsTiming, PhaseTimesAreConsistent) {
  const TestSystem sys = make_system(5);
  auto net = std::make_shared<sim::SwitchedNetwork>();
  run_ranks(4, [&](mpi::Comm& c) {
    std::vector<Vec3> pos;
    std::vector<double> q;
    deal(sys, c, pos, q);
    fcs::Fcs handle(c, "pm");
    handle.set_common(sys.box);
    handle.set_accuracy(1e-2);
    handle.tune(pos, q);
    std::vector<double> phi;
    std::vector<Vec3> field;
    fcs::RunResult rr = handle.run(pos, q, phi, field);
    EXPECT_GT(rr.times.total, 0.0);
    EXPECT_GT(rr.times.sort, 0.0);
    EXPECT_GT(rr.times.restore, 0.0);
    EXPECT_EQ(rr.times.resort, 0.0);
    EXPECT_LE(rr.times.sort + rr.times.compute + rr.times.restore,
              rr.times.total * 1.0001);
  }, net);
}

// ---------------------------------------------------------------------------
// Overlapped (task-graph) fcs_run vs phased: bit-identity property test

namespace {

/// One full method-B run with three staged fields; returns every output
/// array for bitwise comparison.
struct TaskRunOut {
  std::vector<Vec3> pos;
  std::vector<double> q;
  std::vector<double> phi;
  std::vector<Vec3> field;
  std::vector<double> extraf;
  std::vector<std::int64_t> extrai;
  std::vector<Vec3> vel;
  bool resorted = false;
};

TaskRunOut run_staged(const TestSystem& sys, mpi::Comm& c,
                      const std::string& solver, bool overlap) {
  TaskRunOut o;
  deal(sys, c, o.pos, o.q);
  const std::size_t n = o.pos.size();
  o.extraf.resize(n);
  o.extrai.resize(n);
  o.vel.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    o.extraf[i] = 1e-3 * static_cast<double>(i) + c.rank();
    o.extrai[i] = 1000 * c.rank() + static_cast<std::int64_t>(i);
    o.vel[i] = Vec3{o.pos[i].y, o.pos[i].z, o.pos[i].x};
  }

  fcs::Fcs handle(c, solver);
  handle.set_common(sys.box);
  handle.set_accuracy(1e-3);
  if (solver == "pm") {
    // Skinny decompositions (3x1x1, 7x1x1): clamp the cutoff so the ghost
    // halo fits one subdomain, as the bench harnesses do.
    auto& pm_solver = dynamic_cast<pm::PmSolver&>(handle.solver());
    const std::vector<int> dims = mpi::dims_create(c.size(), 3);
    const double min_sub = sys.box.extent().x / dims[0];
    pm_solver.set_cutoff(std::min(4.8, 0.9 * min_sub));
  }
  handle.tune(o.pos, o.q);
  handle.stage_floats(o.extraf, 1);
  handle.stage_ints(o.extrai, 1);
  handle.stage_vec3(o.vel);
  EXPECT_EQ(handle.staged_field_count(), 3u);
  fcs::RunOptions opts;
  opts.resort = true;
  // fmm computes open-boundary interactions only; on the periodic test box
  // it runs with modeled compute (the redistribution machinery under test
  // is identical either way).
  opts.modeled_compute = solver == "fmm";
  opts.overlap = overlap;
  const fcs::RunResult rr = handle.run(o.pos, o.q, o.phi, o.field, opts);
  EXPECT_EQ(handle.staged_field_count(), 0u);  // queue clears either way
  o.resorted = rr.resorted;
  return o;
}

}  // namespace

TEST(FcsTaskOverlap, BitIdenticalToPhasedOnEveryCorner) {
  const TestSystem sys = make_system(5);
  for (const int p : {3, 7, 12}) {
    for (const char* solver : {"pm", "fmm"}) {
      for (const int net_kind : {0, 1}) {
        std::shared_ptr<const sim::NetworkModel> net;
        if (net_kind == 0)
          net = std::make_shared<sim::SwitchedNetwork>();
        else
          net = std::make_shared<sim::TorusNetwork>(
              sim::TorusNetwork::balanced_dims(p, 3));
        SCOPED_TRACE(std::string(solver) + " p=" + std::to_string(p) +
                     (net_kind == 0 ? " switched" : " torus"));
        run_ranks(p, [&, solver = std::string(solver)](mpi::Comm& c) {
          const TaskRunOut phased = run_staged(sys, c, solver, false);
          EXPECT_TRUE(phased.resorted);
          // The overlapped run splits the partners into min(4, p) slabs:
          // one partner each at p = 3, uneven slabs at p = 7.
          const TaskRunOut t = run_staged(sys, c, solver, true);
          EXPECT_EQ(t.resorted, phased.resorted);
          expect_bits_equal(t.pos, phased.pos, "positions");
          expect_bits_equal(t.q, phased.q, "charges");
          expect_bits_equal(t.phi, phased.phi, "potentials");
          expect_bits_equal(t.field, phased.field, "field");
          expect_bits_equal(t.extraf, phased.extraf, "staged floats");
          expect_bits_equal(t.extrai, phased.extrai, "staged ints");
          expect_bits_equal(t.vel, phased.vel, "staged vec3");
        }, net);
      }
    }
  }
}

TEST(FcsTaskOverlap, TaskModeActuallyEngagesTheGraph) {
  const TestSystem sys = make_system(5);
  auto rec = std::make_shared<obs::Recorder>();
  sim::EngineConfig cfg = fcs_test::engine_config(4);
  cfg.network = std::make_shared<sim::SwitchedNetwork>();
  cfg.recorder = rec;
  sim::run_spmd(cfg, [&sys](sim::RankCtx& ctx) {
    mpi::Comm c = mpi::Comm::world(ctx);
    (void)run_staged(sys, c, "pm", true);
  });
  const auto reduced = rec->reduce_counters();
  const auto runs = reduced.find("fcs.task.runs");
  ASSERT_NE(runs, reduced.end());
  EXPECT_EQ(runs->second.totals.sum, 4.0);  // one overlapped run per rank
  EXPECT_NE(reduced.find("task.nodes"), reduced.end());
  EXPECT_NE(reduced.find("redist.fused.async_runs"), reduced.end());
}

TEST(FcsTaskOverlap, DirectSolverOverlapsBitIdentically) {
  // "direct" splits into a communication-free begin_solve and a
  // finish_solve that allgathers and computes: with RunOptions::overlap it
  // runs the overlapped graph like fmm and pm, and must match the phased run
  // bit for bit.
  const TestSystem sys = make_system(4);
  run_ranks(3, [&](mpi::Comm& c) {
    const TaskRunOut phased = run_staged(sys, c, "direct", false);
    const TaskRunOut t = run_staged(sys, c, "direct", true);
    expect_bits_equal(t.pos, phased.pos, "positions");
    expect_bits_equal(t.phi, phased.phi, "potentials");
    expect_bits_equal(t.vel, phased.vel, "staged vec3");
  });
}

// ---------------------------------------------------------------------------
// Every way a per-particle field can follow the particles through method B -
// resort_vec3, a ResortBatch and staged vectors - used together in the same
// runs, under the phased and the overlapped schedule, with conservation
// validation on. Each payload is a function of the particle's position
// before the run, so afterwards every value must equal the tag of the
// position the particle comes back with. In the phased first run the solver
// carries the staged vectors inside its dense exchange; the second
// (fixed:B+mm, merge sort, neighborhood exchange) cannot carry, so they
// follow in the run's one fused batch. An overlapped run never hands them
// to the solver: they travel in slabs under the force computation.

namespace {

Vec3 tag_vec3(const Vec3& v, int route) {
  return Vec3{v.x + route, v.y * (route + 2), v.z - 0.5 * route};
}
double tag_f64(const Vec3& v, int route) {
  return v.x * 1e4 + v.y * 1e2 + v.z + 1e6 * route;
}
std::int64_t tag_i64(const Vec3& v, int route) {
  return static_cast<std::int64_t>(std::floor(v.x * 1e6)) * 1000 +
         static_cast<std::int64_t>(std::floor(v.z * 1e2)) * 10 + route;
}

void expect_every_field_follows(mpi::Comm& c, const TestSystem& sys,
                                const std::string& solver, bool overlap) {
  std::vector<Vec3> pos;
  std::vector<double> q;
  deal(sys, c, pos, q);

  fcs::Fcs handle(c, solver);
  handle.set_common(sys.box);
  handle.set_accuracy(1e-3);
  if (solver == "pm") {
    // Skinny decompositions (3x1x1, 7x1x1): the ghost halo must fit one
    // subdomain, as in run_staged.
    auto& pm_solver = dynamic_cast<pm::PmSolver&>(handle.solver());
    const std::vector<int> dims = mpi::dims_create(c.size(), 3);
    pm_solver.set_cutoff(std::min(4.8, 0.9 * sys.box.extent().x / dims[0]));
  }
  handle.tune(pos, q);

  std::vector<Vec3> rv, bv, sv;
  std::vector<double> bf, sf;
  std::vector<std::int64_t> bi, si;
  std::vector<double> phi;
  std::vector<Vec3> field;
  fcs::RunOptions opts;
  opts.resort = true;
  opts.modeled_compute = solver == "fmm";  // periodic box: see run_staged
  opts.overlap = overlap;
  fcs::Rng rng = fcs::Rng(91).stream(static_cast<std::uint64_t>(c.rank()));
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    if (obs::RankObs* const o = c.ctx().obs(); o != nullptr) o->set_epoch(run);
    if (run == 1) {
      for (Vec3& x : pos)
        x = sys.box.wrap(Vec3{x.x + rng.uniform(-0.01, 0.01),
                              x.y + rng.uniform(-0.01, 0.01),
                              x.z + rng.uniform(-0.01, 0.01)});
      opts.max_particle_move = 0.02;
      handle.set_plan(plan::parse_plan_spec("fixed:B+mm,merge,neighborhood"));
    }
    const std::size_t n = pos.size();
    rv.resize(n);
    bv.resize(n);
    sv.resize(n);
    bf.resize(2 * n);
    sf.resize(n);
    bi.resize(n);
    si.resize(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      rv[i] = tag_vec3(pos[i], 0);
      bv[i] = tag_vec3(pos[i], 1);
      bf[2 * i] = tag_f64(pos[i], 2);
      bf[2 * i + 1] = tag_f64(pos[i], 3);
      bi[i] = tag_i64(pos[i], 4);
      sv[i] = tag_vec3(pos[i], 5);
      sf[i] = tag_f64(pos[i], 6);
      si[2 * i] = tag_i64(pos[i], 7);
      si[2 * i + 1] = tag_i64(pos[i], 8);
    }
    handle.stage_vec3(sv).stage_floats(sf, 1).stage_ints(si, 2);
    const fcs::RunResult rr = handle.run(pos, q, phi, field, opts);
    ASSERT_TRUE(rr.resorted);
    handle.resort_vec3(rv);
    fcs::ResortBatch batch = handle.resort_batch();
    batch.add_vec3(bv).add_floats(bf, 2).add_ints(bi, 1);
    batch.run();

    const std::size_t m = pos.size();
    ASSERT_EQ(m, handle.resort_particle_count());
    ASSERT_EQ(rv.size(), m);
    ASSERT_EQ(bv.size(), m);
    ASSERT_EQ(bf.size(), 2 * m);
    ASSERT_EQ(bi.size(), m);
    ASSERT_EQ(sv.size(), m);
    ASSERT_EQ(sf.size(), m);
    ASSERT_EQ(si.size(), 2 * m);
    std::size_t wrong = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const Vec3& x = pos[j];
      wrong += !(rv[j] == tag_vec3(x, 0)) + !(bv[j] == tag_vec3(x, 1)) +
               (bf[2 * j] != tag_f64(x, 2)) +
               (bf[2 * j + 1] != tag_f64(x, 3)) + (bi[j] != tag_i64(x, 4)) +
               !(sv[j] == tag_vec3(x, 5)) + (sf[j] != tag_f64(x, 6)) +
               (si[2 * j] != tag_i64(x, 7)) +
               (si[2 * j + 1] != tag_i64(x, 8));
    }
    EXPECT_EQ(wrong, 0u) << "values not on their particle (rank " << c.rank()
                         << ", " << m << " particles)";
  }
}

}  // namespace

TEST(FcsFieldRoutes, EveryFieldLandsOnItsParticle) {
  const TestSystem sys = make_system(5);
  for (const int p : {3, 7}) {
    for (const char* solver : {"pm", "fmm"}) {
      for (const bool overlap : {false, true}) {
        SCOPED_TRACE(std::string(solver) + " p=" + std::to_string(p) +
                     (overlap ? " overlapped" : " phased"));
        auto rec = std::make_shared<obs::Recorder>();
        sim::EngineConfig cfg = sim::EngineConfig::from_env();
        cfg.nranks = p;
        cfg.network = std::make_shared<sim::SwitchedNetwork>();
        cfg.recorder = rec;
        cfg.validate = true;
        sim::run_spmd(cfg, [&sys, solver, overlap](sim::RankCtx& ctx) {
          mpi::Comm c = mpi::Comm::world(ctx);
          expect_every_field_follows(c, sys, solver, overlap);
        });
        // A phased run's solver carried the staged vectors in the first run
        // only; an overlapped run never hands them to the solver.
        const auto reduced = rec->reduce_counters();
        const auto carried = reduced.find("redist.carry.exchanges");
        if (overlap) {
          EXPECT_TRUE(carried == reduced.end() ||
                      carried->second.totals.sum == 0.0);
        } else {
          ASSERT_NE(carried, reduced.end());
          const auto& by_epoch = carried->second.by_epoch;
          EXPECT_TRUE(by_epoch.count(0) == 1 && by_epoch.at(0).sum > 0.0);
          EXPECT_TRUE(by_epoch.count(1) == 0 || by_epoch.at(1).sum == 0.0);
        }
        // Validation covered every run, staged vectors included.
        const auto checks = reduced.find("fcs.validate.checks");
        ASSERT_NE(checks, reduced.end());
        EXPECT_GT(checks->second.totals.sum, 0.0);
        const auto tasks = reduced.find("fcs.task.runs");
        EXPECT_EQ(tasks != reduced.end(), overlap);
      }
    }
  }
}

}  // namespace
