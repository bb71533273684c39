#include <gtest/gtest.h>

#include <cmath>

#include "fmm/fmm_solver.hpp"
#include "fmm/harmonics.hpp"
#include "fmm/multipole.hpp"
#include "fmm/octree.hpp"
#include "pm/direct.hpp"
#include "redist/resort.hpp"
#include "spmd_test_util.hpp"
#include "support/rng.hpp"

using domain::Box;
using domain::Vec3;
using fcs_test::run_ranks;

namespace {

Vec3 random_in_ball(fcs::Rng& rng, double radius) {
  for (;;) {
    Vec3 v{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (v.norm2() <= 1.0) return v * radius;
  }
}

// ---------------------------------------------------------------------------
// Solid harmonics

TEST(Harmonics, KernelExpansionIdentity) {
  // 1/|r - r'| = sum_lm R_l^m(r') conj(I_l^m(r)) for |r| > |r'|.
  fcs::Rng rng(41);
  const int p = 16;
  std::vector<fmm::Complex> reg, irr;
  for (int t = 0; t < 20; ++t) {
    const Vec3 rp = random_in_ball(rng, 0.3);
    Vec3 r = random_in_ball(rng, 1.0);
    while (r.norm() < 0.8) r = random_in_ball(rng, 1.0);
    fmm::regular_harmonics(rp, p, reg);
    fmm::irregular_harmonics(r, p, irr);
    fmm::Complex sum{0, 0};
    for (int l = 0; l <= p; ++l)
      for (int m = -l; m <= l; ++m)
        sum += fmm::harmonic_at(reg, p, l, m) *
               std::conj(fmm::harmonic_at(irr, p, l, m));
    const double exact = 1.0 / (r - rp).norm();
    EXPECT_NEAR(sum.real(), exact, 2e-5 * exact);
    EXPECT_NEAR(sum.imag(), 0.0, 1e-9);
  }
}

TEST(Harmonics, RegularAdditionTheorem) {
  // R_l^m(a + b) = sum_{j,k} R_j^k(a) R_{l-j}^{m-k}(b).
  fcs::Rng rng(42);
  const int p = 6;
  std::vector<fmm::Complex> ra, rb, rab;
  const Vec3 a = random_in_ball(rng, 0.7);
  const Vec3 b = random_in_ball(rng, 0.5);
  fmm::regular_harmonics(a, p, ra);
  fmm::regular_harmonics(b, p, rb);
  fmm::regular_harmonics(a + b, p, rab);
  for (int l = 0; l <= p; ++l)
    for (int m = 0; m <= l; ++m) {
      fmm::Complex sum{0, 0};
      for (int j = 0; j <= l; ++j)
        for (int k = -j; k <= j; ++k)
          sum += fmm::harmonic_at(ra, p, j, k) *
                 fmm::harmonic_at(rb, p, l - j, m - k);
      const fmm::Complex exact = rab[fmm::coef_index(l, m)];
      EXPECT_NEAR(sum.real(), exact.real(), 1e-10);
      EXPECT_NEAR(sum.imag(), exact.imag(), 1e-10);
    }
}

TEST(Harmonics, LowOrderClosedForms) {
  std::vector<fmm::Complex> reg, irr;
  const Vec3 r{0.3, -0.4, 0.5};
  fmm::regular_harmonics(r, 2, reg);
  EXPECT_NEAR(reg[fmm::coef_index(0, 0)].real(), 1.0, 1e-14);
  EXPECT_NEAR(reg[fmm::coef_index(1, 0)].real(), r.z, 1e-14);
  EXPECT_NEAR(reg[fmm::coef_index(1, 1)].real(), -r.x / 2, 1e-14);
  EXPECT_NEAR(reg[fmm::coef_index(1, 1)].imag(), -r.y / 2, 1e-14);
  fmm::irregular_harmonics(r, 1, irr);
  const double rn = r.norm();
  EXPECT_NEAR(irr[fmm::coef_index(0, 0)].real(), 1.0 / rn, 1e-14);
  EXPECT_NEAR(irr[fmm::coef_index(1, 0)].real(), r.z / (rn * rn * rn), 1e-12);
}

// ---------------------------------------------------------------------------
// Operators: each against brute force

struct Cloud {
  std::vector<Vec3> pos;
  std::vector<double> q;
};

Cloud make_cloud(fcs::Rng& rng, const Vec3& center, double radius, int n) {
  Cloud c;
  for (int i = 0; i < n; ++i) {
    c.pos.push_back(center + random_in_ball(rng, radius));
    c.q.push_back(rng.uniform(-1, 1));
  }
  return c;
}

double direct_potential(const Cloud& c, const Vec3& x) {
  double phi = 0;
  for (std::size_t i = 0; i < c.pos.size(); ++i)
    phi += c.q[i] / (x - c.pos[i]).norm();
  return phi;
}

TEST(Operators, P2MThenEvaluate) {
  fcs::Rng rng(43);
  const int p = 12;
  const Vec3 center{1, 2, 3};
  Cloud cloud = make_cloud(rng, center, 0.5, 20);
  fmm::Expansion w(p);
  for (std::size_t i = 0; i < cloud.pos.size(); ++i)
    fmm::p2m(cloud.pos[i], cloud.q[i], center, w);
  const Vec3 x = center + Vec3{2.5, 0.3, -0.4};
  double phi = 0;
  Vec3 field{};
  fmm::m2p(w, center, x, phi, field);
  EXPECT_NEAR(phi, direct_potential(cloud, x), 1e-5);
  // Field against numeric differentiation of the direct potential.
  const double h = 1e-6;
  for (int d = 0; d < 3; ++d) {
    Vec3 xp = x, xm = x;
    xp[d] += h;
    xm[d] -= h;
    const double e_fd =
        -(direct_potential(cloud, xp) - direct_potential(cloud, xm)) / (2 * h);
    EXPECT_NEAR(field[d], e_fd, 1e-4 * std::max(1.0, std::abs(e_fd)));
  }
}

TEST(Operators, M2MPreservesFarPotential) {
  fcs::Rng rng(44);
  const int p = 12;
  const Vec3 c1{0, 0, 0}, c2{0.4, -0.2, 0.3};
  Cloud cloud = make_cloud(rng, c1, 0.4, 15);
  fmm::Expansion w1(p), w2(p);
  for (std::size_t i = 0; i < cloud.pos.size(); ++i)
    fmm::p2m(cloud.pos[i], cloud.q[i], c1, w1);
  fmm::m2m(w1, c1, c2, w2);
  const Vec3 x{4, 3, -2};
  double phi1 = 0, phi2 = 0;
  Vec3 f1{}, f2{};
  fmm::m2p(w1, c1, x, phi1, f1);
  fmm::m2p(w2, c2, x, phi2, f2);
  EXPECT_NEAR(phi1, phi2, 1e-7 * std::max(1.0, std::abs(phi1)));
}

TEST(Operators, M2LReproducesPotentialLocally) {
  fcs::Rng rng(45);
  const int p = 14;
  const Vec3 cm{0, 0, 0};
  const Vec3 cl{3.0, 0.5, -0.5};
  Cloud cloud = make_cloud(rng, cm, 0.5, 15);
  fmm::Expansion w(p), u(p);
  for (std::size_t i = 0; i < cloud.pos.size(); ++i)
    fmm::p2m(cloud.pos[i], cloud.q[i], cm, w);
  fmm::m2l(w, cm, cl, u);
  const Vec3 x = cl + Vec3{0.3, -0.2, 0.25};
  double phi = 0;
  Vec3 field{};
  fmm::l2p(u, cl, x, phi, field);
  const double exact = direct_potential(cloud, x);
  EXPECT_NEAR(phi, exact, 2e-4 * std::max(1.0, std::abs(exact)));
  const double h = 1e-6;
  for (int d = 0; d < 3; ++d) {
    Vec3 xp = x, xm = x;
    xp[d] += h;
    xm[d] -= h;
    const double e_fd =
        -(direct_potential(cloud, xp) - direct_potential(cloud, xm)) / (2 * h);
    EXPECT_NEAR(field[d], e_fd, 5e-3 * std::max(1.0, std::abs(e_fd)));
  }
}

TEST(Operators, L2LPreservesLocalPotential) {
  fcs::Rng rng(46);
  const int p = 14;
  const Vec3 cm{0, 0, 0}, cl{3, 0, 0}, cl2{3.3, 0.2, -0.1};
  Cloud cloud = make_cloud(rng, cm, 0.5, 10);
  fmm::Expansion w(p), u(p), u2(p);
  for (std::size_t i = 0; i < cloud.pos.size(); ++i)
    fmm::p2m(cloud.pos[i], cloud.q[i], cm, w);
  fmm::m2l(w, cm, cl, u);
  fmm::l2l(u, cl, cl2, u2);
  const Vec3 x = cl2 + Vec3{0.1, 0.15, -0.05};
  double phi1 = 0, phi2 = 0;
  Vec3 f1{}, f2{};
  fmm::l2p(u, cl, x, phi1, f1);
  fmm::l2p(u2, cl2, x, phi2, f2);
  EXPECT_NEAR(phi1, phi2, 1e-6 * std::max(1.0, std::abs(phi1)));
}

// ---------------------------------------------------------------------------
// Octree helpers

TEST(Octree, NeighborsCountsAndBounds) {
  // Corner box at level 2 has 7 neighbors, center box 26.
  std::vector<std::uint64_t> n;
  fmm::box_neighbors(2, domain::morton_encode(0, 0, 0), n);
  EXPECT_EQ(n.size(), 7u);
  fmm::box_neighbors(2, domain::morton_encode(1, 1, 1), n);
  EXPECT_EQ(n.size(), 26u);
  for (std::uint64_t key : n) EXPECT_LT(key, 64u);
}

TEST(Octree, InteractionListIsWellSeparatedAndComplete) {
  std::vector<std::uint64_t> ilist;
  const std::uint64_t key = domain::morton_encode(2, 1, 3);
  fmm::interaction_list(3, key, ilist);
  EXPECT_LE(ilist.size(), 189u);
  EXPECT_FALSE(ilist.empty());
  for (std::uint64_t src : ilist) {
    EXPECT_GE(fmm::box_distance(src, key), 2);
    // Parent must be adjacent to (or equal to) my parent.
    EXPECT_LE(fmm::box_distance(domain::morton_parent(src),
                                domain::morton_parent(key)),
              1);
  }
  // Completeness: every level-3 box is either adjacent, in the interaction
  // list, or its parent is far from my parent.
  for (std::uint32_t x = 0; x < 8; ++x)
    for (std::uint32_t y = 0; y < 8; ++y)
      for (std::uint32_t z = 0; z < 8; ++z) {
        const std::uint64_t b = domain::morton_encode(x, y, z);
        const bool adjacent = fmm::box_distance(b, key) <= 1;
        const bool listed =
            std::binary_search(ilist.begin(), ilist.end(), b);
        const bool parent_far = fmm::box_distance(domain::morton_parent(b),
                                                  domain::morton_parent(key)) > 1;
        EXPECT_TRUE(adjacent || listed || parent_far)
            << "box " << x << "," << y << "," << z << " unaccounted";
        EXPECT_LE(adjacent + listed + parent_far, 1 + (parent_far && listed));
      }
}

TEST(Octree, BoxCenters) {
  Box box({0, 0, 0}, {8, 8, 8}, {false, false, false});
  const Vec3 c = fmm::box_center(box, 2, domain::morton_encode(1, 2, 3));
  EXPECT_DOUBLE_EQ(c.x, 3.0);
  EXPECT_DOUBLE_EQ(c.y, 5.0);
  EXPECT_DOUBLE_EQ(c.z, 7.0);
}

// ---------------------------------------------------------------------------
// Full solver against the direct oracle

struct FmmOracle {
  std::vector<Vec3> pos;
  std::vector<double> q;
  std::vector<double> phi;
  std::vector<Vec3> field;
  Box box{{0, 0, 0}, {10, 10, 10}, {false, false, false}};
};

FmmOracle make_fmm_oracle(std::size_t n) {
  FmmOracle o;
  fcs::Rng rng(47);
  for (std::size_t i = 0; i < n; ++i) {
    o.pos.push_back(
        {rng.uniform(0.2, 9.8), rng.uniform(0.2, 9.8), rng.uniform(0.2, 9.8)});
    o.q.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  pm::direct_reference(o.pos, o.q, o.phi, o.field);
  return o;
}

class FmmSolverRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, FmmSolverRanks, ::testing::Values(1, 2, 4, 8));

TEST_P(FmmSolverRanks, MatchesDirectSum) {
  const int p = GetParam();
  const FmmOracle oracle = make_fmm_oracle(600);
  run_ranks(p, [&](mpi::Comm& c) {
    std::vector<Vec3> pos;
    std::vector<double> q;
    for (std::size_t i = 0; i < oracle.pos.size(); ++i) {
      if (static_cast<int>(i % p) != c.rank()) continue;
      pos.push_back(oracle.pos[i]);
      q.push_back(oracle.q[i]);
    }
    fmm::FmmSolver solver;
    solver.set_box(oracle.box);
    solver.set_accuracy(1e-3);
    solver.tune(c, pos, q);
    fcs::SolveOptions opts;
    auto result = solver.finish_solve(
        c, solver.begin_solve(c, pos, q, opts), opts);

    double err2 = 0, ref2 = 0, ferr2 = 0, fref2 = 0;
    for (std::size_t i = 0; i < result.positions.size(); ++i) {
      const std::size_t gi =
          static_cast<std::size_t>(redist::index_pos(result.origin[i])) * p +
          static_cast<std::size_t>(redist::index_rank(result.origin[i]));
      ASSERT_LT(gi, oracle.pos.size());
      err2 += std::pow(result.potentials[i] - oracle.phi[gi], 2);
      ref2 += std::pow(oracle.phi[gi], 2);
      ferr2 += (result.field[i] - oracle.field[gi]).norm2();
      fref2 += oracle.field[gi].norm2();
    }
    err2 = c.allreduce(err2, mpi::OpSum{});
    ref2 = c.allreduce(ref2, mpi::OpSum{});
    ferr2 = c.allreduce(ferr2, mpi::OpSum{});
    fref2 = c.allreduce(fref2, mpi::OpSum{});
    EXPECT_LT(std::sqrt(err2 / ref2), 2e-3);
    EXPECT_LT(std::sqrt(ferr2 / fref2), 5e-3);
  });
}

TEST(FmmSolverModes, MergeSortPathSameResult) {
  const FmmOracle oracle = make_fmm_oracle(400);
  run_ranks(4, [&](mpi::Comm& c) {
    std::vector<Vec3> pos;
    std::vector<double> q;
    for (std::size_t i = 0; i < oracle.pos.size(); ++i) {
      if (static_cast<int>(i % 4) != c.rank()) continue;
      pos.push_back(oracle.pos[i]);
      q.push_back(oracle.q[i]);
    }
    fmm::FmmSolver solver;
    solver.set_box(oracle.box);
    solver.set_accuracy(1e-2);
    solver.tune(c, pos, q);
    fcs::SolveOptions first;
    auto r1 = solver.finish_solve(
        c, solver.begin_solve(c, pos, q, first), first);
    EXPECT_FALSE(solver.last_used_merge_sort());

    fcs::SolveOptions second;
    second.input_in_solver_order = true;
    second.max_particle_move = 0.0;
    auto r2 = solver.finish_solve(
        c, solver.begin_solve(c, r1.positions, r1.charges, second),
        second);
    EXPECT_TRUE(solver.last_used_merge_sort());
    // Same particles, same totals.
    double e1 = 0, e2 = 0;
    for (std::size_t i = 0; i < r1.potentials.size(); ++i)
      e1 += r1.charges[i] * r1.potentials[i];
    for (std::size_t i = 0; i < r2.potentials.size(); ++i)
      e2 += r2.charges[i] * r2.potentials[i];
    e1 = c.allreduce(e1, mpi::OpSum{});
    e2 = c.allreduce(e2, mpi::OpSum{});
    EXPECT_NEAR(e1, e2, 1e-9 * std::abs(e1));
  });
}

TEST(FmmSolverModes, PeriodicBoxOnlyWithModeledCompute) {
  run_ranks(2, [](mpi::Comm& c) {
    Box box({0, 0, 0}, {4, 4, 4}, {true, true, true});
    fmm::FmmSolver solver;
    solver.set_box(box);
    std::vector<Vec3> pos = {{1.0 + c.rank(), 1, 1}};
    std::vector<double> q = {1.0};
    solver.tune(c, pos, q);
    fcs::SolveOptions opts;
    EXPECT_THROW(
        solver.finish_solve(c, solver.begin_solve(c, pos, q, opts), opts),
        fcs::Error);
    opts.modeled_compute = true;
    EXPECT_NO_THROW(
        solver.finish_solve(c, solver.begin_solve(c, pos, q, opts), opts));
  });
}

}  // namespace
