#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "pm/charge_grid.hpp"
#include "pm/direct.hpp"
#include "pm/dist_fft.hpp"
#include "pm/ewald.hpp"
#include "pm/fft.hpp"
#include "pm/pm_solver.hpp"
#include "redist/resort.hpp"
#include "spmd_test_util.hpp"
#include "support/rng.hpp"

using domain::Box;
using domain::Vec3;
using fcs_test::run_ranks;

namespace {

// ---------------------------------------------------------------------------
// FFT

TEST(Fft, MatchesNaiveDft) {
  fcs::Rng rng(31);
  for (std::size_t n : {1u, 2u, 8u, 64u, 256u}) {
    std::vector<pm::Complex> data(n);
    for (auto& c : data) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    auto expected = pm::dft_reference(data, -1);
    auto fftd = data;
    pm::fft(fftd, -1);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(fftd[i].real(), expected[i].real(), 1e-9);
      EXPECT_NEAR(fftd[i].imag(), expected[i].imag(), 1e-9);
    }
  }
}

TEST(Fft, RoundTripScalesByN) {
  fcs::Rng rng(32);
  std::vector<pm::Complex> data(128);
  for (auto& c : data) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto copy = data;
  pm::fft(copy, -1);
  pm::fft(copy, +1);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(copy[i].real(), 128.0 * data[i].real(), 1e-9);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<pm::Complex> data(12);
  EXPECT_THROW(pm::fft(data, -1), fcs::Error);
}

TEST(Fft, ThreeDimensionalRoundTrip) {
  fcs::Rng rng(33);
  const std::size_t nx = 4, ny = 8, nz = 2;
  std::vector<pm::Complex> mesh(nx * ny * nz);
  for (auto& c : mesh) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto copy = mesh;
  pm::fft3d(copy, nx, ny, nz, -1);
  pm::fft3d(copy, nx, ny, nz, +1);
  const double scale = static_cast<double>(nx * ny * nz);
  for (std::size_t i = 0; i < mesh.size(); ++i)
    EXPECT_NEAR(copy[i].real(), scale * mesh[i].real(), 1e-9);
}

class DistFftRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, DistFftRanks, ::testing::Values(1, 2, 3, 4, 7, 8));

TEST_P(DistFftRanks, MatchesSerial3dFft) {
  const int p = GetParam();
  const std::size_t nx = 8, ny = 4, nz = 4;
  // Build the same global mesh on all ranks (deterministic).
  std::vector<pm::Complex> global(nx * ny * nz);
  fcs::Rng rng(34);
  for (auto& c : global) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto expected = global;
  pm::fft3d(expected, nx, ny, nz, -1);

  run_ranks(p, [&](mpi::Comm& c) {
    pm::DistFft3d fft(c, nx, ny, nz);
    std::vector<pm::Complex> slab(fft.slab_planes() * ny * nz);
    for (std::size_t i = 0; i < slab.size(); ++i)
      slab[i] = global[fft.slab_begin() * ny * nz + i];
    fft.forward(slab);
    for (std::size_t i = 0; i < slab.size(); ++i) {
      EXPECT_NEAR(slab[i].real(),
                  expected[fft.slab_begin() * ny * nz + i].real(), 1e-9);
      EXPECT_NEAR(slab[i].imag(),
                  expected[fft.slab_begin() * ny * nz + i].imag(), 1e-9);
    }
    // Backward returns the scaled original.
    fft.backward(slab);
    const double scale = static_cast<double>(nx * ny * nz);
    for (std::size_t i = 0; i < slab.size(); ++i)
      EXPECT_NEAR(slab[i].real(),
                  scale * global[fft.slab_begin() * ny * nz + i].real(), 1e-8);
  });
}

TEST(DistFft, PlaneOwnership) {
  run_ranks(3, [](mpi::Comm& c) {
    pm::DistFft3d fft(c, 8, 4, 4);
    for (std::size_t x = 0; x < 8; ++x) {
      const int owner = fft.owner_of_plane(x);
      EXPECT_GE(owner, 0);
      EXPECT_LT(owner, 3);
    }
    // My own planes are owned by me.
    for (std::size_t x = fft.slab_begin(); x < fft.slab_end(); ++x)
      EXPECT_EQ(fft.owner_of_plane(x), c.rank());
  });
}

// ---------------------------------------------------------------------------
// CIC charge assignment

TEST(Cic, WeightsSumToOneAndAreLocal) {
  Box box({0, 0, 0}, {10, 10, 10}, {true, true, true});
  const std::array<std::size_t, 3> mesh{8, 8, 8};
  fcs::Rng rng(35);
  for (int t = 0; t < 200; ++t) {
    const Vec3 pos{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)};
    const auto stencil = pm::cic_stencil(box, mesh, pos);
    double sum = 0;
    for (const auto& pt : stencil) {
      EXPECT_GE(pt.weight, 0.0);
      EXPECT_LT(pt.cell, 512u);
      sum += pt.weight;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Cic, ParticleAtCellCenterUsesOneCell) {
  Box box({0, 0, 0}, {8, 8, 8}, {true, true, true});
  const std::array<std::size_t, 3> mesh{8, 8, 8};
  // Cell (2,3,4) center is at (2.5, 3.5, 4.5).
  const auto stencil = pm::cic_stencil(box, mesh, {2.5, 3.5, 4.5});
  double wmax = 0;
  std::uint64_t argmax = 0;
  for (const auto& pt : stencil)
    if (pt.weight > wmax) {
      wmax = pt.weight;
      argmax = pt.cell;
    }
  EXPECT_NEAR(wmax, 1.0, 1e-12);
  EXPECT_EQ(argmax, (2u * 8 + 3) * 8 + 4);
}

TEST(Influence, ZeroModeAndSymmetry) {
  Box box({0, 0, 0}, {10, 10, 10}, {true, true, true});
  const std::array<std::size_t, 3> mesh{16, 16, 16};
  EXPECT_EQ(pm::influence(box, mesh, {0, 0, 0}, 1.0), 0.0);
  // G(k) = G(-k): index m and M - m.
  const double a = pm::influence(box, mesh, {3, 5, 7}, 1.0);
  const double b = pm::influence(box, mesh, {13, 11, 9}, 1.0);
  EXPECT_NEAR(a, b, 1e-12 * std::abs(a));
  EXPECT_GT(a, 0.0);
}

// ---------------------------------------------------------------------------
// Ewald reference

// NaCl rock salt: Madelung constant -1.747564594633...
TEST(Ewald, ReproducesMadelungConstant) {
  // 4x4x4 unit cube lattice of alternating charges, spacing 1.
  const int m = 4;
  Box box({0, 0, 0}, {double(m), double(m), double(m)}, {true, true, true});
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int x = 0; x < m; ++x)
    for (int y = 0; y < m; ++y)
      for (int z = 0; z < m; ++z) {
        pos.push_back({x + 0.5, y + 0.5, z + 0.5});
        q.push_back(((x + y + z) % 2 == 0) ? 1.0 : -1.0);
      }
  const pm::EwaldParams params = pm::tune_ewald(box, 1.9, 1e-6);
  std::vector<double> phi;
  std::vector<Vec3> field;
  pm::ewald_reference(box, pos, q, params, phi, field);
  // Each ion sees phi_i = q_i * M / a with a = 1 (nearest-neighbor distance).
  const double madelung = -1.7475645946;
  for (std::size_t i = 0; i < pos.size(); ++i)
    EXPECT_NEAR(phi[i] / q[i], madelung, 5e-4);
  // Fields vanish by symmetry on the perfect lattice.
  for (const Vec3& e : field) EXPECT_LT(e.norm(), 1e-6);
}

TEST(Ewald, FieldIsMinusEnergyGradient) {
  // U = 1/2 sum q_i phi_i; force on particle k = q_k E_k = -dU/dr_k.
  Box box({0, 0, 0}, {6, 6, 6}, {true, true, true});
  fcs::Rng rng(36);
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int i = 0; i < 12; ++i) {
    pos.push_back({rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0, 6)});
    q.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  const pm::EwaldParams params = pm::tune_ewald(box, 2.4, 1e-8);
  std::vector<double> phi;
  std::vector<Vec3> field;
  pm::ewald_reference(box, pos, q, params, phi, field);

  const double h = 1e-5;
  for (std::size_t k = 0; k < 3; ++k) {  // a few particles suffice
    for (int d = 0; d < 3; ++d) {
      auto shifted = pos;
      shifted[k][d] += h;
      std::vector<double> phi_p, phi_m;
      std::vector<Vec3> f_unused;
      pm::ewald_reference(box, shifted, q, params, phi_p, f_unused);
      shifted[k][d] -= 2 * h;
      pm::ewald_reference(box, shifted, q, params, phi_m, f_unused);
      const double up = pm::total_energy(q, phi_p);
      const double um = pm::total_energy(q, phi_m);
      const double force_fd = -(up - um) / (2 * h);
      EXPECT_NEAR(q[k] * field[k][d], force_fd,
                  5e-4 * std::max(1.0, std::abs(force_fd)));
    }
  }
}

TEST(Ewald, InsensitiveToSplittingParameter) {
  // The physical result must not depend on alpha/rcut/kmax choices.
  Box box({0, 0, 0}, {5, 5, 5}, {true, true, true});
  fcs::Rng rng(37);
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int i = 0; i < 10; ++i) {
    pos.push_back({rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)});
    q.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  std::vector<double> phi_a, phi_b;
  std::vector<Vec3> f_a, f_b;
  pm::ewald_reference(box, pos, q, pm::tune_ewald(box, 2.0, 1e-8), phi_a, f_a);
  pm::ewald_reference(box, pos, q, pm::tune_ewald(box, 1.4, 1e-8), phi_b, f_b);
  for (std::size_t i = 0; i < pos.size(); ++i)
    EXPECT_NEAR(phi_a[i], phi_b[i], 1e-5 * std::max(1.0, std::abs(phi_a[i])));
}

TEST(Direct, TwoBodyValues) {
  std::vector<Vec3> pos = {{0, 0, 0}, {2, 0, 0}};
  std::vector<double> q = {3.0, -2.0};
  std::vector<double> phi;
  std::vector<Vec3> field;
  pm::direct_reference(pos, q, phi, field);
  EXPECT_DOUBLE_EQ(phi[0], -1.0);   // -2 / 2
  EXPECT_DOUBLE_EQ(phi[1], 1.5);    // 3 / 2
  EXPECT_DOUBLE_EQ(field[0].x, 0.5);   // -2 * (-2)/8
  EXPECT_DOUBLE_EQ(field[1].x, 0.75);  // 3 * 2/8
}

// ---------------------------------------------------------------------------
// PM solver against the Ewald oracle

struct PmOracle {
  std::vector<Vec3> pos;
  std::vector<double> q;
  std::vector<double> phi;
  std::vector<Vec3> field;
  Box box{{0, 0, 0}, {8, 8, 8}, {true, true, true}};
};

PmOracle make_pm_oracle(std::size_t n) {
  PmOracle o;
  fcs::Rng rng(38);
  // Jittered ionic lattice: near-neutral and homogeneous like the paper's
  // silica system.
  const int m = static_cast<int>(std::round(std::cbrt(double(n))));
  for (int x = 0; x < m; ++x)
    for (int y = 0; y < m; ++y)
      for (int z = 0; z < m; ++z) {
        Vec3 p{(x + 0.5) * 8.0 / m, (y + 0.5) * 8.0 / m, (z + 0.5) * 8.0 / m};
        p.x += rng.uniform(-0.3, 0.3);
        p.y += rng.uniform(-0.3, 0.3);
        p.z += rng.uniform(-0.3, 0.3);
        o.pos.push_back(o.box.wrap(p));
        o.q.push_back(((x + y + z) % 2 == 0) ? 1.0 : -1.0);
      }
  pm::ewald_reference(o.box, o.pos, o.q, pm::tune_ewald(o.box, 2.8, 1e-8),
                      o.phi, o.field);
  return o;
}

class PmSolverRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, PmSolverRanks, ::testing::Values(1, 2, 4, 8));

TEST_P(PmSolverRanks, MatchesEwaldReference) {
  const int p = GetParam();
  const PmOracle oracle = make_pm_oracle(6 * 6 * 6);
  run_ranks(p, [&](mpi::Comm& c) {
    // Deal particles round-robin to the ranks.
    std::vector<Vec3> pos;
    std::vector<double> q;
    std::vector<std::size_t> global_index;
    for (std::size_t i = 0; i < oracle.pos.size(); ++i) {
      if (static_cast<int>(i % p) != c.rank()) continue;
      pos.push_back(oracle.pos[i]);
      q.push_back(oracle.q[i]);
      global_index.push_back(i);
    }
    pm::PmSolver solver;
    solver.set_box(oracle.box);
    solver.set_accuracy(1e-3);
    solver.set_cutoff(2.2);
    solver.set_mesh(32);
    solver.tune(c, pos, q);
    fcs::SolveOptions opts;
    auto result = solver.finish_solve(
        c, solver.begin_solve(c, pos, q, opts), opts);

    // Match results back to the oracle through the origin indices.
    double err2 = 0, ref2 = 0;
    for (std::size_t i = 0; i < result.positions.size(); ++i) {
      const int src_rank = redist::index_rank(result.origin[i]);
      const auto src_pos = redist::index_pos(result.origin[i]);
      // Reconstruct the global index the same way the input was dealt.
      const std::size_t gi = static_cast<std::size_t>(src_pos) * p +
                             static_cast<std::size_t>(src_rank);
      ASSERT_LT(gi, oracle.pos.size());
      err2 += std::pow(result.potentials[i] - oracle.phi[gi], 2);
      ref2 += std::pow(oracle.phi[gi], 2);
      const Vec3 df = result.field[i] - oracle.field[gi];
      EXPECT_LT(df.norm(), 0.25) << "field deviates strongly at " << gi;
    }
    err2 = c.allreduce(err2, mpi::OpSum{});
    ref2 = c.allreduce(ref2, mpi::OpSum{});
    EXPECT_LT(std::sqrt(err2 / ref2), 0.03);

    // Total energy to the paper's 1e-3 band.
    double e_local = 0;
    for (std::size_t i = 0; i < result.charges.size(); ++i)
      e_local += result.charges[i] * result.potentials[i];
    const double e_pm = 0.5 * c.allreduce(e_local, mpi::OpSum{});
    const double e_ref = pm::total_energy(oracle.q, oracle.phi);
    EXPECT_NEAR(e_pm, e_ref, 2e-3 * std::abs(e_ref));
  });
}

TEST(PmSolverModes, NeighborhoodPathProducesSameResult) {
  // Feed the solver its own output (method B style) with a small movement:
  // it must switch to neighborhood communication and produce identical
  // physics.
  const PmOracle oracle = make_pm_oracle(5 * 5 * 5);
  run_ranks(8, [&](mpi::Comm& c) {
    std::vector<Vec3> pos;
    std::vector<double> q;
    for (std::size_t i = 0; i < oracle.pos.size(); ++i) {
      if (static_cast<int>(i % 8) != c.rank()) continue;
      pos.push_back(oracle.pos[i]);
      q.push_back(oracle.q[i]);
    }
    pm::PmSolver solver;
    solver.set_box(oracle.box);
    solver.set_accuracy(1e-3);
    solver.set_cutoff(1.9);
    solver.set_mesh(32);
    solver.tune(c, pos, q);

    fcs::SolveOptions first;
    auto r1 = solver.finish_solve(
        c, solver.begin_solve(c, pos, q, first), first);
    EXPECT_FALSE(solver.last_used_neighborhood());

    fcs::SolveOptions second;
    second.input_in_solver_order = true;
    second.max_particle_move = 0.0;
    auto r2 = solver.finish_solve(
        c, solver.begin_solve(c, r1.positions, r1.charges, second),
        second);
    EXPECT_TRUE(solver.last_used_neighborhood());
    ASSERT_EQ(r1.potentials.size(), r2.potentials.size());
    for (std::size_t i = 0; i < r1.potentials.size(); ++i)
      EXPECT_NEAR(r1.potentials[i], r2.potentials[i], 1e-9);
  });
}

}  // namespace
