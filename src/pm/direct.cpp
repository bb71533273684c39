#include "pm/direct.hpp"

#include "pm/ewald.hpp"
#include "redist/resort.hpp"

namespace pm {

using domain::Vec3;

void direct_reference(const std::vector<domain::Vec3>& positions,
                      const std::vector<double>& charges,
                      std::vector<double>& potentials,
                      std::vector<domain::Vec3>& field) {
  const std::size_t n = positions.size();
  FCS_CHECK(charges.size() == n, "positions/charges size mismatch");
  potentials.assign(n, 0.0);
  field.assign(n, Vec3{});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const Vec3 d = positions[i] - positions[j];
      const double r2 = d.norm2();
      FCS_CHECK(r2 > 0, "coincident particles in direct sum");
      const double inv_r = 1.0 / std::sqrt(r2);
      const double inv_r3 = inv_r / r2;
      potentials[i] += charges[j] * inv_r;
      potentials[j] += charges[i] * inv_r;
      field[i] += d * (charges[j] * inv_r3);
      field[j] -= d * (charges[i] * inv_r3);
    }
  }
}

void DirectSolver::set_accuracy(double accuracy) {
  FCS_CHECK(accuracy > 0 && accuracy < 1, "accuracy must be in (0,1)");
  accuracy_ = accuracy;
}

void DirectSolver::tune(const mpi::Comm&, const std::vector<domain::Vec3>&,
                        const std::vector<double>&) {
  // Nothing to tune; parameters are derived per solve.
}

fcs::SolveStage DirectSolver::begin_solve(
    const mpi::Comm& comm, const std::vector<domain::Vec3>& positions,
    const std::vector<double>& charges, const fcs::SolveOptions&) {
  fcs::SolveStage stage;
  stage.partial.positions = positions;
  stage.partial.charges = charges;
  stage.partial.origin =
      redist::consecutive_origin_indices(comm.rank(), positions.size());
  return stage;
}

fcs::SolveResult DirectSolver::finish_solve(const mpi::Comm& comm,
                                            fcs::SolveStage&& stage,
                                            const fcs::SolveOptions&) {
  const double t0 = comm.ctx().now();
  fcs::SolveResult result = std::move(stage.partial);
  const std::vector<Vec3>& positions = result.positions;
  const std::vector<double>& charges = result.charges;

  // Gather the global system on every rank.
  const std::uint64_t n_local = positions.size();
  std::vector<std::uint64_t> counts_u64(static_cast<std::size_t>(comm.size()));
  comm.allgather(&n_local, 1, counts_u64.data());
  std::vector<std::size_t> counts(counts_u64.begin(), counts_u64.end());
  std::size_t n_total = 0, my_offset = 0;
  for (int r = 0; r < comm.size(); ++r) {
    if (r == comm.rank()) my_offset = n_total;
    n_total += counts[static_cast<std::size_t>(r)];
  }
  std::vector<Vec3> all_pos(n_total);
  std::vector<double> all_q(n_total);
  comm.allgatherv(positions.data(), counts, all_pos.data());
  comm.allgatherv(charges.data(), counts, all_q.data());

  std::vector<double> all_pot;
  std::vector<Vec3> all_field;
  if (box_.fully_periodic()) {
    const double rcut =
        0.45 * std::min({box_.extent().x, box_.extent().y, box_.extent().z});
    const EwaldParams params = tune_ewald(box_, rcut, accuracy_);
    ewald_reference(box_, all_pos, all_q, params, all_pot, all_field);
  } else {
    direct_reference(all_pos, all_q, all_pot, all_field);
  }
  comm.ctx().charge_ops(20.0 * static_cast<double>(n_total) *
                        static_cast<double>(n_total));

  result.potentials.assign(all_pot.begin() + static_cast<std::ptrdiff_t>(my_offset),
                           all_pot.begin() + static_cast<std::ptrdiff_t>(my_offset + n_local));
  result.field.assign(all_field.begin() + static_cast<std::ptrdiff_t>(my_offset),
                      all_field.begin() + static_cast<std::ptrdiff_t>(my_offset + n_local));
  result.times.compute = comm.ctx().now() - t0;
  result.times.total = result.times.compute;
  return result;
}

}  // namespace pm
