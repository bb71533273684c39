// Direct O(n^2) summation: the oracle for open-boundary systems and the
// "direct" baseline solver of the coupling library (allgather + local
// partial sums; no particle reordering at all, so its origin indices are the
// identity).
#pragma once

#include <memory>

#include "fcs/solver.hpp"

namespace pm {

/// Serial open-boundary direct sum (oracle for the FMM tests).
void direct_reference(const std::vector<domain::Vec3>& positions,
                      const std::vector<double>& charges,
                      std::vector<double>& potentials,
                      std::vector<domain::Vec3>& field);

/// Periodic direct solver: serial Ewald under the solver interface - every
/// rank allgathers all particles and computes the reference sum for its
/// local ones. Keeps the caller's particle order (identity origin indices).
/// Intended for tests, examples, and small systems.
class DirectSolver final : public fcs::Solver {
 public:
  std::string name() const override { return "direct"; }
  void set_box(const domain::Box& box) override { box_ = box; }
  void set_accuracy(double accuracy) override;
  void tune(const mpi::Comm& comm,
            const std::vector<domain::Vec3>& positions,
            const std::vector<double>& charges) override;
  /// Copies the local particles with identity origins; no communication.
  fcs::SolveStage begin_solve(const mpi::Comm& comm,
                              const std::vector<domain::Vec3>& positions,
                              const std::vector<double>& charges,
                              const fcs::SolveOptions& options) override;
  /// Allgathers the system and computes the reference sum.
  fcs::SolveResult finish_solve(const mpi::Comm& comm, fcs::SolveStage&& stage,
                                const fcs::SolveOptions& options) override;

 private:
  domain::Box box_;
  double accuracy_ = 1e-4;
};

}  // namespace pm
