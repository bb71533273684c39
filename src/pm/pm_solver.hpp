// The particle-mesh solver ("pm") - this library's stand-in for the P2NFFT
// solver of the paper (both are Ewald-like particle-mesh methods; see
// DESIGN.md for the substitution notes).
//
// Domain decomposition and data handling follow the paper exactly:
//  * particles are distributed uniformly over a Cartesian process grid;
//    the target rank of a particle is computed from its position;
//  * the redistribution step duplicates particles near subdomain boundaries
//    as ghosts (fine-grained redistribution with a user-defined distribution
//    function, paper refs [13], [14]);
//  * the real-space part runs a linked-cell algorithm over owned + ghost
//    particles; the k-space part assigns charges to a mesh, solves with the
//    distributed FFT, and interpolates potentials/fields back;
//  * with max-movement information (method B), the all-to-all redistribution
//    is replaced by point-to-point neighborhood communication.
#pragma once

#include <memory>
#include <optional>

#include "domain/cart_grid.hpp"
#include "fcs/solver.hpp"
#include "pm/dist_fft.hpp"
#include "pm/ewald.hpp"

namespace pm {

class PmSolver final : public fcs::Solver {
 public:
  std::string name() const override { return "pm"; }
  void set_box(const domain::Box& box) override;
  void set_accuracy(double accuracy) override { accuracy_ = accuracy; }
  /// Real-space cutoff radius (paper benchmark: 4.8).
  void set_cutoff(double rcut);
  /// Override the mesh size (one power of two for all axes); 0 = tuned.
  void set_mesh(std::size_t mesh);

  void tune(const mpi::Comm& comm,
            const std::vector<domain::Vec3>& positions,
            const std::vector<double>& charges) override;

  fcs::SolveStage begin_solve(const mpi::Comm& comm,
                              const std::vector<domain::Vec3>& positions,
                              const std::vector<double>& charges,
                              const fcs::SolveOptions& options) override;
  fcs::SolveResult finish_solve(const mpi::Comm& comm, fcs::SolveStage&& stage,
                                const fcs::SolveOptions& options) override;

  /// Tuned parameters (exposed for tests and benchmarks).
  const EwaldParams& params() const { return params_; }
  const std::array<std::size_t, 3>& mesh() const { return mesh_; }
  /// True if the last solve used neighborhood (p2p) communication.
  bool last_used_neighborhood() const { return last_used_neighborhood_; }

 private:
  struct PmParticle {
    domain::Vec3 pos;
    double charge;
    std::uint64_t origin;
  };

  /// Private payload of a solve stage: the redistributed particles (owned
  /// first, then ghosts), the grid they live on, and the communication
  /// regime the sort phase settled on.
  struct StageState {
    domain::CartGrid grid;
    std::vector<PmParticle> received;
    std::size_t n_owned = 0;
    bool neighborhood_ok = false;
  };

  void compute_fields(const mpi::Comm& comm, const domain::CartGrid& grid,
                      const std::vector<PmParticle>& particles,
                      std::size_t n_owned, std::vector<double>& potentials,
                      std::vector<domain::Vec3>& field) const;

  domain::Box box_;
  double accuracy_ = 1e-3;
  double rcut_ = 0.0;          // 0 = derive in tune()
  std::size_t mesh_override_ = 0;
  bool tuned_ = false;
  EwaldParams params_;
  std::array<std::size_t, 3> mesh_{32, 32, 32};
  bool last_used_neighborhood_ = false;
};

}  // namespace pm
