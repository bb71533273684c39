// The fast multipole solver ("fmm").
//
// Data handling follows the paper's description of the ScaFaCoS FMM:
//  * particles are assigned the Z-Morton code of their leaf octree box and
//    sorted by it with the PARTITION-based parallel sort (all-to-all), or -
//    when the application reports a maximum movement below the side length
//    of a volume/P cube - with the MERGE-based sort (point-to-point Batcher
//    merge-exchange), exactly the paper's method switch;
//  * every rank then owns a contiguous Z-curve segment (paper Figure 2,
//    left);
//  * near-field partners adjacent to rank boundaries are exchanged as
//    ghosts with sparse point-to-point messages;
//  * the far field uses multipole expansions with M2M/M2L/L2L translations;
//    each level's multipole coefficients are summed with an allreduce over
//    the uniform level grid (a simplification of a distributed locally
//    essential tree - see DESIGN.md).
//
// The solver computes open-boundary Coulomb interactions; periodic boxes
// are supported only with modeled compute (benchmarks), since a periodic
// FMM would need lattice-sum operators the paper does not evaluate.
#pragma once

#include "domain/morton.hpp"
#include "fcs/solver.hpp"
#include "fmm/multipole.hpp"

namespace fmm {

class FmmSolver final : public fcs::Solver {
 public:
  std::string name() const override { return "fmm"; }
  void set_box(const domain::Box& box) override {
    box_ = box;
    tuned_ = false;
  }
  void set_accuracy(double accuracy) override {
    FCS_CHECK(accuracy > 0 && accuracy < 1, "accuracy must be in (0,1)");
    accuracy_ = accuracy;
    tuned_ = false;
  }
  /// Override the leaf level (0 = tuned from the particle count).
  void set_level(int level);
  /// Override the expansion order (0 = tuned from the accuracy).
  void set_order(int order);

  void tune(const mpi::Comm& comm,
            const std::vector<domain::Vec3>& positions,
            const std::vector<double>& charges) override;

  fcs::SolveStage begin_solve(const mpi::Comm& comm,
                              const std::vector<domain::Vec3>& positions,
                              const std::vector<double>& charges,
                              const fcs::SolveOptions& options) override;
  fcs::SolveResult finish_solve(const mpi::Comm& comm, fcs::SolveStage&& stage,
                                const fcs::SolveOptions& options) override;

  int level() const { return level_; }
  int order() const { return order_; }
  /// True if the last solve used the merge-based sort.
  bool last_used_merge_sort() const { return last_used_merge_sort_; }

 private:
  struct FmmParticle {
    domain::Vec3 pos;
    double charge;
    std::uint64_t key;
    std::uint64_t origin;
  };
  struct GhostParticle {
    domain::Vec3 pos;
    double charge;
    std::uint64_t key;
  };
  /// Private payload of a solve stage: the sorted particles (compute input)
  /// plus the communication regime the sort phase settled on.
  struct StageState {
    std::vector<FmmParticle> items;
    bool sparse_regime = false;
  };

  void compute_fields(const mpi::Comm& comm,
                      const std::vector<FmmParticle>& particles,
                      std::vector<double>& potentials,
                      std::vector<domain::Vec3>& field) const;

  domain::Box box_;
  double accuracy_ = 1e-3;
  int level_override_ = 0;
  int order_override_ = 0;
  int level_ = 3;
  int order_ = 8;
  bool tuned_ = false;
  bool last_used_merge_sort_ = false;
};

}  // namespace fmm
