// Cost-driven dynamic load balancing of the solver decompositions.
//
// The paper's coupled setup keeps both decompositions static, and the
// benchmark system is a near-uniform ionic crystal - so the dominant
// production failure mode of particle codes, persistent rank imbalance on
// inhomogeneous (clustered) systems, is neither generated nor corrected.
// This subsystem closes the loop, in the spirit of PetFMM's dynamic octree
// balancing and FDPS's weighted space-filling-curve repartitioning:
//
//  1. Cost model: after every solver run the fcs layer feeds the Balancer
//     this rank's measured virtual compute time plus the bytes it moved
//     through redist (both read from the obs clocks/counters). The Balancer
//     smooths a per-particle cost (EWMA) and computes the global imbalance
//     ratio max/mean of the per-rank loads.
//  2. Weighted repartitioning: the FMM recuts its Z-Morton curve segments
//     with sortlib::weighted_splitter_search (the partition sort's batched
//     collective bisection, generalized to per-rank weights); the PM grid
//     recuts its per-axis planes with lb::weighted_axis_cuts.
//  3. Incremental migration: when a recut only moves a small fraction of
//     the particles across the new boundaries, lb::incremental_migrate
//     ships just those movers point-to-point through the sparse ATASP
//     exchange - the paper's almost-sorted/max-movement regime applied to
//     rebalancing - instead of a full all-to-all repartition.
//
// Trigger with hysteresis: rebalancing engages when the imbalance ratio
// reaches `imbalance_trigger`, then keeps refining every `cooldown_epochs`
// solver runs until the ratio falls to `imbalance_trigger - hysteresis`;
// below that the decomposition is left untouched, so a system hovering at
// the threshold does not oscillate between layouts.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "minimpi/comm.hpp"
#include "support/serialize.hpp"

namespace lb {

struct LbConfig {
  /// Master switch; a default-constructed config leaves everything static.
  bool enabled = false;
  /// Start rebalancing when max/mean load reaches this ratio.
  double imbalance_trigger = 1.25;
  /// Stop rebalancing once the ratio falls to trigger - hysteresis.
  double hysteresis = 0.10;
  /// Minimum number of solver runs between two repartition plans.
  int cooldown_epochs = 1;
  /// Incremental migration handles at most this fraction of the global
  /// particle count; above it (or when the input is not in solver order)
  /// the full weighted repartition runs. 0 forces every rebalance to be a
  /// full repartition (the "periodic-full" baseline in bench_imbalance).
  double incremental_max_fraction = 0.25;
  /// Virtual seconds charged per exchanged byte in the load model, so
  /// communication-heavy ranks also count as loaded.
  double byte_cost = 1e-9;
  /// EWMA factor for the per-particle cost (1 = use only the last epoch).
  double smoothing = 0.5;
};

/// Per-handle balancer state: the smoothed cost model, the trigger state
/// machine, and the current decomposition plan (Z-curve splitters for the
/// FMM, per-axis cuts for the PM grid). All mutating calls are collective
/// and deterministic: every rank holds identical trigger/plan state, only
/// the per-particle weight is rank-local.
class Balancer {
 public:
  explicit Balancer(const LbConfig& cfg);

  bool active() const { return cfg_.enabled; }
  const LbConfig& config() const { return cfg_; }

  /// Feed one epoch of measurements: this rank's particle count and compute
  /// time of the solver run just finished. The bytes this rank moved since
  /// the previous observe() are read from the obs redist counters (zero
  /// when no recorder is attached). Collective; updates the imbalance
  /// ratio, the per-particle weight, and the trigger state machine.
  void observe(const mpi::Comm& comm, std::size_t n_local,
               double compute_time);

  /// Global imbalance ratio max/mean of the last observed epoch.
  double imbalance() const { return imbalance_; }
  /// This rank's smoothed per-particle cost (always > 0).
  double weight() const { return weight_; }

  /// Should the solver recompute its plan this run? True while the trigger
  /// is engaged and the cooldown since the last plan has passed.
  bool should_rebalance() const;
  /// The solver recomputed its plan (collective by construction).
  void note_rebalanced() { epochs_since_plan_ = 0; }

  // --- The current plan, owned here so it survives across solver runs ----
  bool has_splitters() const { return have_splitters_; }
  const std::vector<std::uint64_t>& splitters() const { return splitters_; }
  void set_splitters(std::vector<std::uint64_t> splitters);

  bool has_cuts() const { return have_cuts_; }
  const std::array<std::vector<double>, 3>& cuts() const { return cuts_; }
  void set_cuts(std::array<std::vector<double>, 3> cuts);

  /// Checkpoint the mutable state (weight, trigger machine, current plan) -
  /// the config is reconstructed by the restoring side, not saved.
  void save(fcs::ByteWriter& w) const;
  void load(fcs::ByteReader& r);

 private:
  LbConfig cfg_;
  double weight_ = 1.0;
  bool have_weight_ = false;
  double imbalance_ = 1.0;
  bool triggered_ = false;
  int epochs_since_plan_ = 1 << 30;
  double last_bytes_ = 0.0;
  bool have_splitters_ = false;
  std::vector<std::uint64_t> splitters_;
  bool have_cuts_ = false;
  std::array<std::vector<double>, 3> cuts_;
};

}  // namespace lb
