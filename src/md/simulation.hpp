// The particle dynamics simulation driver - the paper's Figure 3 pseudocode
// with both coupling methods, per-step phase timing, and an optional
// surrogate motion model for the long benchmark runs.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "fcs/fcs.hpp"
#include "md/integrator.hpp"
#include "md/system.hpp"

namespace md {

struct SimulationConfig {
  /// The system box (same one given to handle.set_common); used to wrap
  /// positions after each integration step.
  domain::Box box;
  double dt = 0.01;
  int steps = 8;
  /// Method B: keep the solver order, resort velocities/accelerations.
  bool resort = false;
  /// Hand the per-step maximum movement to the solver (method B + movement).
  bool exploit_max_movement = false;
  /// Capacity factor: max_local = factor * initial local count (0 = off).
  double max_local_factor = 4.0;
  /// Benchmarks: model the force computation's virtual time.
  bool modeled_compute = false;
  /// Benchmarks: replace force integration by a bounded random displacement
  /// of `surrogate_step` per time step (same redistribution behaviour as a
  /// thermal system, without O(n log n) force math per step). The reported
  /// max movement is exact.
  bool surrogate_motion = false;
  double surrogate_step = 0.0;
  std::uint64_t surrogate_seed = 7;
  /// Coherent per-step displacement added to every particle on top of the
  /// surrogate jitter: the whole pattern (e.g. the clustered hotspots of
  /// InitialDistribution::kClustered) slides across the periodic box, so a
  /// static decomposition's load peaks wander between ranks - the moving
  /// target bench_imbalance points the load balancer at.
  domain::Vec3 surrogate_drift{};
  /// Dynamic load balancing (src/lb), forwarded to the fcs handle before
  /// tuning. Default-disabled: the decompositions stay static.
  lb::LbConfig lb{};
  /// Adaptive redistribution planning (src/plan), forwarded to the fcs
  /// handle before tuning. When the planner is active it picks
  /// method/sort/exchange per step, `resort` and `exploit_max_movement`
  /// above are ignored, and the movement bound is always reported to the
  /// handle (the planner decides whether to use it).
  plan::PlanConfig plan{};
  /// Overlapped fcs_run (fcs::RunOptions::overlap): the integrator fields
  /// are staged into every run and travel while the forces compute.
  bool overlap = false;
  /// In-memory buddy checkpointing (src/fcs/checkpoint.hpp): snapshot the
  /// recovery state every this many MD steps (plus once right after the
  /// initial solver run). 0 disables checkpointing, which makes any rank
  /// failure fatal.
  int checkpoint_interval = 0;
  /// Rank-failure recovery factory: build a fresh fcs handle on the shrunk
  /// communicator, configured exactly like the original (same solver, box,
  /// accuracy, solver knobs). Required for recovery - a RankFailedError is
  /// rethrown when it is missing; tuning, planner/balancer attachment and
  /// adaptation-state restore are the driver's job, not the factory's.
  std::function<std::unique_ptr<fcs::Fcs>(const mpi::Comm&)> rebuild_handle;
  /// Robustness testing: per-rank probability that, each time step, one
  /// local particle teleports to a uniform random box position WITHOUT
  /// raising the reported max movement - a deliberate violation of the
  /// max-movement contract. The solvers must detect it and fall back to the
  /// dense all-to-all (obs counter "redist.fallback") instead of losing the
  /// particle. Teleports are counted as "md.rogue".
  double rogue_rate = 0.0;
  std::uint64_t rogue_seed = 99;
  /// Benchmarks: extra per-particle Vec3 payload arrays that travel with
  /// every method-B resort (staged through the fcs handle, fused into the
  /// same exchange as the integrator fields). Models production MD codes
  /// whose particles carry more state than velocity + acceleration (old
  /// forces, virials, per-particle history); bench_overlap uses it to set
  /// the redistribution share of a step.
  std::size_t extra_vec3_fields = 0;
  /// Stage the integrator fields (velocities, accelerations, extra payload)
  /// into every run (fcs::Fcs::stage_vec3), so a phased method-B run ships
  /// them inside the solver's own redistribution exchange when the active
  /// path can carry them - instead of a ResortBatch round after the run.
  /// Overlapped runs (overlap) always stage them. Physics results and the
  /// final state checksum are bit-identical to the ResortBatch path.
  bool stage_fields = false;
};

/// Phase times of one fcs_run, reduced with max over ranks.
fcs::PhaseTimes reduce_phase_max(const mpi::Comm& comm,
                                 const fcs::PhaseTimes& times);

struct SimulationResult {
  /// Per solver execution (steps + 1 entries: initial run first), max over
  /// ranks.
  std::vector<fcs::PhaseTimes> step_times;
  /// Was each run returned in solver order (method B active)?
  std::vector<bool> resorted;
  /// Total virtual time of the whole simulation (max final clock delta).
  double total_time = 0.0;
  /// Compute imbalance ratio (max/mean over ranks of the compute phase) of
  /// every solver execution, aligned with step_times. The bench_imbalance
  /// convergence criterion reads this series.
  std::vector<double> compute_imbalance;
  /// Potential energy after the first and last solver runs (diagnostics;
  /// meaningless under surrogate motion with modeled compute).
  double energy_first = 0.0;
  double energy_last = 0.0;
  /// Concatenated 3-char decision codes of the planner, one per solver
  /// execution (empty when planning is off). Identical on every rank; the
  /// CI determinism leg compares it across reruns.
  std::string plan_decisions;
  /// Rank-LOCAL checksum of the final per-particle state (positions,
  /// charges, velocities, accelerations, extra payload) - computed with no
  /// communication, so it never perturbs the virtual-time makespans. For
  /// the same inputs the ResortBatch and the staged path (stage_fields)
  /// produce the same value on every rank; the fig7 Bs leg compares it.
  std::uint64_t state_checksum = 0;
};

/// Run the Figure 3 loop: tune, initial interactions, `steps` time steps.
/// `handle` must have box and solver parameters configured. Collective.
///
/// Fault tolerance: with checkpointing enabled (cfg.checkpoint_interval > 0)
/// and a rebuild_handle factory configured, a rank failure under the sim
/// fault plan is survived: the remaining ranks agree on the dead set, shrink
/// the communicator, the buddy of each dead rank re-hosts its particle shard
/// (extra payload fields included) from the guarded checkpoint, and the loop
/// rolls back to the checkpointed step and replays deterministically (see
/// DESIGN.md §13). Without checkpointing the RankFailedError propagates.
SimulationResult run_simulation(const mpi::Comm& comm, fcs::Fcs& handle,
                                LocalParticles& particles,
                                const SimulationConfig& cfg);

}  // namespace md
