// The public coupling interface - this library's equivalent of the
// ScaFaCoS "fcs" API the paper is about.
//
//   fcs::Fcs handle(comm, "fmm");          // fcs_init
//   handle.set_common(box);                 // fcs_set_common
//   handle.tune(positions, charges);        // fcs_tune
//   handle.run(positions, charges,          // fcs_run
//              potentials, field, opts);
//   handle.resort_vec3(velocities);         // fcs_resort_floats
//
// Two coupling methods (paper Section III):
//  * method A (opts.resort = false): the solver's reordering and
//    redistribution stays hidden; potentials and fields come back in the
//    caller's original particle order and distribution.
//  * method B (opts.resort = true): the solver-specific order and
//    distribution is returned (positions/charges arrays are REPLACED), and
//    the run builds a resort plan from its resort indices, so additional
//    per-particle data can follow via resort_floats/resort_ints/resort_vec3
//    or a ResortBatch - each a plan apply - or be staged into the run, where
//    it rides the solver's own exchange when the active path can carry it.
//    If any rank's changed particle count exceeds opts.max_local, the
//    library falls back to restoring (query with last_run_resorted(), paper
//    Sect. III-B).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "fcs/solver.hpp"
#include "lb/lb.hpp"
#include "plan/planner.hpp"
#include "redist/resort.hpp"

namespace fcs {

class Fcs;

/// Batches several per-particle fields onto the active resort plan so they
/// travel in ONE fused exchange - a single multi-segment message per partner
/// pair - instead of one plan apply per field. Results are bit-identical
/// either way.
///
///   fcs::ResortBatch batch = handle.resort_batch();
///   batch.add_vec3(particles.vel).add_vec3(particles.acc);
///   batch.run();
class ResortBatch {
 public:
  /// Queue `components` doubles per original particle; `values` is replaced
  /// (resized to the changed count) by run().
  ResortBatch& add_floats(std::vector<double>& values, std::size_t components);
  ResortBatch& add_ints(std::vector<std::int64_t>& values,
                        std::size_t components);
  ResortBatch& add_vec3(std::vector<domain::Vec3>& values);
  /// Execute the exchange(s). Collective; the batch is empty afterwards.
  void run();

 private:
  friend class Fcs;
  explicit ResortBatch(Fcs& fcs) : fcs_(&fcs) {}
  /// One caller vector holding `components` values per particle; every use
  /// (batch segment, carried column, checksum) is a std::visit over `vec`.
  struct Field {
    std::variant<std::vector<double>*, std::vector<std::int64_t>*,
                 std::vector<domain::Vec3>*>
        vec;
    std::size_t components;
  };
  /// Add every field as one segment of `batch` (shared with the fields
  /// staged into a run).
  static void queue(redist::FusedBatch& batch,
                    const std::vector<Field>& fields);
  Fcs* fcs_;
  std::vector<Field> fields_;
};

/// Create a solver by name: "fmm", "pm" (alias "p2nfft"), or "direct".
std::unique_ptr<Solver> create_solver(const std::string& method);

struct RunOptions {
  bool resort = false;             // method B
  double max_particle_move = -1.0;  // hint for the solver heuristics
  std::size_t max_local = 0;        // array capacity; 0 = unbounded
  bool modeled_compute = false;     // benchmarks: model the force math
  /// Overlap a resorting run's redistribution with the force computation
  /// through the task graph and the progress engine. Results are
  /// bit-identical to the phased schedule; only the virtual-time schedule
  /// differs. Must be the same on every rank.
  bool overlap = false;
};

struct RunResult {
  bool resorted = false;   // arrays now follow the solver order
  std::size_t n_local = 0;  // local particle count after the run
  PhaseTimes times;
};

class Fcs {
 public:
  /// fcs_init: choose the solver method; the communicator is captured.
  Fcs(const mpi::Comm& comm, const std::string& method);

  /// fcs_set_common: particle system box (offset/extent/periodicity).
  void set_common(const domain::Box& box);
  void set_accuracy(double accuracy);
  /// Access to solver-specific setters (cutoff, mesh, order, ...).
  Solver& solver() { return *solver_; }
  const Solver& solver() const { return *solver_; }

  /// Enable dynamic load balancing (src/lb) as a tuning mode: the solver
  /// decomposition follows the balancer's cost-weighted plan, re-cut when
  /// the observed imbalance ratio crosses the configured trigger. Call
  /// before the first run; collective in effect (all ranks must configure
  /// identically, like every other setter).
  void set_load_balance(const lb::LbConfig& cfg);
  /// The balancer driving this handle (null when load balancing is off).
  lb::Balancer* balancer() { return balancer_.get(); }

  /// Enable the adaptive redistribution planner (src/plan): before each run
  /// it picks coupling method / sort algorithm / exchange pattern, overriding
  /// RunOptions::resort and the solvers' built-in heuristics. In kFixed mode
  /// the planner is communication-free, so fixed plans replay the legacy
  /// virtual-time behaviour bit-identically. Call before the first run;
  /// collective in effect. A kOff config removes the planner.
  void set_plan(const plan::PlanConfig& cfg);
  /// The planner driving this handle (null when planning is off).
  plan::Planner* planner() { return planner_.get(); }
  const plan::Planner* planner() const { return planner_.get(); }

  /// fcs_tune. Collective.
  void tune(const std::vector<domain::Vec3>& positions,
            const std::vector<double>& charges);

  /// fcs_run. Collective. potentials/field are resized to the output count.
  /// With method B, positions/charges are replaced by the solver-ordered
  /// arrays (unless the capacity fallback hits - check the result).
  RunResult run(std::vector<domain::Vec3>& positions,
                std::vector<double>& charges,
                std::vector<double>& potentials,
                std::vector<domain::Vec3>& field,
                const RunOptions& options = {});

  /// Paper's query function: did the last run return the changed order?
  bool last_run_resorted() const { return last_resorted_; }
  /// Local particle count of the changed distribution.
  std::size_t resort_particle_count() const { return resort_n_changed_; }

  /// fcs_resort_floats: move `components` doubles per original particle
  /// into the changed order through the run's resort plan; `values` is
  /// replaced (resized to the changed count). Only valid while
  /// last_run_resorted().
  void resort_floats(std::vector<double>& values, std::size_t components) const;
  /// fcs_resort_ints.
  void resort_ints(std::vector<std::int64_t>& values,
                   std::size_t components) const;
  /// Convenience for Vec3-per-particle data (velocities, accelerations).
  void resort_vec3(std::vector<domain::Vec3>& values) const;

  /// Start a fused multi-field resort (see ResortBatch). Only valid while
  /// last_run_resorted().
  ResortBatch resort_batch();

  /// Queue per-particle data to travel WITH the next run instead of a
  /// separate resort_* call afterwards. If that run resorts (method B),
  /// `values` is replaced (resized to the changed count):
  ///  * phased: the solver ships the staged fields inside its own
  ///    redistribution exchange when its active path can carry them
  ///    (SolveResult::fields_carried), otherwise they follow in the run's
  ///    one fused batch over the resort plan;
  ///  * overlapped (RunOptions::overlap): they stay out of the sort exchange
  ///    and travel in slabs while the forces compute.
  /// If the run restores instead, the staged fields are left untouched; a
  /// capacity fallback after the solver carried them sends every row home
  /// again. `values` must hold exactly `components` values per local
  /// particle, and a vector may be staged once per run - the run rejects
  /// anything else before the solve. The queue is cleared by the run
  /// either way. All ranks must stage the same sequence of fields
  /// (collective symmetry), and the referenced vectors must stay alive
  /// until run() returns.
  Fcs& stage_floats(std::vector<double>& values, std::size_t components);
  Fcs& stage_ints(std::vector<std::int64_t>& values, std::size_t components);
  Fcs& stage_vec3(std::vector<domain::Vec3>& values);
  /// Fields currently queued for the next run.
  std::size_t staged_field_count() const { return staged_fields_.size(); }

  /// The reusable exchange schedule of the last method-B run (invalid when
  /// the last run restored). Exposed for tests and benchmarks.
  const redist::ResortPlan& resort_plan() const { return resort_plan_; }

 private:
  friend class ResortBatch;
  /// Method-B resort prologue, shared by the phased and the overlapped
  /// schedule: invert the origin indices into resort indices and build the
  /// run's resort plan from them. Collective.
  void build_resort_plan(const std::vector<std::uint64_t>& origin,
                         std::size_t n_original, redist::ExchangeKind kind);
  /// The staged fields queued into one fused batch on the resort plan,
  /// unless the solver already carried them. Empty when nothing travels.
  std::optional<redist::FusedBatch> run_batch(
      const std::vector<ResortBatch::Field>& staged, bool carried);

  mpi::Comm comm_;
  std::unique_ptr<Solver> solver_;
  std::unique_ptr<lb::Balancer> balancer_;
  std::unique_ptr<plan::Planner> planner_;
  domain::Box box_;  // kept for the planner's volume-based feasibility gate
  bool last_resorted_ = false;
  std::size_t resort_n_changed_ = 0;
  redist::ResortPlan resort_plan_;
  // Fields the application resorted since the previous run (mutable: the
  // resort methods are const; the count only feeds the planner's cost
  // model, where extra fields are marginal-cost).
  mutable std::size_t resort_field_count_ = 0;
  // Fields queued by stage_* for the next run (see stage_floats).
  std::vector<ResortBatch::Field> staged_fields_;
  // Grow-only scratch of the carried columns' permutations.
  std::vector<std::byte> carry_scratch_;
};

}  // namespace fcs
