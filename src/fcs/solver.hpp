// Internal solver interface of the coupling library.
//
// A solver computes long-range interactions on its OWN domain decomposition:
// it reorders and redistributes the particles, computes potentials and
// fields, and hands everything back in solver order together with each
// element's origin index. The fcs layer (fcs.hpp) then finishes the run
// according to the coupling method: restore the original order and
// distribution (method A) or return the changed order plus resort indices
// (method B). Header-only types; no link dependency from the solvers onto
// the fcs core.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "domain/box.hpp"
#include "domain/vec3.hpp"
#include "minimpi/comm.hpp"
#include "obs/obs.hpp"
#include "plan/plan.hpp"
#include "redist/atasp.hpp"
#include "sortlib/carry.hpp"

namespace lb {
class Balancer;
}

namespace fcs {

/// Virtual-time breakdown of one solver execution, per rank. The benchmark
/// harnesses reduce these with max over ranks (md::reduce_phase_max).
struct PhaseTimes {
  double sort = 0.0;     // particle reordering + redistribution into the
                         // solver's decomposition (incl. ghost creation)
  double compute = 0.0;  // near/far field or real/k-space computation
  double restore = 0.0;  // method A: restoring original order/distribution
  double resort = 0.0;   // method B: creating resort indices (solver side)
  double total = 0.0;

  PhaseTimes& operator+=(const PhaseTimes& o);
};

/// Named-field table of PhaseTimes: the single place that knows which fields
/// exist. Reductions, accumulation, and printing all iterate this.
struct PhaseField {
  const char* name;
  double PhaseTimes::*member;
};

inline constexpr PhaseField kPhaseFields[] = {
    {"sort", &PhaseTimes::sort},       {"compute", &PhaseTimes::compute},
    {"restore", &PhaseTimes::restore}, {"resort", &PhaseTimes::resort},
    {"total", &PhaseTimes::total},
};

inline constexpr int kNumPhaseFields =
    static_cast<int>(sizeof(kPhaseFields) / sizeof(kPhaseFields[0]));

template <class Fn>
void for_each_field(const PhaseTimes& t, Fn&& fn) {
  for (const PhaseField& f : kPhaseFields) fn(f.name, t.*f.member);
}

template <class Fn>
void for_each_field(PhaseTimes& t, Fn&& fn) {
  for (const PhaseField& f : kPhaseFields) fn(f.name, t.*f.member);
}

inline PhaseTimes& PhaseTimes::operator+=(const PhaseTimes& o) {
  for (const PhaseField& f : kPhaseFields) this->*f.member += o.*f.member;
  return *this;
}

inline std::ostream& operator<<(std::ostream& os, const PhaseTimes& t) {
  os << "PhaseTimes{";
  const char* sep = "";
  for_each_field(t, [&](const char* name, double v) {
    os << sep << name << "=" << v;
    sep = ", ";
  });
  return os << "}";
}

/// RAII timer for one PhaseTimes field. While alive it covers an obs span of
/// the given name; at stop() it accumulates the elapsed virtual time into
/// `times.*field` (plus `times.total` when add_to_total is set) and into an
/// obs counter of the same name, so the metrics export carries the same
/// figures as the PhaseTimes plumbing. stop() is idempotent, which lets a
/// caller end timing explicitly before the PhaseTimes it references is moved
/// or returned.
class PhaseScope {
 public:
  PhaseScope(sim::RankCtx& ctx, PhaseTimes& times, double PhaseTimes::*field,
             const char* name, bool add_to_total = false)
      : ctx_(ctx),
        times_(times),
        field_(field),
        name_(name),
        add_to_total_(add_to_total),
        span_(ctx.obs(), name),
        t0_(ctx.now()) {}
  ~PhaseScope() { stop(); }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    span_.end();
    const double dt = ctx_.now() - t0_;
    times_.*field_ += dt;
    if (add_to_total_) times_.total += dt;
    obs::count(ctx_.obs(), name_, dt);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  sim::RankCtx& ctx_;
  PhaseTimes& times_;
  double PhaseTimes::*field_;
  const char* name_;
  bool add_to_total_;
  obs::Span span_;
  double t0_;
  bool stopped_ = false;
};

struct SolveOptions {
  /// Method B: keep the solver-specific order and distribution.
  bool resort = false;
  /// Maximum particle displacement since the previous solve; < 0 if unknown.
  /// Solvers use it to switch to merge-based sorting (FMM) or neighborhood
  /// communication (PM), per paper Section III-B.
  double max_particle_move = -1.0;
  /// Capacity of the application's local particle arrays (method B can only
  /// return a changed distribution if it fits); 0 = unbounded.
  std::size_t max_local = 0;
  /// True when the input arrays are already in this solver's order and
  /// distribution (i.e. the previous run used method B and its result was
  /// fed back). Gate for the max-movement optimizations.
  bool input_in_solver_order = false;
  /// Benchmarks: skip the arithmetic of the force computation and charge a
  /// calibrated virtual-time estimate instead. All data reordering and
  /// redistribution still runs for real.
  bool modeled_compute = false;
  /// Dynamic load balancing (src/lb): when non-null and active, the solver
  /// derives its decomposition from the balancer's cost-weighted plan
  /// (Z-curve splitters for the FMM, per-axis grid cuts for the PM) instead
  /// of the static count-balanced one. Owned by the fcs::Fcs handle.
  lb::Balancer* balancer = nullptr;
  /// Redistribution plan (src/plan): when non-null, the plan's sort/exchange
  /// fields override the solver's built-in movement-bound heuristics (kAuto
  /// keeps them). The method field is consumed by the fcs layer, not here.
  /// Owned by the caller (fcs::Fcs::run stack frame).
  const plan::RedistPlan* plan = nullptr;
  /// The fields staged into a phased method-B run (fcs::Fcs::stage_*), as
  /// column views of the caller's vectors: when non-null, the carry set's
  /// rows are aligned with the input particles and the solver SHOULD ship
  /// them inside its own redistribution exchange (setting
  /// SolveResult::fields_carried). Solvers whose active path cannot carry
  /// (merge-based sort, neighborhood exchange, balancer migration) leave the
  /// columns untouched and return fields_carried = false; the fcs layer then
  /// falls back to the plan-based fused exchange. Whether a path can carry
  /// is derived from rank-consistent inputs, so fields_carried agrees on
  /// every rank.
  sortlib::CarrySet* carry = nullptr;
};

/// Everything a solver returns, in SOLVER order and distribution.
struct SolveResult {
  std::vector<domain::Vec3> positions;
  std::vector<double> charges;
  std::vector<double> potentials;
  std::vector<domain::Vec3> field;
  /// Origin index (source rank << 32 | source position) per element.
  std::vector<std::uint64_t> origin;
  /// Exchange backend the fcs layer should use for restore/resort, matching
  /// the communication regime the solver chose.
  redist::ExchangeKind resort_kind = redist::ExchangeKind::kDense;
  /// What actually ran at the solver's decision point (kAuto when the solver
  /// has no such choice): the planner audit trail and tests read these.
  plan::SortAlgo sort_used = plan::SortAlgo::kAuto;
  plan::Exchange exchange_used = plan::Exchange::kAuto;
  /// True when SolveOptions::carry columns travelled with the solver's own
  /// redistribution: their rows are now aligned with this result's elements
  /// (solver order), and no separate column exchange is needed.
  bool fields_carried = false;
  PhaseTimes times;
};

/// Partial state of a solve, produced by Solver::begin_solve after the sort
/// phase and consumed by Solver::finish_solve for the compute phase. The
/// phased fcs_run calls the two back to back; the overlapped one uses the
/// window between them to overlap method-B resort machinery (origin
/// inversion, plan build, fused field exchange) with the force computation
/// via the task-graph executor (src/task).
///
/// `partial` carries everything that is known after the sort phase: origin,
/// resort_kind, sort_used/exchange_used and times.sort. positions/charges/
/// potentials/field are filled by finish_solve. `state` is solver-private.
struct SolveStage {
  SolveResult partial;
  std::shared_ptr<void> state;
};

class Solver {
 public:
  virtual ~Solver() = default;

  virtual std::string name() const = 0;
  virtual void set_box(const domain::Box& box) = 0;
  /// Target relative accuracy (default per solver).
  virtual void set_accuracy(double accuracy) = 0;

  /// Optional tuning step (paper: fcs_tune); positions/charges of the local
  /// particles. Collective.
  virtual void tune(const mpi::Comm& comm,
                    const std::vector<domain::Vec3>& positions,
                    const std::vector<double>& charges) = 0;

  /// A solve is the pair begin_solve + finish_solve. Work interleaved
  /// between the two calls changes only the virtual-time attribution, never
  /// the results.
  ///
  /// First half: reorder/redistribute the particles into the solver's
  /// decomposition and return the partial result (origin, resort_kind,
  /// times.sort) plus the private compute inputs. Collective.
  virtual SolveStage begin_solve(const mpi::Comm& comm,
                                 const std::vector<domain::Vec3>& positions,
                                 const std::vector<double>& charges,
                                 const SolveOptions& options) = 0;

  /// Second half: compute the interactions on the stage produced by
  /// begin_solve, completing potentials/field/positions/charges/times.
  /// Collective.
  virtual SolveResult finish_solve(const mpi::Comm& comm, SolveStage&& stage,
                                   const SolveOptions& options) = 0;
};

}  // namespace fcs
