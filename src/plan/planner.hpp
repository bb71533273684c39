// Adaptive redistribution planning (paper Sect. III + Figs. 6-9 turned into
// a runtime decision instead of an offline benchmark result).
//
// The paper measures that no fixed configuration wins everywhere: method B
// beats A only after the first step, merge-based sorting beats the partition
// sort only on almost-sorted input, and neighborhood exchange requires the
// movement bound to stay within one subdomain. The Planner closes that loop:
// before every fcs_run it predicts the redistribution cost of each coupling
// arm from a small analytic model, picks the cheapest, and after the run
// calibrates the model against the observed virtual-time phase costs.
//
//   cost(A)    = sort(in-order?) + restore
//   cost(B)    = sort(in-order?) + resort(dense)
//   cost(B+mm) = sort(sparse)    + resort(sparse)     [needs a valid bound]
//
// Each phase cost is predicted as rho_bin * dot(theta, features(bin)): the
// five theta coefficients (dense per-rank latency, dense per-byte, sparse
// per-message, sparse per-byte, local per-op) are SHARED across bins and
// updated by normalized-LMS regression on every observed phase, so branches
// that never executed still track the machine through the phases that did -
// the cold-start heuristic. rho_bin is a per-bin EWMA correction factor that
// pins executed branches to their measured cost. An epsilon-greedy probe
// (deterministic schedule, default ~1/32 of the steps) re-executes the
// second-best arm so a stale rho cannot lock in the wrong branch forever.
//
// Every decision is audited: obs counters plan.decision / plan.decision.<c>
// / plan.probe / plan.mispredict, a plan.mispredict.rate gauge, and a
// "plan.decide" trace span. All Planner state is identical on every rank
// (inputs are allreduced), so decision sequences are deterministic and
// byte-identical across reruns.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "minimpi/comm.hpp"
#include "plan/plan.hpp"
#include "support/serialize.hpp"

namespace plan {

enum class PlanMode {
  kOff,    // planner absent: legacy per-run options drive everything
  kFixed,  // always emit the configured plan; no model, no communication
  kAuto    // cost-model-driven choice, calibrated online
};

/// The planner's settings, handed to fcs::Fcs::set_plan (or through
/// md::SimulationConfig::plan) by value.
struct PlanConfig {
  PlanMode mode = PlanMode::kOff;
  /// The plan emitted every step in kFixed mode.
  RedistPlan fixed;
  /// Fraction of auto decisions spent probing the second-best arm. The
  /// schedule is deterministic: one probe every round(1/rate) decisions
  /// (after a short cold-start holdoff); 0 disables probing.
  double probe_rate = 1.0 / 32.0;
};

/// Parse a plan spec: "off" | "auto" | "fixed:<method>[,<sort>]
/// [,<exchange>]" with method A | B | Bmm | B+mm, sort partition | merge,
/// exchange atasp | alltoall | neigh | neighborhood. Throws on bad specs.
PlanConfig parse_plan_spec(const std::string& spec);

/// The phase-cost bins the planner predicts and calibrates. A bin is an
/// (arm, phase) combination, not a mechanism: a step that chose B+mm but was
/// degraded to the dense fallback by the solver still charges the sparse
/// bins - the model learns the cost of the DECISION, fallback included.
enum class CostBin {
  kSortScratch,        // from-scratch sort (input not in solver order)
  kSortInorderDense,   // in-order input, dense partition/all-to-all path
  kSortInorderSparse,  // in-order input, merge/neighborhood path (B+mm)
  kRestore,            // method A restore
  kResortDense,        // method B resort-index creation, dense backend
  kResortSparse,       // method B resort-index creation, sparse backend
};
inline constexpr int kNumCostBins = 6;

/// Shared per-term cost coefficients, normalized-LMS calibrated. Exposed
/// for unit tests; the Planner owns one instance.
class CostModel {
 public:
  static constexpr int kTerms = 5;
  using Features = std::array<double, kTerms>;
  // Term order: [0] dense per-rank latency, [1] dense per-byte,
  // [2] sparse per-message latency, [3] sparse per-byte, [4] local per-op.
  CostModel();

  double predict(const Features& f) const;
  /// One NLMS step towards `observed`; coefficients stay non-negative.
  void update(const Features& f, double observed, double eta);

  const std::array<double, kTerms>& coefficients() const { return coef_; }

  /// Checkpoint stream I/O (see support/serialize.hpp).
  void save(fcs::ByteWriter& w) const;
  void load(fcs::ByteReader& r);

 private:
  std::array<double, kTerms> coef_;
};

/// What the planner needs to know before a run. All values must be
/// identical across ranks except n_local (summed internally); max_move
/// follows the usual fcs contract of a collectively agreed bound.
struct DecideInputs {
  std::size_t n_local = 0;
  /// Maximum particle displacement since the previous solve; < 0 unknown.
  double max_move = -1.0;
  /// Previous run returned the solver order (fcs::Fcs::last_run_resorted).
  bool input_in_solver_order = false;
  /// Particle-system box volume; <= 0 disables the movement-bound arm.
  double volume = 0.0;
  /// Additional per-particle fields the application resorted after the
  /// previous method-B run (velocities, accelerations, ...). Identical on
  /// every rank because the resort calls are collective. They ride the ONE
  /// planned resort message per partner, so only their payload bytes cost.
  double extra_fields = 0.0;
};

/// Executed facts of the run the last decide() configured (this rank's
/// phase times; observe() reduces them with max across ranks).
struct ObserveInputs {
  double t_sort = 0.0;
  double t_restore = 0.0;
  double t_resort = 0.0;
  /// Did the run return the changed order (capacity fallback may veto the
  /// planned method B)?
  bool resorted = false;
  /// Did the restore/resort run through the sparse backend?
  bool sparse_resort = false;
};

class Planner {
 public:
  explicit Planner(const PlanConfig& cfg);

  bool active() const { return cfg_.mode != PlanMode::kOff; }
  bool auto_mode() const { return cfg_.mode == PlanMode::kAuto; }
  const PlanConfig& config() const { return cfg_; }

  /// Choose the plan for the upcoming run. Collective in kAuto mode (two
  /// allreduces); communication-free in kFixed mode so fixed plans replay
  /// the legacy virtual-time behaviour bit-identically.
  RedistPlan decide(const mpi::Comm& comm, const DecideInputs& in);

  /// Feed back the observed phase costs of the run decide() configured.
  /// Collective in kAuto mode (one allreduce); no-op otherwise.
  void observe(const mpi::Comm& comm, const ObserveInputs& in);

  /// Concatenated 3-char decision codes (see plan::decision_code), in
  /// order - the sequence the CI determinism leg compares across reruns.
  const std::string& decision_string() const { return decisions_; }
  int decision_count() const { return n_decisions_; }
  int probe_count() const { return n_probes_; }
  int mispredict_count() const { return n_mispredicts_; }

  /// Checkpoint the adaptation state: model coefficients, rho corrections,
  /// feature cache, decision audit, and the pending decide() context - every
  /// input of future decisions, so a rank restored from a buddy checkpoint
  /// replays the exact decision sequence. The config is NOT saved; the
  /// restoring side constructs the Planner with the same config (it comes
  /// from the environment, which the crash does not change).
  void save(fcs::ByteWriter& w) const;
  void load(fcs::ByteReader& r);

  // --- Model introspection (tests, docs) ---------------------------------
  const CostModel& model() const { return model_; }
  /// Per-bin EWMA correction factor (1.0 until the bin was observed).
  double bin_rho(CostBin bin) const;
  /// Predicted cost of one bin with the feature set of the last decide().
  double bin_prediction(CostBin bin) const;

 private:
  struct Arm {
    RedistPlan plan;
    CostBin sort_bin;
    CostBin finish_bin;  // restore or resort flavour
    double cost = 0.0;
    bool feasible = false;
  };

  void build_features(double n_global, int nranks, double max_move,
                      bool in_order, double volume, double extra_fields);
  double predict_bin(CostBin bin) const;
  void observe_bin(CostBin bin, double observed);

  PlanConfig cfg_;
  CostModel model_;
  std::array<CostModel::Features, kNumCostBins> features_{};
  std::array<double, kNumCostBins> rho_;
  std::array<bool, kNumCostBins> rho_set_{};

  std::string decisions_;
  int n_decisions_ = 0;
  int n_auto_decisions_ = 0;
  int n_probes_ = 0;
  int n_mispredicts_ = 0;

  // Pending decide() context consumed by the next observe().
  bool pending_ = false;
  bool pending_in_order_ = false;
  Method pending_method_ = Method::kA;
  double pending_alt_cost_ = -1.0;  // best alternative's prediction, <0 none
};

}  // namespace plan
