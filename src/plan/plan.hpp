// Redistribution-plan types shared between the planner (src/plan) and the
// solvers (src/fmm, src/pm).
//
// A RedistPlan names one configuration of the three decision points the
// paper's measurements expose (Sect. III, Figs. 6-9):
//   (a) the coupling method - A (restore the original order/distribution),
//       B (return the solver order plus resort indices), or B with the
//       max-movement bound exploited;
//   (b) the parallel sort algorithm of the FMM-style solver - partition
//       (exact splitters + all-to-all) vs merge (point-to-point Batcher
//       merge-exchange, profitable only on almost-sorted input);
//   (c) the exchange pattern of the PM-style solver - the collective
//       all-to-all (ATASP) vs point-to-point neighborhood communication.
//
// kAuto keeps a solver's built-in heuristic for that decision point, which
// makes a plan of {method, kAuto, kAuto} bit-identical to the pre-planner
// behaviour - the property a "fixed:<spec>" PlanConfig relies on to
// reproduce the paper figures.
//
// This header is intentionally dependency-free (enums + inline helpers
// only): fcs/solver.hpp embeds a plan pointer in SolveOptions without
// linking against the planner library.
#pragma once

namespace plan {

/// Coupling method (paper Section III).
enum class Method {
  kA,        // restore original order and distribution after the solve
  kB,        // return solver order + resort indices
  kBMaxMove  // method B, exploiting the reported max-movement bound
};

/// Parallel sort algorithm of the solver's sort phase (FMM decision point).
enum class SortAlgo {
  kAuto,       // solver's built-in heuristic (movement bound vs cube side)
  kPartition,  // exact-splitter partition sort, all-to-all exchange
  kMerge       // Batcher merge-exchange, point-to-point
};

/// Exchange pattern of the solver's redistribution (PM decision point).
enum class Exchange {
  kAuto,         // solver's built-in heuristic (bound + halo vs subdomain)
  kAllToAll,     // collective ATASP all-to-all
  kNeighborhood  // point-to-point messages to direct grid neighbors
};

/// One per-step redistribution plan. Default: method A with the solvers'
/// own heuristics - the most conservative configuration.
struct RedistPlan {
  Method method = Method::kA;
  SortAlgo sort = SortAlgo::kAuto;
  Exchange exchange = Exchange::kAuto;

  friend bool operator==(const RedistPlan& a, const RedistPlan& b) {
    return a.method == b.method && a.sort == b.sort &&
           a.exchange == b.exchange;
  }
  friend bool operator!=(const RedistPlan& a, const RedistPlan& b) {
    return !(a == b);
  }
};

inline char method_code(Method m) {
  switch (m) {
    case Method::kA: return 'A';
    case Method::kB: return 'B';
    case Method::kBMaxMove: return 'M';
  }
  return '?';
}

inline char sort_code(SortAlgo s) {
  switch (s) {
    case SortAlgo::kAuto: return 'a';
    case SortAlgo::kPartition: return 'p';
    case SortAlgo::kMerge: return 'm';
  }
  return '?';
}

inline char exchange_code(Exchange e) {
  switch (e) {
    case Exchange::kAuto: return 'a';
    case Exchange::kAllToAll: return 'd';  // dense all-to-all
    case Exchange::kNeighborhood: return 'n';
  }
  return '?';
}

/// Compact three-character code ("Mmn" = B+mm, merge, neighborhood) used in
/// the decision-sequence exports the CI determinism leg compares.
struct DecisionCode {
  char chars[4];
};

inline DecisionCode decision_code(const RedistPlan& p) {
  return DecisionCode{{method_code(p.method), sort_code(p.sort),
                       exchange_code(p.exchange), '\0'}};
}

}  // namespace plan
