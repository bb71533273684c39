// Critical-path analysis over one recorded run.
//
// The engine's virtual clocks make the happens-before DAG of a run exact: a
// rank's local activity is a chain of span-covered segments, and every
// matched message contributes a cross-rank edge whose endpoints (send
// injection complete, last byte arrived, receive posted) are recorded as
// obs::FlowEvent pairs. build_critpath() walks that DAG backwards from the
// last-finishing rank of each step window: whenever the walk hits a receive
// that actually waited (arrival > post), the step's fate up to that point was
// decided on the sender, so the walk jumps across the flow edge; otherwise
// the time is local. The resulting path tiles the step window exactly, so
// its length accounts for (essentially all of) the measured makespan, split
// into per-rank local seconds, per-span-name seconds, and per-link flight
// seconds - "which messages and which ranks actually gated the step".
//
// Step windows are the occurrences of one designated span per rank (the MD
// driver's "md.step" unless CritPathOptions::step_span names another). With
// no such spans the whole run is analysed as a single window.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace obs {

/// Flight seconds the critical path spent on one directed link.
struct CritLink {
  int src = 0;
  int dst = 0;
  double seconds = 0.0;
  std::uint64_t msgs = 0;  // gating messages that crossed this link
};

/// Critical-path breakdown of one step window (or of the whole run).
struct CritStep {
  int step = -1;         // occurrence index of the step span; -1 = whole run
  double begin = 0.0;    // earliest step begin across ranks
  double end = 0.0;      // latest step end across ranks
  double makespan = 0.0; // end - begin
  double path = 0.0;     // total seconds on the reconstructed critical path
  double coverage = 0.0; // path / makespan (0 when makespan is 0)
  double comm = 0.0;     // flight seconds on the path (sum over links)
  int critical_rank = 0; // rank whose step end defines the makespan
  std::map<std::string, double> phases;  // span name -> on-path seconds under it
  std::map<int, double> ranks;           // rank -> on-path local seconds
  std::vector<CritLink> links;           // sorted by (src, dst)
  Summary slack;  // per-rank end slack: end - that rank's own step end
};

struct CritPathReport {
  std::vector<CritStep> steps;  // one per step window, in step order
  CritStep total;               // aggregate over steps (or the whole run)
};

struct CritPathOptions {
  /// Span name whose occurrences delimit the per-rank step windows.
  std::string step_span = "md.step";
};

/// Reconstruct the critical path of a recorded run. Requires a recorder with
/// spans enabled and balanced (no leaked spans); flow events are matched by
/// id across ranks.
CritPathReport build_critpath(const Recorder& rec,
                              const CritPathOptions& opts = {});

}  // namespace obs
