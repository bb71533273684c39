// Trace and metrics export.
//
// Two machine-readable formats, both deterministic (byte-identical across
// repeated runs of the same configuration):
//
//  * Chrome trace-event JSON (load in chrome://tracing or Perfetto): one
//    process per recorded run, one thread track per simulated rank, complete
//    ("X") events with microsecond timestamps taken from the virtual clocks.
//  * Metrics JSON: per run, every counter reduced across ranks to
//    min/mean/max/sum - both the per-rank totals and a per-epoch breakdown -
//    plus the rank-merged histograms.
//
// ExportSession is the wrapper used by the benchmark harnesses: it is given
// the trace and metrics file paths, and every run registered via begin_run()
// lands in them when the session is destroyed (or finish() is called).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace obs {

struct TraceRun {
  std::string label;
  const Recorder* recorder = nullptr;
};

void write_chrome_trace(std::ostream& os, const std::vector<TraceRun>& runs);

struct MetricsRun {
  std::string label;
  double makespan = 0.0;
  const Recorder* recorder = nullptr;
};

void write_metrics_json(std::ostream& os, const std::vector<MetricsRun>& runs);

class ExportSession {
 public:
  /// Output paths; an empty string disables that output, and with both
  /// empty the session is disabled.
  ExportSession(std::string trace_path, std::string metrics_path);
  ~ExportSession();

  ExportSession(const ExportSession&) = delete;
  ExportSession& operator=(const ExportSession&) = delete;

  bool enabled() const { return !trace_path_.empty() || !metrics_path_.empty(); }
  bool tracing() const { return !trace_path_.empty(); }

  /// Register a new run and return its recorder (spans are only recorded
  /// when a trace output is requested). Returns null when disabled - pass
  /// the result to sim::EngineConfig::recorder unconditionally.
  std::shared_ptr<Recorder> begin_run(const std::string& label);

  /// Record the makespan of the most recently begun run.
  void end_run(double makespan);

  /// Write the requested files; idempotent, called by the destructor.
  void finish();

 private:
  struct Run {
    std::string label;
    double makespan = 0.0;
    std::shared_ptr<Recorder> recorder;
  };

  std::string trace_path_;
  std::string metrics_path_;
  std::vector<Run> runs_;
  bool finished_ = false;
};

}  // namespace obs
