#include "obs/export.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <unordered_set>

#include "obs/critpath.hpp"

namespace obs {

namespace {

/// Shortest round-trip decimal representation; deterministic and never
/// produces the non-JSON tokens nan/inf (values recorded here are finite).
std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  FCS_ASSERT(res.ec == std::errc());
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void write_summary_fields(std::ostream& os, const Summary& s) {
  // "imb" is the load-imbalance ratio max/mean; 0 marks a degenerate mean
  // (empty or all-zero series) so consumers can skip it unambiguously.
  const double mean = s.mean();
  const double imb = mean > 0.0 ? s.max / mean : 0.0;
  os << "\"min\":" << json_number(s.min) << ",\"mean\":" << json_number(mean)
     << ",\"max\":" << json_number(s.max) << ",\"sum\":" << json_number(s.sum)
     << ",\"imb\":" << json_number(imb);
}

/// Span-leak gate shared by both exports. A span begun but never ended means
/// the instrumented code is buggy; emitting it would produce a malformed
/// trace. Debug builds fail loudly with the offending span name; release
/// builds report and skip the run's span data instead of emitting garbage.
bool spans_ok_for_export(const Recorder& rec, const char* what) {
  const auto leaks = rec.leaked_spans();
  if (leaks.empty()) return true;
#ifndef NDEBUG
  FCS_CHECK(false, what << " export with unbalanced span '"
                        << leaks.front().name << "' still open on rank "
                        << leaks.front().rank << " (" << leaks.size()
                        << " leaked span(s) total)");
#else
  std::fprintf(stderr,
               "obs: skipping %s span data: unbalanced span '%s' still open "
               "on rank %d (%zu leaked span(s) total)\n",
               what, leaks.front().name.c_str(), leaks.front().rank,
               leaks.size());
  return false;
#endif
}

void write_critstep_json(std::ostream& os, const CritStep& step) {
  os << "{\"step\":" << step.step << ",\"begin\":" << json_number(step.begin)
     << ",\"makespan\":" << json_number(step.makespan)
     << ",\"path\":" << json_number(step.path)
     << ",\"coverage\":" << json_number(step.coverage)
     << ",\"comm\":" << json_number(step.comm)
     << ",\"critical_rank\":" << step.critical_rank << ",\"slack\":{";
  write_summary_fields(os, step.slack);
  os << "},\"phases\":{";
  bool first = true;
  for (const auto& [name, secs] : step.phases) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_number(secs);
    first = false;
  }
  os << "},\"ranks\":{";
  first = true;
  for (const auto& [rank, secs] : step.ranks) {
    os << (first ? "" : ",") << "\"" << rank << "\":" << json_number(secs);
    first = false;
  }
  os << "},\"links\":[";
  first = true;
  for (const CritLink& link : step.links) {
    os << (first ? "" : ",") << "{\"src\":" << link.src
       << ",\"dst\":" << link.dst << ",\"seconds\":" << json_number(link.seconds)
       << ",\"msgs\":" << link.msgs << "}";
    first = false;
  }
  os << "]}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<TraceRun>& runs) {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&]() -> std::ostream& {
    os << (first ? "\n" : ",\n");
    first = false;
    return os;
  };
  for (std::size_t pid = 0; pid < runs.size(); ++pid) {
    const Recorder* rec = runs[pid].recorder;
    FCS_CHECK(rec != nullptr, "trace run " << pid << " has no recorder");
    sep() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":0,\"args\":{\"name\":" << json_string(runs[pid].label)
          << "}}";
    for (int r = 0; r < rec->nranks(); ++r) {
      sep() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"tid\":" << r << ",\"args\":{\"name\":\"rank " << r << "\"}}";
    }
    if (!spans_ok_for_export(*rec, "trace")) continue;
    for (int r = 0; r < rec->nranks(); ++r) {
      const RankObs& rank = rec->rank(r);
      for (const SpanEvent& ev : rank.spans()) {
        sep() << "{\"name\":" << json_string(rec->name_of(ev.name_id))
              << ",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":"
              << json_number(ev.begin * 1e6) << ",\"dur\":"
              << json_number((ev.end - ev.begin) * 1e6) << ",\"pid\":" << pid
              << ",\"tid\":" << r << "}";
      }
    }
    // Flow arrows: one "s"/"f" pair per matched message, binding the send
    // span on the source rank to the receive span on the destination. The id
    // is prefixed with the pid because flow ids restart at 0 per run.
    std::unordered_set<std::uint64_t> matched;
    for (int r = 0; r < rec->nranks(); ++r)
      for (const FlowEvent& ev : rec->rank(r).flows())
        if (!ev.is_send) matched.insert(ev.id);
    for (int r = 0; r < rec->nranks(); ++r) {
      for (const FlowEvent& ev : rec->rank(r).flows()) {
        if (ev.is_send && matched.find(ev.id) == matched.end()) continue;
        const std::string id =
            std::to_string(pid) + ":" + std::to_string(ev.id);
        sep() << "{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\""
              << (ev.is_send ? 's' : 'f') << "\"";
        if (!ev.is_send) os << ",\"bp\":\"e\"";
        os << ",\"ts\":" << json_number(ev.time * 1e6) << ",\"pid\":" << pid
           << ",\"tid\":" << r << ",\"id\":" << json_string(id)
           << ",\"args\":{\"bytes\":" << ev.bytes << "}}";
      }
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_metrics_json(std::ostream& os, const std::vector<MetricsRun>& runs) {
  os << "{\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Recorder* rec = runs[i].recorder;
    FCS_CHECK(rec != nullptr, "metrics run " << i << " has no recorder");
    os << (i == 0 ? "\n" : ",\n");
    os << "{\"label\":" << json_string(runs[i].label)
       << ",\"nranks\":" << rec->nranks()
       << ",\"makespan\":" << json_number(runs[i].makespan);

    os << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, red] : rec->reduce_counters()) {
      os << (first ? "\n" : ",\n") << json_string(name) << ":{\"total\":{";
      first = false;
      write_summary_fields(os, red.totals);
      os << "},\"by_epoch\":[";
      bool first_epoch = true;
      for (const auto& [epoch, summary] : red.by_epoch) {
        os << (first_epoch ? "" : ",") << "{\"epoch\":" << epoch << ",";
        first_epoch = false;
        write_summary_fields(os, summary);
        os << "}";
      }
      os << "]}";
    }
    os << "}";

    os << ",\"histograms\":{";
    first = true;
    for (const auto& [name, hist] : rec->merge_histograms()) {
      if (hist.stats.count == 0) continue;
      os << (first ? "\n" : ",\n") << json_string(name) << ":{\"count\":"
         << hist.stats.count << ",";
      first = false;
      write_summary_fields(os, hist.stats);
      os << ",\"buckets\":[";
      bool first_bucket = true;
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        if (hist.buckets[static_cast<std::size_t>(b)] == 0) continue;
        os << (first_bucket ? "" : ",") << "{\"le\":"
           << json_number(Histogram::bucket_upper(b)) << ",\"count\":"
           << hist.buckets[static_cast<std::size_t>(b)] << "}";
        first_bucket = false;
      }
      os << "]}";
    }
    os << "}";

    // Critical-path section: only meaningful when spans (and therefore flow
    // events) were recorded and balanced.
    if (rec->record_spans() && spans_ok_for_export(*rec, "critpath")) {
      const CritPathOptions opts;
      const CritPathReport report = build_critpath(*rec, opts);
      os << ",\"critpath\":{\"step_span\":" << json_string(opts.step_span)
         << ",\"steps\":[";
      for (std::size_t s = 0; s < report.steps.size(); ++s) {
        os << (s == 0 ? "" : ",");
        write_critstep_json(os, report.steps[s]);
      }
      os << "],\"total\":";
      write_critstep_json(os, report.total);
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

ExportSession::ExportSession(std::string trace_path, std::string metrics_path)
    : trace_path_(std::move(trace_path)), metrics_path_(std::move(metrics_path)) {}

ExportSession::~ExportSession() { finish(); }

std::shared_ptr<Recorder> ExportSession::begin_run(const std::string& label) {
  if (!enabled() || finished_) return nullptr;
  Run run;
  run.label = std::to_string(runs_.size()) + ":" + label;
  run.recorder = std::make_shared<Recorder>(/*record_spans=*/tracing());
  runs_.push_back(run);
  return run.recorder;
}

void ExportSession::end_run(double makespan) {
  if (runs_.empty()) return;
  runs_.back().makespan = makespan;
}

void ExportSession::finish() {
  if (finished_ || !enabled()) return;
  finished_ = true;
  if (!trace_path_.empty()) {
    std::ofstream os(trace_path_);
    if (!os) {
      std::fprintf(stderr, "obs: cannot open trace file '%s'\n",
                   trace_path_.c_str());
    } else {
      std::vector<TraceRun> traces;
      traces.reserve(runs_.size());
      for (const Run& run : runs_)
        traces.push_back(TraceRun{run.label, run.recorder.get()});
      write_chrome_trace(os, traces);
    }
  }
  if (!metrics_path_.empty()) {
    std::ofstream os(metrics_path_);
    if (!os) {
      std::fprintf(stderr, "obs: cannot open metrics file '%s'\n",
                   metrics_path_.c_str());
    } else {
      std::vector<MetricsRun> metrics;
      metrics.reserve(runs_.size());
      for (const Run& run : runs_)
        metrics.push_back(MetricsRun{run.label, run.makespan, run.recorder.get()});
      write_metrics_json(os, metrics);
    }
  }
}

}  // namespace obs
