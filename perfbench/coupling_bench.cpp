// Coupling-loop benchmark: command-line entry point.
//
//   coupling_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--tiny] [--corrupt]
//
// --trace 0 repeats untraced episodes for S seconds and prints the
// end-to-end metrics; --trace 1 alternates untraced and traced episodes,
// checks that tracing left every virtual number unchanged, runs the layer
// probes, and prints the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --tiny selects test-size workloads; --corrupt flips one bit of a returned
// array so the oracle's failure path can be tested.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string_view>
#include <thread>

#include "obs/critpath.hpp"
#include "perfbench.hpp"

extern char** environ;

namespace {

using perfbench::EpisodeOptions;
using perfbench::EpisodeResult;
using perfbench::Metric;
using perfbench::Workload;

constexpr double kTailQuantile = 0.8;  // >= 10 samples beyond it at >= 50
constexpr double kMinCoverage = 0.95;
constexpr double kHardCapS = 140.0;    // stop adding episodes after this

struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void count(const EpisodeResult& e) {
    attempted += e.runs;
    failed += e.runs_failed;
    if (e.runs_failed > 0) fail("oracle: " + e.failure);
  }
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print(const Report& rep) {
  for (const std::string& p : rep.problems)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", p.c_str());
  for (const Metric& m : rep.metrics)
    std::printf("# %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              rep.correct ? "true" : "false", rep.attempted, rep.failed);
  for (std::size_t i = 0; i < rep.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", rep.metrics[i].name.c_str(),
                number(rep.metrics[i].value).c_str(),
                rep.metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Virtual numbers of two episodes must agree bit for bit.
bool same_virtual(const EpisodeResult& a, const EpisodeResult& b) {
  if (a.makespan != b.makespan || a.redist_max != b.redist_max ||
      a.run_max.size() != b.run_max.size())
    return false;
  for (std::size_t i = 0; i < a.run_max.size(); ++i)
    for (const fcs::PhaseField& f : fcs::kPhaseFields)
      if (a.run_max[i].*f.member != b.run_max[i].*f.member) return false;
  return true;
}

/// Median over the time steps (runs 1..) of a per-run series.
template <class Fn>
double step_median(const EpisodeResult& e, Fn&& fn) {
  std::vector<double> v;
  for (std::size_t i = 1; i < e.run_max.size(); ++i) v.push_back(fn(i));
  return perfbench::median(v);
}

void add_virtual(Report& rep, const EpisodeResult& e) {
  rep.add("virt_step_s",
          step_median(e, [&](std::size_t i) { return e.run_max[i].total; }),
          "s");
  rep.add("virt_redist_s",
          step_median(e, [&](std::size_t i) { return e.redist_max[i]; }), "s");
  rep.add("virt_init_s", e.run_max.front().total, "s");
  rep.add("virt_makespan_s", e.makespan, "s");
}

void run_untraced(const Workload& w, const EpisodeOptions& opt, double seconds,
                  int min_steps, Report& rep) {
  const double start = perfbench::host_now();
  std::vector<EpisodeResult> eps;
  std::vector<double> setup, init, steps;
  double loop_s = 0.0;
  while (true) {
    const double elapsed = perfbench::host_now() - start;
    const bool enough = elapsed >= seconds && eps.size() >= 3 &&
                        steps.size() >= static_cast<std::size_t>(min_steps);
    if (!eps.empty() && (enough || elapsed >= kHardCapS)) break;
    eps.push_back(perfbench::run_episode(w, opt));
    const EpisodeResult& e = eps.back();
    rep.count(e);
    if (e.step_s.empty()) return;  // the engine threw; nothing to time
    if (!same_virtual(e, eps.front()))
      rep.fail("virtual time differs between identical episodes");
    std::fprintf(stderr,
                 "perfbench: episode %zu: setup %.4f s, init %.4f s, step "
                 "median %.4f s\n",
                 eps.size(), e.setup_s, e.init_s, perfbench::median(e.step_s));
    setup.push_back(e.setup_s);
    init.push_back(e.init_s);
    for (double s : e.step_s) {
      steps.push_back(s);
      loop_s += s;
    }
  }
  if (steps.size() < static_cast<std::size_t>(min_steps))
    rep.fail("only " + std::to_string(steps.size()) + " step samples");
  std::printf("# %zu episodes, %zu step samples; host_step_s.tail is p%.0f\n",
              eps.size(), steps.size(), 100 * kTailQuantile);
  rep.add("setup_s", perfbench::median(setup), "s");
  rep.add("host_init_s", perfbench::median(init), "s");
  rep.add("host_step_s.p50", perfbench::median(steps), "s");
  rep.add("host_step_s.tail", perfbench::quantile(steps, kTailQuantile), "s");
  rep.add("particle_steps_per_s",
          static_cast<double>(w.n) * static_cast<double>(steps.size()) / loop_s,
          "1/s");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  add_virtual(rep, eps.front());
  rep.add("ok_frac",
          static_cast<double>(rep.attempted - rep.failed) /
              static_cast<double>(rep.attempted),
          "frac");
}

/// Span names with `prefix` that occur at least once outside every other
/// span with that prefix; summing critical-path seconds over only these
/// counts nested spans once.
std::vector<std::string> outermost_names(const obs::Recorder& rec,
                                         std::string_view prefix) {
  std::map<int, bool> outermost;  // name id -> seen outside any same-prefix
  for (int r = 0; r < rec.nranks(); ++r) {
    std::vector<const obs::SpanEvent*> spans;
    for (const obs::SpanEvent& ev : rec.rank(r).spans())
      if (rec.name_of(ev.name_id).rfind(prefix, 0) == 0) spans.push_back(&ev);
    for (const obs::SpanEvent* x : spans) {
      bool nested = false;
      for (const obs::SpanEvent* y : spans)
        if (y->depth < x->depth && y->begin <= x->begin && x->end <= y->end) {
          nested = true;
          break;
        }
      outermost[x->name_id] = outermost[x->name_id] || !nested;
    }
  }
  std::vector<std::string> names;
  for (const auto& [id, outer] : outermost)
    if (outer) names.push_back(rec.name_of(id));
  return names;
}

void add_traced_virtual(Report& rep, const EpisodeResult& e) {
  const obs::Recorder& rec = *e.recorder;
  const auto counters = rec.reduce_counters();
  const int steps = static_cast<int>(e.run_max.size()) - 1;
  // Per-step sum over ranks, median over the steps.
  auto per_step = [&](std::initializer_list<const char*> names) {
    std::vector<double> v;
    for (int k = 1; k <= steps; ++k) {
      double sum = 0.0;
      for (const char* n : names) {
        const auto it = counters.find(n);
        if (it == counters.end()) continue;
        const auto ep = it->second.by_epoch.find(k);
        if (ep != it->second.by_epoch.end()) sum += ep->second.sum;
      }
      v.push_back(sum);
    }
    return perfbench::median(v);
  };
  auto step_total = [&](const char* name) {
    double sum = 0.0;
    const auto it = counters.find(name);
    if (it != counters.end())
      for (const auto& [k, s] : it->second.by_epoch)
        if (k >= 1) sum += s.sum;
    return sum;
  };

  rep.add("fcs.sort.virt_s",
          step_median(e, [&](std::size_t i) { return e.run_max[i].sort; }),
          "s");
  rep.add("fcs.restore.virt_s",
          step_median(e, [&](std::size_t i) { return e.run_max[i].restore; }),
          "s");
  rep.add("fcs.resort.virt_s",
          step_median(e, [&](std::size_t i) { return e.run_max[i].resort; }),
          "s");
  rep.add("fcs.compute.virt_s",
          step_median(e, [&](std::size_t i) { return e.run_max[i].compute; }),
          "s");

  obs::CritPathOptions co;
  co.step_span = perfbench::kStepSpan;
  const obs::CritPathReport cp = obs::build_critpath(rec, co);
  const std::vector<std::string> redist = outermost_names(rec, "redist.");
  const std::vector<std::string> mpi = outermost_names(rec, "mpi.");
  const std::vector<std::string> layers = outermost_names(rec, "layer.");
  auto under = [](const obs::CritStep& s, const std::vector<std::string>& ns) {
    double sum = 0.0;
    for (const std::string& n : ns) {
      const auto it = s.phases.find(n);
      if (it != s.phases.end()) sum += it->second;
    }
    return sum;
  };
  std::vector<double> redist_cp, mpi_cp;
  double layer_path = 0.0, makespan = 0.0;
  for (const obs::CritStep& s : cp.steps) {
    redist_cp.push_back(under(s, redist));
    mpi_cp.push_back(under(s, mpi) + s.comm);
    layer_path += under(s, layers) + s.comm;
    makespan += s.makespan;
  }
  if (cp.steps.empty()) {
    rep.fail("critical path found no step windows");
    return;
  }
  rep.add("redist.cp.virt_s", perfbench::median(redist_cp), "s");
  rep.add("redist.plan.builds", per_step({"redist.plan.builds"}), "count");
  rep.add("redist.plan.applies", per_step({"redist.plan.applies"}), "count");
  rep.add("redist.resort_plan.builds", per_step({"redist.resort_plan.builds"}),
          "count");
  rep.add("redist.fallback", per_step({"redist.fallback"}), "count");
  rep.add("mpi.alltoallv.calls",
          per_step({"mpi.alltoallv.calls", "mpi.alltoallv_known.calls"}),
          "count");
  rep.add("mpi.alltoallv.bytes",
          per_step({"mpi.alltoallv.bytes", "mpi.alltoallv_known.bytes"}), "B");
  rep.add("mpi.sparse.bytes",
          per_step({"mpi.sparse_alltoallv.bytes",
                    "mpi.sparse_alltoallv_known.bytes"}),
          "B");
  rep.add("mpi.cp.virt_s", perfbench::median(mpi_cp), "s");
  const double acquires = step_total("pool.acquire");
  rep.add("pool.reuse_ratio",
          acquires > 0 ? step_total("pool.reuse") / acquires : 0.0, "frac");
  rep.add("pool.acquires", per_step({"pool.acquire"}), "count");
  rep.add("sim.msgs", per_step({"sim.send.msgs"}), "count");
  rep.add("sim.bytes", per_step({"sim.send.bytes"}), "B");
  rep.add("sim.charge.ops", per_step({"sim.charge.ops"}), "count");
  rep.add("sim.charge.bytes", per_step({"sim.charge.bytes"}), "B");
  const double cp_coverage = makespan > 0 ? layer_path / makespan : 0.0;
  rep.add("cp.coverage", cp_coverage, "frac");
  if (cp_coverage < kMinCoverage)
    rep.fail("layers cover only " + std::to_string(cp_coverage) +
             " of the virtual step critical path");
}

void run_traced(const Workload& w, const EpisodeOptions& opt, double seconds,
                Report& rep) {
  const double start = perfbench::host_now();
  std::vector<EpisodeResult> plain, traced;
  while (traced.empty() ||
         (perfbench::host_now() - start < seconds &&
          perfbench::host_now() - start < kHardCapS)) {
    EpisodeOptions o = opt;
    plain.push_back(perfbench::run_episode(w, o));
    rep.count(plain.back());
    o.traced = true;
    o.keep_positions = traced.empty();
    traced.push_back(perfbench::run_episode(w, o));
    rep.count(traced.back());
    if (plain.back().step_s.empty() || traced.back().step_s.empty()) return;
    if (!same_virtual(plain.back(), traced.back()) ||
        !same_virtual(plain.back(), plain.front()))
      rep.fail("tracing changed a virtual-time number");
  }
  if (!rep.correct) return;

  // Host per-layer seconds, pooled over the traced episodes.
  std::array<std::vector<double>, perfbench::kNumLayers> per_step;
  std::array<std::vector<double>, perfbench::kNumLayers> per_setup;
  std::vector<double> traced_steps, plain_steps;
  double covered = 0.0, length = 0.0;
  for (const EpisodeResult& e : traced) {
    for (int l = 0; l < perfbench::kNumLayers; ++l)
      per_setup[static_cast<std::size_t>(l)].push_back(
          e.setup_split.layer[static_cast<std::size_t>(l)]);
    for (const perfbench::WindowSplit& s : e.step_split) {
      for (int l = 0; l < perfbench::kNumLayers; ++l)
        per_step[static_cast<std::size_t>(l)].push_back(
            s.layer[static_cast<std::size_t>(l)]);
      covered += s.covered();
      length += s.length();
    }
    traced_steps.insert(traced_steps.end(), e.step_s.begin(), e.step_s.end());
  }
  for (const EpisodeResult& e : plain)
    plain_steps.insert(plain_steps.end(), e.step_s.begin(), e.step_s.end());
  using L = perfbench::Layer;
  auto host = [&](const char* name, L l, bool setup) {
    const auto& samples = setup ? per_setup : per_step;
    rep.add(name, perfbench::median(samples[static_cast<std::size_t>(l)]), "s");
  };
  host("md.generate.host_s", L::kGenerate, true);
  host("fcs.tune.host_s", L::kTune, true);
  host("app.move.host_s", L::kMove, false);
  host("mpi.allreduce.step.host_s", L::kAllreduce, false);
  host("fcs.run.host_s", L::kRun, false);
  host("fcs.resort.host_s", L::kResort, false);
  host("md.accel.host_s", L::kAccel, false);
  const double host_coverage = length > 0 ? covered / length : 0.0;
  rep.add("host.coverage", host_coverage, "frac");
  if (host_coverage < kMinCoverage)
    rep.fail("layers cover only " + std::to_string(host_coverage) +
             " of the host step time");
  rep.add("obs.overhead_frac",
          perfbench::median(traced_steps) / perfbench::median(plain_steps) - 1.0,
          "frac");

  add_traced_virtual(rep, traced.front());

  const EpisodeResult& first = traced.front();
  for (const Metric& pm : perfbench::run_probes(
           w, first.positions, first.rank_offsets, first.mover_frac, opt.seed))
    rep.add(pm.name, pm.value, pm.unit);
}

int usage() {
  std::fprintf(stderr,
               "usage: coupling_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt]\n  workloads:");
  for (const std::string& n : perfbench::workload_names())
    std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The benchmark measures the default data path: no knob may be set.
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "FCS_", 4) == 0 || std::strncmp(*e, "FIG_", 4) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set (the benchmark "
                   "measures the default path)\n",
                   *e);
      return 2;
    }

  std::string workload;
  EpisodeOptions opt;
  double seconds = -1.0;
  int trace = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--tiny") {
      tiny = true;
    } else if (a == "--corrupt") {
      opt.corrupt = true;
    } else {
      return usage();
    }
  }
  const Workload* w = perfbench::find_workload(workload, tiny);
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1))
    return usage();

  std::printf("# build %s, compiler %s, nproc %u\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, std::thread::hardware_concurrency());
  std::printf("# workload %s%s: %s, %s, %d ranks, %zu particles, %d steps per "
              "episode, seed %llu\n",
              w->name.c_str(), tiny ? " (tiny)" : "", w->solver.c_str(),
              w->torus ? "torus" : "switched", w->nranks, w->n, w->steps,
              static_cast<unsigned long long>(opt.seed));

  Report rep;
  try {
    if (trace == 0)
      run_untraced(*w, opt, seconds, tiny ? 5 : 50, rep);
    else
      run_traced(*w, opt, seconds, rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("benchmark threw: ") + e.what());
    rep.failed = std::max(rep.failed, 1L);
    rep.attempted = std::max(rep.attempted, rep.failed);
  }
  print(rep);
  return rep.correct ? 0 : 1;
}
