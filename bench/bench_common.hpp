// Shared plumbing for the figure-reproduction benchmark harnesses.
//
// Every bench binary prints the data series of one paper figure in a fixed
// table format. Times are VIRTUAL seconds from the machine model (see
// DESIGN.md): a JuRoPA-like switched fabric or a Juqueen-like torus. The
// workload sizes default to values that let every binary finish on one core;
// environment variables select paper-scale runs:
//
//   FIG_RANKS  - rank count for Figs. 6-8 (default 256, like the paper)
//   FIG_N      - global particle count (default 110592; paper: 829440)
//   FIG8_STEPS - time steps for Fig. 8 (default 150; paper: 1000)
//   FIG9_STEPS - time steps per Fig. 9 configuration (default 10)
//   FIG9_MAXP  - largest PM rank count in Fig. 9 (default 4096; paper 16384)
//
// Observability (see src/obs/): every configuration run through
// run_configuration() can record spans and communication metrics. Both
// outputs are deterministic - byte-identical across repeated runs:
//
//   FIG_TRACE   - write a Chrome trace-event JSON (chrome://tracing,
//                 Perfetto) with one process per run, one track per rank
//   FIG_METRICS - write a metrics JSON with cross-rank min/mean/max/sum of
//                 every counter (totals and per-time-step) + histograms
//   BENCH_JSON  - directory; each harness additionally writes a
//                 machine-readable BENCH_<figure>.json with per-series
//                 virtual-time totals and per-step series (byte-identical
//                 across repeated runs - CI asserts on these files)
//
// FCS_REDIST_VALIDATE=1 turns on conservation validation in every
// run_configuration() run (read through sim::EngineConfig::from_env, like
// the FCS_FAULT_* plan that fig7's faulty series uses).
#pragma once

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "fcs/fcs.hpp"
#include "md/simulation.hpp"
#include "minimpi/cart.hpp"
#include "obs/export.hpp"
#include "pm/pm_solver.hpp"
#include "sim/engine.hpp"
#include "support/table.hpp"

namespace bench {

inline std::size_t env_size(const char* name, std::size_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10))
                      : def;
}

inline double env_double(const char* name, double def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtod(v, nullptr) : def;
}

inline std::string env_string(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}

/// The paper's benchmark box: cubic, 248^3, fully periodic.
inline md::SystemConfig paper_system(std::size_t n_global,
                                     md::InitialDistribution dist) {
  md::SystemConfig sys;
  sys.box = domain::Box({0, 0, 0}, {248, 248, 248}, {true, true, true});
  sys.n_global = n_global;
  sys.jitter = 0.25;
  sys.distribution = dist;
  return sys;
}

inline std::shared_ptr<const sim::NetworkModel> juropa_like() {
  return std::make_shared<sim::SwitchedNetwork>();
}

inline std::shared_ptr<const sim::NetworkModel> juqueen_like(int nranks) {
  return std::make_shared<sim::TorusNetwork>(
      sim::TorusNetwork::balanced_dims(nranks, 3));
}

/// Configure an fcs handle for a solver on the paper system (modeled
/// compute; PM uses the paper's cutoff of 4.8 when it fits the grid).
inline void configure_solver(fcs::Fcs& handle, const std::string& solver,
                             const domain::Box& box, int nranks) {
  handle.set_common(box);
  handle.set_accuracy(1e-3);
  if (solver == "pm" || solver == "p2nfft") {
    auto& pm_solver = dynamic_cast<pm::PmSolver&>(handle.solver());
    // Paper cutoff 4.8; the halo must fit one subdomain.
    const std::vector<int> dims = mpi::dims_create(nranks, 3);
    const double min_sub = box.extent().x / dims[0];
    pm_solver.set_cutoff(std::min(4.8, 0.9 * min_sub));
    pm_solver.set_mesh(64);
  }
}

struct SimOutcome {
  md::SimulationResult result;
  double makespan = 0.0;
};

/// One data series of a figure, for the machine-readable JSON export. The
/// metadata fields describe what the series actually ran (coupling method,
/// sort algorithm, exchange pattern, network model) so plan-vs-fixed
/// comparisons are machine-checkable without parsing series names; empty
/// strings are omitted from the JSON.
struct Series {
  std::string name;                // e.g. "switched-fmm-incremental"
  double total_time = 0.0;         // engine makespan (virtual seconds)
  std::vector<double> per_step;    // per solver execution: total phase time
  std::vector<double> imbalance;   // optional: compute imbalance max/mean
  std::string method;              // "A" | "B" | "B+mm" | "auto"
  std::string sort;                // "partition" | "merge" | "auto"
  std::string exchange;            // "alltoall" | "neighborhood" | "auto"
  std::string network;             // "switched" | "torus"
  std::string decisions;           // planner decision codes, 3 chars/step
};

/// Shortest round-trip decimal representation (deterministic; values here
/// are finite virtual times and ratios, never nan/inf).
inline std::string bench_json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  FCS_ASSERT(res.ec == std::errc());
  return std::string(buf, res.ptr);
}

/// When BENCH_JSON names a directory, write BENCH_<figure>.json there:
/// {"figure":...,"series":[{"name","total_time","per_step","imbalance"},..]}.
/// No-op when the variable is unset. Output is byte-identical across runs
/// of the same configuration (std::to_chars, fixed series order).
inline void write_bench_json(const std::string& figure,
                             const std::vector<Series>& series) {
  const char* dir = std::getenv("BENCH_JSON");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/BENCH_" + figure + ".json";
  std::ofstream os(path);
  FCS_CHECK(os.good(), "cannot open " << path << " for writing");
  os << "{\"figure\":\"" << figure << "\",\"series\":[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const Series& s = series[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "{\"name\":\"" << s.name << "\",\"total_time\":"
       << bench_json_number(s.total_time) << ",\"per_step\":[";
    for (std::size_t j = 0; j < s.per_step.size(); ++j)
      os << (j == 0 ? "" : ",") << bench_json_number(s.per_step[j]);
    os << "],\"imbalance\":[";
    for (std::size_t j = 0; j < s.imbalance.size(); ++j)
      os << (j == 0 ? "" : ",") << bench_json_number(s.imbalance[j]);
    os << "]";
    // Metadata (new fields; the old ones above keep their names and order
    // so existing CI assertions continue to parse).
    if (!s.method.empty()) os << ",\"method\":\"" << s.method << "\"";
    if (!s.sort.empty()) os << ",\"sort\":\"" << s.sort << "\"";
    if (!s.exchange.empty()) os << ",\"exchange\":\"" << s.exchange << "\"";
    if (!s.network.empty()) os << ",\"network\":\"" << s.network << "\"";
    if (!s.decisions.empty()) os << ",\"decisions\":\"" << s.decisions << "\"";
    os << "}";
  }
  os << "\n]}\n";
  std::printf("wrote %s\n", path.c_str());
}

/// Process-wide trace/metrics sink, writing to the FIG_TRACE / FIG_METRICS
/// paths. Files are written when the static session is destroyed at process
/// exit.
inline obs::ExportSession& obs_session() {
  static obs::ExportSession session(env_string("FIG_TRACE"),
                                    env_string("FIG_METRICS"));
  return session;
}

/// Run one full simulation configuration on a fresh engine. When FIG_TRACE /
/// FIG_METRICS are set, the run is recorded under `label` (default: solver
/// name + coupling method, e.g. "fmm-B-move"). A non-null `faults` plan is
/// injected into the engine (see sim/fault.hpp); labels of faulty runs get
/// a "-faulty" suffix so clean and faulty metrics stay distinguishable.
inline SimOutcome run_configuration(
    int nranks, std::shared_ptr<const sim::NetworkModel> net,
    const md::SystemConfig& sys, const std::string& solver,
    const md::SimulationConfig& sim_cfg, std::size_t stack_kb = 256,
    std::string label = {}, const sim::FaultPlan* faults = nullptr) {
  if (label.empty()) {
    label = solver + (sim_cfg.resort ? "-B" : "-A");
    if (sim_cfg.exploit_max_movement) label += "-move";
    if (faults != nullptr && faults->active()) label += "-faulty";
  }
  sim::EngineConfig cfg;
  cfg.nranks = nranks;
  cfg.validate = sim::EngineConfig::from_env().validate;
  cfg.network = std::move(net);
  cfg.stack_bytes = stack_kb * 1024;
  if (faults != nullptr) cfg.fault_plan = *faults;
  cfg.recorder = obs_session().begin_run(label);
  sim::Engine engine(cfg);
  SimOutcome outcome;
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm = mpi::Comm::world(ctx);
    md::LocalParticles particles = md::generate_system(comm, sys);
    fcs::Fcs handle(comm, solver);
    configure_solver(handle, solver, sys.box, nranks);
    md::SimulationResult res =
        md::run_simulation(comm, handle, particles, sim_cfg);
    if (comm.rank() == 0) outcome.result = std::move(res);
  });
  outcome.makespan = engine.makespan();
  obs_session().end_run(outcome.makespan);
  return outcome;
}

}  // namespace bench
