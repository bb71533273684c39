// Coupling-loop benchmark: the paper's Figure 3 loop driven from the
// application side on a fresh sim::Engine per episode.
//
// An episode is one complete simulation: set-up (md::generate_system +
// fcs::Fcs::tune on every rank), the initial fcs run, then a fixed number of
// time steps (displace, allreduce of the maximum movement, fcs run +
// resort_batch, accelerations). A benchmark run repeats identical episodes
// (same seed, same inputs) until its time budget is spent, so every
// virtual-time number repeats bit for bit and only host time varies.
//
// Host time is stamped in this benchmark's own code (see host_now); the
// library is not instrumented. The engine runs every simulated rank as a
// fiber on ONE OS thread, which is what makes the host stamps composable:
// at any instant exactly one rank executes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "domain/vec3.hpp"
#include "fcs/solver.hpp"
#include "md/system.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace perfbench {

/// Host seconds: the CPU time of the calling thread. The engine runs every
/// simulated rank on this one thread, so the difference of two stamps is the
/// simulator's own cost, without time the OS spent on other processes.
double host_now();

struct Workload {
  std::string name;
  std::string solver;       // "fmm" | "pm"
  bool torus = false;       // Juqueen-like torus instead of JuRoPA-like switch
  int nranks = 0;
  std::size_t n = 0;        // global particle count
  md::InitialDistribution dist = md::InitialDistribution::kRandom;
  bool resort = false;      // method B
  bool max_move = false;    // hand the step's maximum movement to fcs_run
  double step = 0.0;        // per-step displacement bound
  std::size_t extra_fields = 0;  // Vec3 payload fields besides vel + acc
  int steps = 0;            // time steps per episode
};

/// The benchmark's workloads (tiny = the small sizes its own tests use).
const Workload* find_workload(const std::string& name, bool tiny);
std::vector<std::string> workload_names();

/// Default engine configuration apart from the workload's rank count and
/// network.
sim::EngineConfig engine_config(const Workload& w);

/// Host-time layers stamped around the calls of the coupling loop. kBench is
/// the benchmark's own work (input generation, the correctness oracle); it is
/// cut out of every host window, so it never counts as program time.
enum Layer : int {
  kGenerate,   // md::generate_system            (never yields)
  kTune,       // fcs::Fcs::tune                 (collective)
  kMove,       // the benchmark's displacement   (never yields)
  kAllreduce,  // mpi::Comm::allreduce           (collective)
  kRun,        // fcs::Fcs::run                  (collective)
  kResort,     // fcs::ResortBatch::run          (collective)
  kAccel,      // md::accelerations_from_field   (never yields)
  kBench,      // inputs + oracle                (never yields, excluded)
  kNumLayers
};

/// obs span names of the layers (virtual clock, traced runs only).
inline constexpr const char* kLayerSpan[kNumLayers] = {
    "layer.md.generate", "layer.fcs.tune",  "layer.app.move",
    "layer.mpi.allreduce", "layer.fcs.run", "layer.fcs.resort",
    "layer.md.accel",    "layer.bench"};
inline constexpr const char* kStepSpan = "bench.step";

struct Interval {
  double begin = 0.0;
  double end = 0.0;
  Layer layer = kBench;
};

/// Host time of one window split by layer. A non-yielding call's interval is
/// exact self time. A collective layer gets the union of its intervals over
/// ranks minus the non-yielding calls inside it; where collectives overlap,
/// the heavier call gets the time (see kAttributionOrder in episode.cpp).
/// kBench time is reported but is not part of length().
struct WindowSplit {
  std::array<double, kNumLayers> layer{};
  double uncovered = 0.0;
  double span = 0.0;  // window end - begin
  double length() const { return span - layer[kBench]; }
  double covered() const { return length() - uncovered; }
};

/// Split consecutive windows [edges[i], edges[i+1]) by the intervals.
std::vector<WindowSplit> split_windows(const std::vector<Interval>& intervals,
                                       const std::vector<double>& edges);

struct EpisodeOptions {
  std::uint64_t seed = 1;
  bool traced = false;   // obs::Recorder with spans + per-call host stamps
  bool corrupt = false;  // test hook: flip a bit of a returned array
  bool keep_positions = false;  // return the generated positions
};

struct EpisodeResult {
  // Host seconds (kBench time removed).
  double setup_s = 0.0;
  double init_s = 0.0;
  std::vector<double> step_s;
  // Virtual seconds: per fcs run (initial run first), max over ranks of each
  // phase, with resort_batch folded into resort and total.
  std::vector<fcs::PhaseTimes> run_max;
  std::vector<double> redist_max;  // max over ranks of sort+restore+resort
  double makespan = 0.0;
  // Oracle.
  int runs = 0;
  int runs_failed = 0;
  std::string failure;
  // Traced episodes only.
  std::shared_ptr<obs::Recorder> recorder;
  WindowSplit setup_split;
  std::vector<WindowSplit> step_split;
  double mover_frac = -1.0;  // off-rank share of the resort plans; -1: none
  std::vector<domain::Vec3> positions;  // rank-major, when keep_positions
  std::vector<std::size_t> rank_offsets;
};

EpisodeResult run_episode(const Workload& w, const EpisodeOptions& opt);

/// One reported number.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Host-time probes of the layers that run inside fcs_run, on inputs shaped
/// like the workload.
std::vector<Metric> run_probes(
    const Workload& w, const std::vector<domain::Vec3>& positions,
    const std::vector<std::size_t>& rank_offsets, double mover_frac,
    std::uint64_t seed);

// --- small statistics helpers ----------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace perfbench
