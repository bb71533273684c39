// One episode of the coupling loop (see perfbench.hpp) plus the host-window
// accounting shared by the untraced and traced runs.
#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstring>

#include "bench_common.hpp"
#include "perfbench.hpp"
#include "support/rng.hpp"

namespace perfbench {

using domain::Vec3;

double host_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double quantile(std::vector<double> v, double q) {
  FCS_CHECK(!v.empty(), "quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

// Which layer an instant covered by several layers' intervals belongs to.
// Non-yielding calls are exact. Among collectives, the heavier call wins: a
// rank that waits inside a collective is blocked on a rank still working in
// an earlier, heavier call (fcs_run before resort_batch before the allreduce),
// and a rank leaving the allreduce goes straight into fcs_run.
constexpr Layer kAttributionOrder[] = {kBench, kGenerate, kMove, kAccel,
                                       kRun,   kResort,   kTune, kAllreduce};

// Full-size workloads follow the paper's Figs. 7-9 regimes; tiny ones keep
// the same methods and networks at test size.
const std::vector<Workload>& table(bool tiny) {
  using D = md::InitialDistribution;
  static const std::vector<Workload> full = {
      {"fmm-random-restore", "fmm", false, 256, 262144, D::kRandom, false,
       false, 0.1, 0, 8},
      {"pm-drift-resort", "pm", false, 256, 262144, D::kProcessGrid, true,
       false, 1.0, 4, 8},
      {"pm-torus-neighbor", "pm", true, 1024, 262144, D::kProcessGrid, true,
       true, 1.0, 0, 8},
  };
  static const std::vector<Workload> small = {
      {"fmm-random-restore", "fmm", false, 32, 4096, D::kRandom, false, false,
       0.1, 0, 3},
      {"pm-drift-resort", "pm", false, 32, 4096, D::kProcessGrid, true, false,
       1.0, 4, 3},
      {"pm-torus-neighbor", "pm", true, 64, 4096, D::kProcessGrid, true, true,
       1.0, 0, 3},
  };
  return tiny ? small : full;
}

/// Records [construction, destruction] of one layer call into `sink` (when
/// non-null) and covers it with an obs span (when tracing).
class LayerScope {
 public:
  LayerScope(std::vector<Interval>* sink, Layer layer, obs::RankObs* o)
      : sink_(sink),
        layer_(layer),
        span_(o, kLayerSpan[layer]),
        begin_(sink != nullptr ? host_now() : 0.0) {}
  ~LayerScope() {
    if (sink_ != nullptr) sink_->push_back({begin_, host_now(), layer_});
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  std::vector<Interval>* sink_;
  Layer layer_;
  obs::Span span_;
  double begin_;
};

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

std::uint64_t fmix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

/// The particles of one rank as the application holds them.
struct Particles {
  std::vector<Vec3> pos;
  std::vector<double> q;
  std::vector<Vec3> vel;
  std::vector<Vec3> acc;
  std::vector<std::vector<Vec3>> extra;
};

/// Order-independent content hash: each particle's (position, charge, vel,
/// acc, payload) bits are mixed into one word, and the words are summed, so
/// the total is the same for any order and distribution of the same
/// particles, and any lost, duplicated or misaligned field changes it.
std::uint64_t content_hash(const Particles& p) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < p.pos.size(); ++i) {
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    auto add = [&h](double v) { h = fmix(h ^ bits(v)); };
    auto add3 = [&add](const Vec3& v) {
      add(v.x);
      add(v.y);
      add(v.z);
    };
    add3(p.pos[i]);
    add(p.q[i]);
    add3(p.vel[i]);
    add3(p.acc[i]);
    for (const auto& e : p.extra) add3(e[i]);
    sum += h;
  }
  return sum;
}

/// Bounded random displacement: uniform direction, radius uniform in
/// [step/2, step]. Returns the largest radius drawn (the exact local
/// maximum movement).
double displace(std::vector<Vec3>& pos, const domain::Box& box, double step,
                fcs::Rng& rng) {
  double max_radius = 0.0;
  for (Vec3& x : pos) {
    Vec3 dir;
    do {
      dir = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    } while (dir.norm2() > 1.0 || dir.norm2() < 1e-12);
    dir *= 1.0 / dir.norm();
    const double radius = rng.uniform(0.5 * step, step);
    max_radius = std::max(max_radius, radius);
    x = box.wrap(x + dir * radius);
  }
  return max_radius;
}

/// Host-side state the rank bodies write into (one OS thread: no races).
struct Shared {
  std::vector<Interval> intervals;
  std::vector<double> setup_end;               // [rank]
  std::vector<double> init_end;                // [rank]
  std::vector<std::vector<double>> step_end;   // [step][rank]
  std::vector<std::vector<fcs::PhaseTimes>> times;  // [run][rank]
  std::vector<std::uint64_t> hash_in, hash_out, count_out;  // [run]
  std::vector<int> order_broken;               // [run]: ranks
  double movers = 0.0, items = 0.0;
  std::vector<std::vector<Vec3>> positions;    // [rank], keep_positions
};

}  // namespace

const Workload* find_workload(const std::string& name, bool tiny) {
  for (const Workload& w : table(tiny))
    if (w.name == name) return &w;
  return nullptr;
}

sim::EngineConfig engine_config(const Workload& w) {
  sim::EngineConfig cfg;
  cfg.nranks = w.nranks;
  cfg.network =
      w.torus ? bench::juqueen_like(w.nranks) : bench::juropa_like();
  return cfg;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : table(false)) names.push_back(w.name);
  return names;
}

std::vector<WindowSplit> split_windows(const std::vector<Interval>& intervals,
                                       const std::vector<double>& edges) {
  FCS_CHECK(edges.size() >= 2, "need at least one window");
  const std::size_t nw = edges.size() - 1;
  std::vector<WindowSplit> out(nw);
  for (std::size_t i = 0; i < nw; ++i) out[i].span = edges[i + 1] - edges[i];

  struct Event {
    double t;
    bool begin;
    Layer layer;
  };
  std::vector<Event> events;
  events.reserve(2 * intervals.size());
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.begin) continue;
    events.push_back({iv.begin, true, iv.layer});
    events.push_back({iv.end, false, iv.layer});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : a.begin < b.begin;  // ends first
  });

  std::array<int, kNumLayers> active{};
  std::size_t w = 0;
  auto attribute = [&](double a, double b) {
    a = std::max(a, edges.front());
    b = std::min(b, edges.back());
    if (b <= a) return;
    int layer = -1;
    for (Layer l : kAttributionOrder)
      if (layer < 0 && active[static_cast<std::size_t>(l)] > 0) layer = l;
    while (a < b) {
      while (w + 1 < nw && edges[w + 1] <= a) ++w;
      const double e = std::min(b, edges[w + 1]);
      (layer < 0 ? out[w].uncovered
                 : out[w].layer[static_cast<std::size_t>(layer)]) += e - a;
      if (e <= a) break;  // a sits past the last edge
      a = e;
    }
  };

  double t_prev = edges.front();
  for (const Event& ev : events) {
    if (ev.t > t_prev) {
      attribute(t_prev, ev.t);
      t_prev = ev.t;
    }
    active[static_cast<std::size_t>(ev.layer)] += ev.begin ? 1 : -1;
  }
  attribute(t_prev, edges.back());
  return out;
}

EpisodeResult run_episode(const Workload& w, const EpisodeOptions& opt) {
  const std::size_t nr = static_cast<std::size_t>(w.nranks);
  const int runs = w.steps + 1;
  Shared sh;
  sh.setup_end.assign(nr, 0.0);
  sh.init_end.assign(nr, 0.0);
  sh.step_end.assign(static_cast<std::size_t>(w.steps),
                     std::vector<double>(nr, 0.0));
  sh.times.assign(static_cast<std::size_t>(runs),
                  std::vector<fcs::PhaseTimes>(nr));
  sh.hash_in.assign(static_cast<std::size_t>(runs), 0);
  sh.hash_out.assign(static_cast<std::size_t>(runs), 0);
  sh.count_out.assign(static_cast<std::size_t>(runs), 0);
  sh.order_broken.assign(static_cast<std::size_t>(runs), 0);
  if (opt.keep_positions) sh.positions.resize(nr);

  // Every input derives from the workload seed.
  std::uint64_t seed_state = opt.seed;
  md::SystemConfig sys = bench::paper_system(w.n, w.dist);
  sys.seed = fcs::splitmix64(seed_state);
  const std::uint64_t move_seed = fcs::splitmix64(seed_state);
  const std::uint64_t payload_seed = fcs::splitmix64(seed_state);

  fcs::RunOptions ropts;
  ropts.resort = w.resort;
  ropts.modeled_compute = true;

  std::vector<Interval>* const layer_sink =
      opt.traced ? &sh.intervals : nullptr;
  std::vector<Interval>* const bench_sink = &sh.intervals;

  EpisodeResult res;
  res.runs = runs;
  const double t0 = host_now();
  sim::EngineConfig cfg = engine_config(w);
  if (opt.traced) cfg.recorder = std::make_shared<obs::Recorder>(true);
  sim::Engine engine(cfg);

  auto body = [&](sim::RankCtx& ctx) {
    const mpi::Comm comm = mpi::Comm::world(ctx);
    const int r = comm.rank();
    const std::size_t ri = static_cast<std::size_t>(r);
    obs::RankObs* const o = ctx.obs();

    // --- set-up: generate + tune -------------------------------------------
    Particles p;
    {
      LayerScope s(layer_sink, kGenerate, o);
      md::LocalParticles gen = md::generate_system(comm, sys);
      p.pos = std::move(gen.pos);
      p.q = std::move(gen.q);
    }
    // The generated crystal sits on a lattice, so its decomposition costs
    // would not depend on the seed; one seeded displacement (like a time
    // step's) before tuning makes every run's inputs its own.
    fcs::Rng move_rng = fcs::Rng(move_seed).stream(ri);
    {
      LayerScope s(bench_sink, kBench, o);
      displace(p.pos, sys.box, w.step, move_rng);
      if (opt.keep_positions) sh.positions[ri] = p.pos;
    }
    fcs::Fcs handle(comm, w.solver);
    bench::configure_solver(handle, w.solver, sys.box, w.nranks);
    {
      LayerScope s(layer_sink, kTune, o);
      handle.tune(p.pos, p.q);
    }
    sh.setup_end[ri] = host_now();

    {
      LayerScope s(bench_sink, kBench, o);
      fcs::Rng rng = fcs::Rng(payload_seed).stream(ri);
      auto fill = [&](std::vector<Vec3>& v) {
        v.resize(p.pos.size());
        for (Vec3& x : v)
          x = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
      };
      fill(p.vel);
      fill(p.acc);
      p.extra.resize(w.extra_fields);
      for (auto& e : p.extra) fill(e);
    }
    std::vector<double> phi;
    std::vector<Vec3> field;

    // fcs_run + resort_batch, checked by the oracle around it.
    auto solve = [&](int run) {
      const std::size_t ru = static_cast<std::size_t>(run);
      std::vector<Vec3> pos_in;
      std::vector<double> q_in;
      {
        LayerScope s(bench_sink, kBench, o);
        sh.hash_in[ru] += content_hash(p);
        pos_in = p.pos;
        q_in = p.q;
      }
      fcs::RunResult rr;
      {
        LayerScope s(layer_sink, kRun, o);
        rr = handle.run(p.pos, p.q, phi, field, ropts);
      }
      if (rr.resorted) {
        LayerScope s(layer_sink, kResort, o);
        const double v0 = ctx.now();
        fcs::ResortBatch batch = handle.resort_batch();
        batch.add_vec3(p.vel).add_vec3(p.acc);
        for (auto& e : p.extra) batch.add_vec3(e);
        batch.run();
        rr.times.resort += ctx.now() - v0;
        rr.times.total += ctx.now() - v0;
      }
      LayerScope s(bench_sink, kBench, o);
      sh.times[ru][ri] = rr.times;
      if (rr.resorted && run > 0 && handle.resort_plan().valid()) {
        const redist::ExchangePlan& plan = handle.resort_plan().plan();
        sh.items += static_cast<double>(plan.n_items());
        sh.movers += static_cast<double>(plan.n_items() -
                                         plan.send_counts()[ri]);
      }
      if (opt.corrupt && run == 1 && r == 0 && !p.vel.empty()) {
        std::uint64_t u = bits(p.vel[0].x) ^ 1u;
        std::memcpy(&p.vel[0].x, &u, sizeof u);
      }
      const bool sizes_ok = p.q.size() == p.pos.size() &&
                            p.vel.size() == p.pos.size() &&
                            p.acc.size() == p.pos.size() &&
                            std::all_of(p.extra.begin(), p.extra.end(),
                                        [&](const std::vector<Vec3>& e) {
                                          return e.size() == p.pos.size();
                                        }) &&
                            phi.size() == p.pos.size() &&
                            field.size() == p.pos.size();
      if (!sizes_ok) {
        ++sh.order_broken[ru];
        return;
      }
      sh.hash_out[ru] += content_hash(p);
      sh.count_out[ru] += p.pos.size();
      // Without a resort the arrays must come back in the original order.
      if (!rr.resorted &&
          (pos_in.size() != p.pos.size() ||
           std::memcmp(pos_in.data(), p.pos.data(),
                       p.pos.size() * sizeof(Vec3)) != 0 ||
           std::memcmp(q_in.data(), p.q.data(), p.q.size() * sizeof(double)) !=
               0))
        ++sh.order_broken[ru];
    };

    // --- initial run (Fig. 3 line 5) ----------------------------------------
    if (o != nullptr) o->set_epoch(0);
    solve(0);
    {
      LayerScope s(layer_sink, kAccel, o);
      p.acc = md::accelerations_from_field(p.q, field);
    }
    sh.init_end[ri] = host_now();

    // --- time steps ---------------------------------------------------------
    for (int step = 1; step <= w.steps; ++step) {
      if (o != nullptr) o->set_epoch(step);
      obs::Span step_span(o, kStepSpan);
      double local_max = 0.0;
      {
        LayerScope s(layer_sink, kMove, o);
        local_max = displace(p.pos, sys.box, w.step, move_rng);
      }
      double max_move = 0.0;
      {
        LayerScope s(layer_sink, kAllreduce, o);
        max_move = comm.allreduce(local_max, mpi::OpMax{});
      }
      ropts.max_particle_move = w.max_move ? max_move : -1.0;
      solve(step);
      {
        LayerScope s(layer_sink, kAccel, o);
        p.acc = md::accelerations_from_field(p.q, field);
      }
      step_span.end();
      sh.step_end[static_cast<std::size_t>(step - 1)][ri] = host_now();
    }
  };

  try {
    engine.run(body);
  } catch (const std::exception& e) {
    res.runs_failed = runs;
    res.failure = std::string("engine run threw: ") + e.what();
    return res;
  }
  res.makespan = engine.makespan();
  res.recorder = cfg.recorder;

  // Oracle verdict per run, summed host-side (no communication).
  for (int run = 0; run < runs; ++run) {
    const std::size_t ru = static_cast<std::size_t>(run);
    std::string why;
    if (sh.count_out[ru] != w.n)
      why = "global count " + std::to_string(sh.count_out[ru]) +
            " != " + std::to_string(w.n);
    else if (sh.hash_out[ru] != sh.hash_in[ru])
      why = "particle content hash changed";
    else if (sh.order_broken[ru] > 0)
      why = std::to_string(sh.order_broken[ru]) +
            " ranks got arrays back in a different order or size";
    if (!why.empty()) {
      ++res.runs_failed;
      if (res.failure.empty())
        res.failure = "run " + std::to_string(run) + ": " + why;
    }
  }

  // Virtual phase times, max over ranks.
  for (const auto& per_rank : sh.times) {
    fcs::PhaseTimes mx;
    double redist = 0.0;
    for (const fcs::PhaseTimes& t : per_rank) {
      for (const fcs::PhaseField& f : fcs::kPhaseFields)
        mx.*f.member = std::max(mx.*f.member, t.*f.member);
      redist = std::max(redist, t.sort + t.restore + t.resort);
    }
    res.run_max.push_back(mx);
    res.redist_max.push_back(redist);
  }

  // Host windows: set-up, initial run, then one per step; each ends at the
  // latest per-rank stamp.
  auto latest = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  std::vector<double> edges = {t0, latest(sh.setup_end), latest(sh.init_end)};
  for (const auto& e : sh.step_end) edges.push_back(latest(e));
  const std::vector<WindowSplit> split = split_windows(sh.intervals, edges);
  res.setup_s = split[0].length();
  res.init_s = split[1].length();
  for (std::size_t k = 2; k < split.size(); ++k)
    res.step_s.push_back(split[k].length());
  if (opt.traced) {
    res.setup_split = split[0];
    res.step_split.assign(split.begin() + 2, split.end());
  }
  res.mover_frac = sh.items > 0 ? sh.movers / sh.items : -1.0;
  if (opt.keep_positions) {
    res.rank_offsets.push_back(0);
    for (auto& v : sh.positions) {
      res.positions.insert(res.positions.end(), v.begin(), v.end());
      res.rank_offsets.push_back(res.positions.size());
    }
  }
  return res;
}

}  // namespace perfbench
