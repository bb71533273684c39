// Adaptive-planner benchmark: does the "auto" planner track the best fixed
// (method, sort, exchange) configuration across movement regimes, without
// being told which one it is?
//
// Three regimes, chosen so a DIFFERENT fixed configuration wins each:
//
//   small-drift - random distribution, movement ~0.1 per step: after the
//                 first step the input stays in solver order and the bound is
//                 tiny, so B+mm (merge sort / neighborhood exchange) wins.
//   large-drift - movement beyond the subdomain scale: the movement bound is
//                 useless (B+mm degrades to B; FORCING its sparse paths is a
//                 disaster), plain method B wins, method A restores a fully
//                 scrambled distribution every step.
//   clustered   - drifting Gaussian hotspots with moderate movement: the
//                 solver-order input and small bound again favor B+mm, on a
//                 skewed distribution.
//
// Five configurations per regime: the planner in auto mode, the three fixed
// plans that reproduce the legacy method A / B / B+mm behaviour, and a
// deliberately forced fixed:B+mm,merge,neighborhood ("Bmmf") exercising the
// misconfiguration paths - in the large-drift regime its forced merge sort
// runs the full Batcher schedule over scrambled input and its forced
// neighborhood exchange falls back to the dense all-to-all every step
// (redist.fallback), which must stay CORRECT even when it is not what the
// bound promised. Everything runs on both machine models.
//
// Expected shape: auto is within ~10 % of the best fixed configuration in
// every (regime, network) cell - it pays a small cold-start premium on the
// first two steps - and beats the worst fixed configuration by far more
// than 25 % wherever movement information matters. The BENCH_plan.json
// export carries per-series metadata (method/sort/exchange/network) plus the
// auto runs' decision-code strings; CI asserts both properties from it.
//
//   FIG_RANKS  - rank count (default 32)
//   FIG_N      - global particle count (default 16384)
//   PLAN_STEPS - time steps per run (default 12)
//   BENCH_JSON - write BENCH_plan.json
#include "bench_common.hpp"

int main() {
  const int nranks = static_cast<int>(bench::env_size("FIG_RANKS", 32));
  const std::size_t n = bench::env_size("FIG_N", 16384);
  const int steps = static_cast<int>(bench::env_size("PLAN_STEPS", 12));

  const std::vector<int> dims = mpi::dims_create(nranks, 3);

  std::printf("Plan: adaptive vs fixed configurations, %d ranks, %zu "
              "particles, %d steps (virtual seconds)\n",
              nranks, n, steps);

  struct Regime {
    const char* name;
    md::InitialDistribution dist;
    double step;       // surrogate movement per time step
    bool drift;        // slide the pattern along x (clustered hotspots)
    bool clustered;
  };
  const Regime regimes[] = {
      {"small-drift", md::InitialDistribution::kRandom, 0.1, false, false},
      // Half the box per step: a full scramble, far beyond the subdomain
      // scale sub_cube, so movement information is worthless.
      {"large-drift", md::InitialDistribution::kRandom, 124.0, false, false},
      {"clustered", md::InitialDistribution::kClustered, 0.5, true, true},
  };

  struct Config {
    const char* name;    // series key
    const char* spec;    // plan spec ("auto" or fixed:<...>)
    const char* method;  // metadata
    const char* sort;
    const char* exchange;
  };
  const Config configs[] = {
      {"auto", "auto", "auto", "auto", "auto"},
      {"A", "fixed:A", "A", "partition", "alltoall"},
      {"B", "fixed:B", "B", "partition", "alltoall"},
      {"Bmm", "fixed:B+mm", "B+mm", "auto", "auto"},
      {"Bmmf", "fixed:B+mm,merge,neighborhood", "B+mm", "merge",
       "neighborhood"},
  };

  std::vector<bench::Series> json_series;
  for (const char* netname : {"switched", "torus"}) {
    const bool torus = std::string(netname) == "torus";
    for (const Regime& rg : regimes) {
      fcs::Table table(
          {"config", "fmm_total", "fmm_redist", "pm_total", "pm_redist"});
      std::string auto_decisions[2];
      for (const Config& pc : configs) {
        int si = 0;
        double totals[2] = {0, 0}, redists[2] = {0, 0};
        for (const char* solver : {"fmm", "pm"}) {
          md::SystemConfig sys = bench::paper_system(n, rg.dist);
          if (rg.clustered) {
            sys.cluster_count = 8;
            sys.cluster_sigma = 0.05;
          }
          md::SimulationConfig cfg;
          cfg.box = sys.box;
          cfg.steps = steps;
          // The planner overrides these; they only matter for mode=off
          // (never the case here - every config sets a plan).
          cfg.resort = false;
          cfg.exploit_max_movement = false;
          cfg.modeled_compute = true;
          cfg.surrogate_motion = true;
          cfg.surrogate_step = rg.step;
          if (rg.drift)
            cfg.surrogate_drift = {248.0 / dims[0] / steps, 0.0, 0.0};
          cfg.plan = plan::parse_plan_spec(pc.spec);
          const std::string label = std::string(netname) + "-" + rg.name +
                                    "-" + solver + "-" + pc.name;
          bench::SimOutcome out = bench::run_configuration(
              nranks,
              torus ? bench::juqueen_like(nranks) : bench::juropa_like(),
              sys, solver, cfg, 256, label);
          const md::SimulationResult& r = out.result;
          double redist = 0.0;
          for (const auto& t : r.step_times)
            redist += t.sort + t.restore + t.resort;
          totals[si] = out.makespan;
          redists[si] = redist;
          if (std::string(pc.name) == "auto")
            auto_decisions[si] = r.plan_decisions;
          bench::Series s;
          s.name = label;
          s.total_time = out.makespan;
          // per_step carries the REDISTRIBUTION time (sort + restore +
          // resort) rather than the step total: the compute phase is
          // identical across configurations, and CI asserts the planner's
          // margin over the worst fixed configuration on this quantity.
          for (const auto& t : r.step_times)
            s.per_step.push_back(t.sort + t.restore + t.resort);
          s.imbalance = r.compute_imbalance;
          s.method = pc.method;
          s.sort = pc.sort;
          s.exchange = pc.exchange;
          s.network = netname;
          s.decisions = r.plan_decisions;
          json_series.push_back(std::move(s));
          ++si;
        }
        table.begin_row()
            .col(pc.name)
            .col(totals[0], 4)
            .col(redists[0], 4)
            .col(totals[1], 4)
            .col(redists[1], 4);
      }
      std::printf("\n%s network, %s regime:\n", netname, rg.name);
      std::ostringstream oss;
      table.print(oss);
      std::fputs(oss.str().c_str(), stdout);
      std::printf("auto decisions: fmm=%s pm=%s\n",
                  auto_decisions[0].c_str(), auto_decisions[1].c_str());
    }
  }
  bench::write_bench_json("plan", json_series);
  return 0;
}
