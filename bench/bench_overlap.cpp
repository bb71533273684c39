// Overlap bench: task-graph fcs_run (SimulationConfig::overlap) vs phased
// execution.
//
// Method B in a redistribution-heavy regime: random initial distribution
// with strong per-step surrogate motion, so every step pays a dense
// redistribution whose exchange flight is big enough to hide under the
// modeled force computation. Paper-style acceptance criterion (ISSUE 9 /
// ROADMAP latency hiding): on the switched (JuRoPA-like) fabric at 64
// ranks, with redistribution >= 40 % of the phased step time, the
// overlapped run must cut total virtual time by >= 15 %.
//
// The binary self-asserts (exit code 1 on a miss) and writes a
// deterministic BENCH_overlap.json when BENCH_JSON is set; the CI overlap
// leg reruns it and compares the files byte-for-byte.
//
//   FIG_RANKS       - rank count (default 64, the acceptance scale)
//   OVERLAP_N_FMM   - FMM global particle count (default 16384)
//   OVERLAP_N_PM    - PM global particle count (default 262144)
//   OVERLAP_FIELDS  - extra Vec3 payload arrays per particle (default 24)
//   OVERLAP_MOVE    - surrogate movement per step (default 40)
//   OVERLAP_STEPS   - time steps per run (default 3)
#include "bench_common.hpp"

int main() {
  const int nranks = static_cast<int>(bench::env_size("FIG_RANKS", 64));
  const int steps = static_cast<int>(bench::env_size("OVERLAP_STEPS", 3));
  // Redistribution-heavy regime, per solver: FMM's modeled near-field cost
  // per particle grows with density, so it sits at a moderate particle
  // count; PM pays a fixed mesh-transform floor, so its redistribution only
  // dominates at a high particle count. The extra Vec3 payload models
  // production particle state riding the resort (cf. bench_fusion).
  const std::size_t n_fmm = bench::env_size("OVERLAP_N_FMM", 16384);
  const std::size_t n_pm = bench::env_size("OVERLAP_N_PM", 262144);
  const std::size_t fields = bench::env_size("OVERLAP_FIELDS", 24);

  std::printf("Overlap: phased vs task-graph fcs_run, method B, switched "
              "network, %d ranks, %zu extra fields (virtual seconds)\n",
              nranks, fields);

  std::vector<bench::Series> json_series;
  fcs::Table table(
      {"solver", "phased", "overlapped", "win_pct", "redist_share_pct"});
  bool ok = true;
  for (const char* solver : {"fmm", "pm"}) {
    const std::size_t n = std::string(solver) == "fmm" ? n_fmm : n_pm;
    md::SimulationResult res[2];
    double makespan[2] = {0, 0};
    for (int variant = 0; variant < 2; ++variant) {
      const md::SystemConfig sys =
          bench::paper_system(n, md::InitialDistribution::kRandom);
      md::SimulationConfig cfg;
      cfg.box = sys.box;
      cfg.steps = steps;
      cfg.resort = true;  // method B: the task path overlaps its resort
      cfg.modeled_compute = true;
      cfg.surrogate_motion = true;
      cfg.extra_vec3_fields = fields;
      // Strong motion: a sizable fraction of particles crosses subdomain
      // boundaries every step, keeping the exchange dense and heavy.
      cfg.surrogate_step = bench::env_double("OVERLAP_MOVE", 40.0);
      cfg.overlap = variant == 1;
      bench::SimOutcome out = bench::run_configuration(
          nranks, bench::juropa_like(), sys, solver, cfg, 256,
          std::string(solver) + (variant == 1 ? "-B-task" : "-B-phased"));
      res[variant] = std::move(out.result);
      makespan[variant] = out.makespan;

      bench::Series s;
      s.name = std::string("switched-") + solver +
               (variant == 1 ? "-overlapped" : "-phased");
      s.total_time = out.makespan;
      for (const auto& t : res[variant].step_times)
        s.per_step.push_back(t.total);
      s.imbalance = res[variant].compute_imbalance;
      s.method = "B";
      s.sort = "partition";
      s.exchange = "alltoall";
      s.network = "switched";
      json_series.push_back(std::move(s));
    }

    // Redistribution share of the PHASED run: everything that is not the
    // force computation (sort + resort; restore is zero under method B).
    double redist = 0.0, total = 0.0;
    for (const fcs::PhaseTimes& t : res[0].step_times) {
      redist += t.sort + t.restore + t.resort;
      total += t.total;
    }
    const double share = total > 0.0 ? redist / total : 0.0;
    const double win =
        makespan[0] > 0.0 ? 1.0 - makespan[1] / makespan[0] : 0.0;
    table.begin_row()
        .col(std::string(solver))
        .col(makespan[0], 4)
        .col(makespan[1], 4)
        .col(100.0 * win, 3)
        .col(100.0 * share, 3);

    const bool share_ok = share >= 0.40;
    const bool win_ok = win >= 0.15;
    std::printf("%s: redistribution share %.1f%% (>= 40%%: %s), "
                "overlap win %.1f%% (>= 15%%: %s)\n",
                solver, 100.0 * share, share_ok ? "yes" : "NO",
                100.0 * win, win_ok ? "yes" : "NO");
    ok = ok && share_ok && win_ok;
  }

  std::ostringstream oss;
  table.print(oss);
  std::fputs(oss.str().c_str(), stdout);
  bench::write_bench_json("overlap", json_series);
  return ok ? 0 : 1;
}
