// Figure 7: per-time-step runtimes with a RANDOM initial distribution,
// method A (restore) vs method B (resort), for the initial solver execution
// and the first 8 time steps. Paper setup: 256 processes on JuRoPA.
//
// Expected shape (paper): method A's sort/restore cost stays constant over
// the steps (the random distribution is restored every time); method B's
// sort + resort cost drops by 1-2 orders of magnitude after the first step;
// the total drops to ~45 % (FMM) / ~20 % (PM) of method A.
//
// A third series "Bm" runs method B with the max-movement information
// (paper Sect. III-B): after the first step the solver input stays in solver
// order and the small surrogate movement lets the solvers switch to
// merge-based sorting / neighborhood communication, replacing the dense
// all-to-all. With FIG_METRICS set, the per-step alltoall byte counters of
// the A/B runs versus the Bm run show the dense -> sparse switch directly.
//
// A fifth series "Bs" repeats the plain B configuration with the integrator
// fields staged into every run (SimulationConfig::stage_fields): they travel
// INSIDE the solver's own redistribution exchange instead of a separate
// per-step resort round, so the redistribution share of each step drops
// while the physics stays bit-identical - the run asserts that the B and Bs
// final-state checksums match and prints "store bit-identity: yes" (the
// series keeps its historical name and run label, which CI reads).
//
// Robustness testing (see README "Robustness testing"): when any FCS_FAULT_*
// knob is set, a final series "Bmf" repeats the Bm configuration under the
// env-configured fault plan plus the FCS_FAULT_ROGUE max-movement-violation
// rate. In the FIG_METRICS output, fallback steps of the faulty run show up
// as "redist.fallback" counts and per-step "mpi.alltoallv.bytes" reappearing
// where the clean Bm run has none; drop/retry costs appear as
// "sim.reliable.retransmits".
#include "bench_common.hpp"

#include "sim/fault.hpp"

int main() {
  const int nranks = static_cast<int>(bench::env_size("FIG_RANKS", 256));
  const std::size_t n = bench::env_size("FIG_N", 262144);
  const int steps = 8;

  const sim::FaultPlan faults = sim::EngineConfig::from_env().fault_plan;
  const double rogue = bench::env_double("FCS_FAULT_ROGUE", 0.0);
  const bool faulty = faults.active() || rogue > 0.0;
  const int variants = faulty ? 6 : 5;

  std::printf("Fig. 7: time steps with random initial distribution, %d "
              "ranks, %zu particles (virtual seconds)\n",
              nranks, n);
  if (faulty)
    std::printf("fault injection: seed=%llu drop=%g dup=%g jitter=%g "
                "rogue=%g (series Bmf)\n",
                static_cast<unsigned long long>(faults.seed),
                faults.drop_rate, faults.duplicate_rate, faults.jitter_rate,
                rogue);

  std::vector<bench::Series> json_series;
  static const char* kVariantNames[] = {"A", "B", "Bm", "Bo", "Bs", "Bmf"};
  for (const char* solver : {"fmm", "pm"}) {
    std::vector<std::string> columns = {"step",    "A_sort", "A_restore",
                                        "A_total", "B_sort", "B_resort",
                                        "B_total", "Bm_sort", "Bm_total",
                                        "Bo_total", "Bs_total"};
    if (faulty) {
      columns.push_back("Bmf_sort");
      columns.push_back("Bmf_total");
    }
    fcs::Table table(columns);
    std::vector<md::SimulationResult> res(static_cast<std::size_t>(variants));
    for (int variant = 0; variant < variants; ++variant) {
      const md::SystemConfig sys =
          bench::paper_system(n, md::InitialDistribution::kRandom);
      md::SimulationConfig cfg;
      cfg.box = sys.box;
      cfg.steps = steps;
      cfg.resort = variant >= 1;
      // The paper's Fig. 7 series use no movement information; the extra Bm
      // series exploits it (and Bmf stresses it under faults). Bo repeats
      // the plain B configuration through the task-graph overlapped
      // fcs_run (cfg.overlap): identical work, exchange hidden under
      // compute.
      // Bs repeats plain B with the staged integrator fields carried inside
      // the solver exchange.
      cfg.exploit_max_movement = variant == 2 || variant == 5;
      cfg.modeled_compute = true;
      cfg.surrogate_motion = true;
      cfg.surrogate_step = 0.1;  // slight movement, like early time steps
      if (variant == 5) cfg.rogue_rate = rogue;
      const bool overlapped = variant == 3;
      const bool stored = variant == 4;
      cfg.stage_fields = stored;
      cfg.overlap = overlapped;
      std::string label;
      if (overlapped) label = std::string(solver) + "-B-task";
      if (stored) label = std::string(solver) + "-B-store";
      bench::SimOutcome out = bench::run_configuration(
          nranks, bench::juropa_like(), sys, solver, cfg, 256, label,
          variant == 5 ? &faults : nullptr);
      res[static_cast<std::size_t>(variant)] = std::move(out.result);
      const auto& r = res[static_cast<std::size_t>(variant)];
      bench::Series s;
      s.name = std::string(solver) + "-" + kVariantNames[variant];
      s.total_time = out.makespan;
      for (const auto& t : r.step_times) s.per_step.push_back(t.total);
      s.imbalance = r.compute_imbalance;
      s.method = variant == 0                  ? "A"
                 : variant == 2 || variant == 5 ? "B+mm"
                                                : "B";
      s.sort = variant == 2 || variant == 5 ? "auto" : "partition";
      s.exchange = variant == 2 || variant == 5 ? "auto" : "alltoall";
      s.network = "switched";
      json_series.push_back(std::move(s));
    }
    // Carrying the fields must be a pure transport change: the final
    // per-particle state of the plain-B and the Bs run agree bit for bit.
    FCS_CHECK(res[1].state_checksum == res[4].state_checksum,
              solver << ": store run diverged from the legacy run (checksum "
                     << res[1].state_checksum << " vs "
                     << res[4].state_checksum << ")");
    std::printf("\n%s store bit-identity: yes (checksum %016llx)\n", solver,
                static_cast<unsigned long long>(res[1].state_checksum));
    for (int s = 0; s <= steps; ++s) {
      const auto& a = res[0].step_times.at(static_cast<std::size_t>(s));
      const auto& b = res[1].step_times.at(static_cast<std::size_t>(s));
      const auto& bm = res[2].step_times.at(static_cast<std::size_t>(s));
      const auto& bo = res[3].step_times.at(static_cast<std::size_t>(s));
      const auto& bs = res[4].step_times.at(static_cast<std::size_t>(s));
      auto& row = table.begin_row()
          .col(s == 0 ? std::string("init") : std::to_string(s))
          .col(a.sort, 4)
          .col(a.restore, 4)
          .col(a.total, 4)
          .col(b.sort, 4)
          .col(b.resort, 4)
          .col(b.total, 4)
          .col(bm.sort, 4)
          .col(bm.total, 4)
          .col(bo.total, 4)
          .col(bs.total, 4);
      if (faulty) {
        const auto& bmf = res[5].step_times.at(static_cast<std::size_t>(s));
        row.col(bmf.sort, 4).col(bmf.total, 4);
      }
    }
    std::printf("\n%s solver:\n", solver);
    std::ostringstream oss;
    table.print(oss);
    std::fputs(oss.str().c_str(), stdout);
  }
  bench::write_bench_json("fig7", json_series);
  return 0;
}
