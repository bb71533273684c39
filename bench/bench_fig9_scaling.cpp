// Figure 9: parallel runtimes of the particle dynamics simulation over the
// number of processes, for method A, method B, and method B exploiting the
// maximum particle movement.
//
// Left: FMM on the switched (JuRoPA-like) network, 8..1024 ranks. Expected
// shape: B < A (largest gap ~33 % around 256 ranks); B+movement is slightly
// SLOWER than plain B - the switched network gives neighbor communication
// no advantage, so the merge-exchange sort's extra rounds do not pay off.
//
// Right: PM on the torus (Juqueen-like) network, 16..FIG9_MAXP ranks.
// Expected shape: at large rank counts both A and plain B blow up on the
// dense all-to-all redistribution, while B+movement keeps scaling (paper:
// ~40 % below A at 16384 ranks).
#include "bench_common.hpp"

namespace {

void scaling_series(const char* title, const char* solver,
                    const std::vector<int>& rank_counts, bool torus,
                    std::size_t n, int steps) {
  std::printf("\n%s (%zu particles, %d steps, virtual seconds)\n", title, n,
              steps);
  fcs::Table table({"ranks", "method_A", "method_B", "B_max_move", "B_overlap"});
  for (int p : rank_counts) {
    double t[4] = {0, 0, 0, 0};
    for (int variant = 0; variant < 4; ++variant) {
      const auto dist = std::string(solver) == "fmm"
                            ? md::InitialDistribution::kZOrderSegments
                            : md::InitialDistribution::kProcessGrid;
      const md::SystemConfig sys = bench::paper_system(n, dist);
      md::SimulationConfig cfg;
      cfg.box = sys.box;
      cfg.steps = steps;
      cfg.resort = variant >= 1;
      cfg.exploit_max_movement = variant == 2;
      // Variant 3 repeats plain method B through the task-graph overlapped
      // fcs_run: the resort exchange hides under the forces.
      const bool overlapped = variant == 3;
      cfg.overlap = overlapped;
      cfg.modeled_compute = true;
      cfg.surrogate_motion = true;
      // Drift like a warm melt: noticeable movement per step, well below
      // the movement heuristics' cube-side / subdomain thresholds.
      cfg.surrogate_step = 1.0;
      auto net = torus ? bench::juqueen_like(p) : bench::juropa_like();
      bench::SimOutcome out = bench::run_configuration(
          p, std::move(net), sys, solver, cfg, /*stack_kb=*/192,
          overlapped ? std::string(solver) + "-B-task" : std::string{});
      t[variant] = out.result.total_time;
    }
    table.begin_row()
        .col(static_cast<long long>(p))
        .col(t[0], 4)
        .col(t[1], 4)
        .col(t[2], 4)
        .col(t[3], 4);
  }
  std::ostringstream oss;
  table.print(oss);
  std::fputs(oss.str().c_str(), stdout);
}

}  // namespace

int main() {
  const std::size_t n = bench::env_size("FIG_N", 262144);
  const int steps = static_cast<int>(bench::env_size("FIG9_STEPS", 10));
  const int maxp = static_cast<int>(bench::env_size("FIG9_MAXP", 4096));

  std::printf("Fig. 9: strong scaling of the particle dynamics simulation\n");

  scaling_series("FMM on the switched (JuRoPA-like) network", "fmm",
                 {8, 16, 32, 64, 128, 256, 512, 1024}, /*torus=*/false, n,
                 steps);

  std::vector<int> pm_ranks = {16, 64, 256, 1024};
  for (int p = 4096; p <= maxp; p *= 4) pm_ranks.push_back(p);
  scaling_series("PM (P2NFFT-like) on the torus (Juqueen-like) network", "pm",
                 pm_ranks, /*torus=*/true, n, steps);
  return 0;
}
