// One fused resort batch vs one resort call per field (redist/exchange_plan).
//
// Every method-B fcs_run builds one resort plan (an ExchangePlan with known
// receive counts). With k additional per-particle fields (velocities,
// accelerations, ...) the application can move them with k resort_vec3
// calls - k plan applies, each paying the dense fabric latency / its own
// partner messages - or with one ResortBatch, which ships every field as one
// extra typed segment of a single multi-segment message per partner pair.
//
// This harness runs both arms ("fused": ResortBatch, "perfield": resort_vec3
// per field) over 0/2/4 extra Vec3 fields on both machine models and reports
// the per-step REDISTRIBUTION virtual time: solver sort + resort-index
// creation + the application-side field resorts, compute excluded.
// BENCH_fusion.json carries the series; CI asserts the fused 4-field
// switched-fabric run undercuts the per-field arm by >= 20%.
//
//   FUSION_RANKS - rank count (default 64, the acceptance scale)
//   FUSION_N     - global particle count (default 55296)
//   FUSION_STEPS - time steps per series (default 10)
#include "bench_common.hpp"
#include "support/rng.hpp"

namespace {

using domain::Vec3;

struct FusionSeries {
  std::vector<double> per_step;  // max-over-ranks redistribution time
  double total = 0.0;
};

FusionSeries run_fusion(int nranks, std::shared_ptr<const sim::NetworkModel> net,
                        std::size_t n_global, int steps, int extra_fields,
                        bool fused) {
  FusionSeries out;
  sim::EngineConfig cfg;
  cfg.nranks = nranks;
  cfg.network = std::move(net);
  cfg.stack_bytes = 256 * 1024;
  sim::Engine engine(cfg);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm = mpi::Comm::world(ctx);
    const md::SystemConfig sys =
        bench::paper_system(n_global, md::InitialDistribution::kRandom);
    md::LocalParticles particles = md::generate_system(comm, sys);
    fcs::Fcs handle(comm, "pm");
    bench::configure_solver(handle, "pm", sys.box, nranks);
    handle.tune(particles.pos, particles.q);

    // The k extra per-particle payload fields that follow the particles.
    std::vector<std::vector<Vec3>> fields(
        static_cast<std::size_t>(extra_fields));
    for (std::size_t f = 0; f < fields.size(); ++f) {
      fields[f].resize(particles.size());
      for (std::size_t i = 0; i < fields[f].size(); ++i)
        fields[f][i] = {static_cast<double>(f), static_cast<double>(i), 0.0};
    }

    fcs::Rng rng = fcs::Rng(41).stream(
        static_cast<std::uint64_t>(comm.rank()));
    std::vector<double> phi;
    std::vector<Vec3> field;
    fcs::RunOptions ropts;
    ropts.resort = true;
    ropts.modeled_compute = true;
    for (int step = 0; step < steps; ++step) {
      // Bounded random displacement, like the surrogate MD driver.
      for (std::size_t i = 0; i < particles.size(); ++i) {
        Vec3 dir = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                    rng.uniform(-1, 1)};
        const double len = dir.norm();
        if (len > 1e-12)
          particles.pos[i] =
              sys.box.wrap(particles.pos[i] + dir * (0.5 / len));
      }
      const fcs::RunResult rr =
          handle.run(particles.pos, particles.q, phi, field, ropts);
      double t_fields = 0.0;
      if (rr.resorted && extra_fields > 0) {
        const double t0 = ctx.now();
        if (fused) {
          fcs::ResortBatch batch = handle.resort_batch();
          for (auto& f : fields) batch.add_vec3(f);
          batch.run();
        } else {
          for (auto& f : fields) handle.resort_vec3(f);
        }
        t_fields = ctx.now() - t0;
      }
      const double redist_local =
          rr.times.sort + rr.times.resort + t_fields;
      const double redist = comm.allreduce(redist_local, mpi::OpMax{});
      if (comm.rank() == 0) {
        out.per_step.push_back(redist);
        out.total += redist;
      }
    }
  });
  return out;
}

}  // namespace

int main() {
  const int nranks = static_cast<int>(bench::env_size("FUSION_RANKS", 64));
  const std::size_t n_global = bench::env_size("FUSION_N", 55296);
  const int steps = static_cast<int>(bench::env_size("FUSION_STEPS", 10));
  std::printf("Fused resort batch vs per-field resort calls\n");
  std::printf("(%d ranks, %zu particles, %d steps, method B + k extra Vec3 "
              "fields; per-step\n redistribution virtual time: sort + resort "
              "indices + field exchanges)\n\n",
              nranks, n_global, steps);

  std::vector<bench::Series> all;
  for (const bool torus : {false, true}) {
    const char* net_name = torus ? "torus" : "switched";
    std::printf("%s network:\n",
                torus ? "torus (Juqueen-like)" : "switched (JuRoPA-like)");
    fcs::Table table({"extra_fields", "perfield", "fused", "saving"});
    for (const int extra : {0, 2, 4}) {
      auto net = [&]() -> std::shared_ptr<const sim::NetworkModel> {
        return torus ? bench::juqueen_like(nranks) : bench::juropa_like();
      };
      const FusionSeries perfield =
          run_fusion(nranks, net(), n_global, steps, extra, false);
      const FusionSeries fused =
          run_fusion(nranks, net(), n_global, steps, extra, true);
      const double saving =
          perfield.total > 0.0 ? 1.0 - fused.total / perfield.total : 0.0;
      table.begin_row()
          .col(static_cast<long long>(extra))
          .col(perfield.total, 4)
          .col(fused.total, 4)
          .col(saving * 100.0, 3);
      for (const bool is_fused : {false, true}) {
        const FusionSeries& s = is_fused ? fused : perfield;
        bench::Series js;
        js.name = std::string(net_name) +
                  (is_fused ? "-fused-" : "-perfield-") +
                  std::to_string(extra) + "f";
        js.total_time = s.total;
        js.per_step = s.per_step;
        // Move-assigned: GCC 12 reports a bogus -Wrestrict for a one-char
        // literal assigned into this inlined string at -O3 (GCC PR 105329).
        js.method = std::string("B");
        js.exchange = "alltoall";
        js.network = net_name;
        all.push_back(std::move(js));
      }
    }
    std::ostringstream oss;
    table.print(oss);
    std::fputs(oss.str().c_str(), stdout);
    std::printf("\n");
  }
  std::printf("(saving = 1 - fused/perfield, percent of redistribution "
              "time; fused ships all\n fields as segments of ONE message per "
              "partner instead of one plan apply per\n field)\n");
  bench::write_bench_json("fusion", all);
  return 0;
}
