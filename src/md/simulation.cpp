#include "md/simulation.hpp"

#include <algorithm>
#include <cstdint>

#include "fcs/checkpoint.hpp"
#include "obs/obs.hpp"
#include "redist/conserve.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace md {

using domain::Vec3;

fcs::PhaseTimes reduce_phase_max(const mpi::Comm& comm,
                                 const fcs::PhaseTimes& times) {
  // Pack through the named-field table so a new PhaseTimes field joins the
  // reduction (and every other field-generic consumer) automatically.
  double in[fcs::kNumPhaseFields];
  double out[fcs::kNumPhaseFields];
  std::size_t i = 0;
  fcs::for_each_field(times, [&](const char*, double v) { in[i++] = v; });
  comm.allreduce(in, out, fcs::kNumPhaseFields, mpi::OpMax{});
  fcs::PhaseTimes r;
  i = 0;
  fcs::for_each_field(r, [&](const char*, double& v) { v = out[i++]; });
  return r;
}

namespace {

double potential_energy(const mpi::Comm& comm, const std::vector<double>& q,
                        const std::vector<double>& phi) {
  double e = 0.0;
  for (std::size_t i = 0; i < q.size(); ++i) e += q[i] * phi[i];
  return 0.5 * comm.allreduce(e, mpi::OpSum{});
}

/// Bounded random displacement: uniform direction, uniform radius in
/// [step/2, step], plus the coherent drift; the reported maximum movement is
/// exactly `step + |drift|`.
void surrogate_displace(LocalParticles& particles, const domain::Box& box,
                        double step, const Vec3& drift, fcs::Rng& rng) {
  for (std::size_t i = 0; i < particles.size(); ++i) {
    Vec3 dir;
    do {
      dir = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    } while (dir.norm2() > 1.0 || dir.norm2() < 1e-12);
    dir *= 1.0 / dir.norm();
    const double radius = rng.uniform(0.5 * step, step);
    particles.pos[i] = box.wrap(particles.pos[i] + dir * radius + drift);
  }
}

/// max/mean over ranks of this run's compute phase time (1.0 when idle).
double compute_imbalance_ratio(const mpi::Comm& comm, double compute_local) {
  const double sum = comm.allreduce(compute_local, mpi::OpSum{});
  const double max = comm.allreduce(compute_local, mpi::OpMax{});
  const double mean = sum / static_cast<double>(comm.size());
  return mean > 0.0 ? max / mean : 1.0;
}

// --- buddy-checkpoint blob (see DESIGN.md §13) -----------------------------
//
// One rank's complete rollback state: the step counter, per-rank RNG
// engines, the particle shard with every resorted field (the extra payload
// vectors follow the charges), the potentials of the last solver run, and
// the planner/balancer adaptation state (identical on all ranks, saved so a
// restored run replays the same decisions).

constexpr std::uint32_t kCkptMagic = 0x46435343;  // "FCSC"
constexpr std::uint32_t kCkptVersion = 1;

void write_recovery_blob(fcs::ByteWriter& w, int step_done,
                         std::size_t max_local, const LocalParticles& p,
                         const std::vector<std::vector<Vec3>>& extras,
                         const std::vector<double>& phi, const fcs::Rng& rng,
                         const fcs::Rng& rogue_rng, fcs::Fcs& handle) {
  w.put(kCkptMagic);
  w.put(kCkptVersion);
  w.put(static_cast<std::int32_t>(step_done));
  w.put(static_cast<std::uint64_t>(max_local));
  w.put(rng);
  w.put(rogue_rng);
  w.put_vector(p.pos);
  w.put_vector(p.vel);
  w.put_vector(p.acc);
  w.put_vector(p.q);
  for (const std::vector<Vec3>& e : extras) w.put_vector(e);
  w.put_vector(phi);
  const plan::Planner* planner = handle.planner();
  w.put(static_cast<std::uint8_t>(planner != nullptr ? 1 : 0));
  if (planner != nullptr) planner->save(w);
  const lb::Balancer* balancer = handle.balancer();
  w.put(static_cast<std::uint8_t>(balancer != nullptr ? 1 : 0));
  if (balancer != nullptr) balancer->save(w);
}

/// Parse the fixed header + particle arrays (one extra payload vector per
/// entry of `extras`); the caller continues with the planner/balancer
/// sections (or stops, for a guarded blob whose adaptation state is
/// redundant). Returns the checkpointed step.
int read_recovery_arrays(fcs::ByteReader& r, LocalParticles& p,
                         std::vector<std::vector<Vec3>>& extras,
                         std::vector<double>& phi, fcs::Rng& rng,
                         fcs::Rng& rogue_rng, std::size_t& max_local) {
  FCS_CHECK(r.get<std::uint32_t>() == kCkptMagic, "checkpoint blob corrupted");
  FCS_CHECK(r.get<std::uint32_t>() == kCkptVersion,
            "checkpoint blob version mismatch");
  const int step_done = static_cast<int>(r.get<std::int32_t>());
  max_local = static_cast<std::size_t>(r.get<std::uint64_t>());
  rng = r.get<fcs::Rng>();
  rogue_rng = r.get<fcs::Rng>();
  p.pos = r.get_vector<Vec3>();
  p.vel = r.get_vector<Vec3>();
  p.acc = r.get_vector<Vec3>();
  p.q = r.get_vector<double>();
  for (std::vector<Vec3>& e : extras) e = r.get_vector<Vec3>();
  phi = r.get_vector<double>();
  return step_done;
}

/// Append the particle shard of a guarded blob (a dead rank's state) to this
/// rank's arrays. The dead rank's RNG engines and adaptation state are
/// dropped: the shard continues under its new host's RNG stream, and the
/// adaptation state is identical on every rank anyway.
void append_guarded_shard(fcs::ByteReader& r, LocalParticles& p,
                          std::vector<std::vector<Vec3>>& extras,
                          std::vector<double>& phi) {
  LocalParticles shard;
  std::vector<std::vector<Vec3>> shard_extras(extras.size());
  std::vector<double> shard_phi;
  fcs::Rng dead_rng, dead_rogue;
  std::size_t dead_max_local = 0;
  read_recovery_arrays(r, shard, shard_extras, shard_phi, dead_rng,
                       dead_rogue, dead_max_local);
  p.pos.insert(p.pos.end(), shard.pos.begin(), shard.pos.end());
  p.vel.insert(p.vel.end(), shard.vel.begin(), shard.vel.end());
  p.acc.insert(p.acc.end(), shard.acc.begin(), shard.acc.end());
  p.q.insert(p.q.end(), shard.q.begin(), shard.q.end());
  for (std::size_t f = 0; f < extras.size(); ++f)
    extras[f].insert(extras[f].end(), shard_extras[f].begin(),
                     shard_extras[f].end());
  phi.insert(phi.end(), shard_phi.begin(), shard_phi.end());
}

}  // namespace

SimulationResult run_simulation(const mpi::Comm& app_comm, fcs::Fcs& app_handle,
                                LocalParticles& particles,
                                const SimulationConfig& cfg) {
  FCS_CHECK(particles.pos.size() == particles.q.size(),
            "inconsistent particle arrays");
  sim::RankCtx& ctx = app_comm.ctx();
  SimulationResult result;
  const double t_start = ctx.now();

  // The communicator and handle actually driven below; a rank-failure
  // recovery replaces both (shrunk communicator, rebuilt handle).
  mpi::Comm comm = app_comm;
  fcs::Fcs* handle = &app_handle;
  std::unique_ptr<fcs::Fcs> rebuilt;

  std::size_t max_local =
      cfg.max_local_factor > 0
          ? static_cast<std::size_t>(cfg.max_local_factor *
                                     static_cast<double>(particles.size())) +
                64
          : 0;

  fcs::RunOptions ropts;
  ropts.resort = cfg.resort;
  ropts.max_local = max_local;
  ropts.modeled_compute = cfg.modeled_compute;
  ropts.overlap = cfg.overlap;

  if (cfg.lb.enabled) handle->set_load_balance(cfg.lb);

  const bool plan_active = cfg.plan.mode != plan::PlanMode::kOff;
  if (plan_active) handle->set_plan(cfg.plan);

  // Counters recorded below are attributed to epoch 0 (setup + first solve)
  // or to the MD step index, so per-step traffic shows up in the metrics.
  obs::RankObs* const o = ctx.obs();

  std::vector<double> phi;
  std::vector<Vec3> field;
  fcs::RunResult rr;

  // Extra per-particle payload (see SimulationConfig::extra_vec3_fields):
  // deterministic particle-bound values that ride every method-B resort.
  std::vector<std::vector<Vec3>> extras(cfg.extra_vec3_fields);
  for (std::size_t f = 0; f < extras.size(); ++f) {
    extras[f].resize(particles.size());
    for (std::size_t i = 0; i < extras[f].size(); ++i)
      extras[f][i] = particles.pos[i] * (1.0 + static_cast<double>(f));
  }

  fcs::Rng rng = fcs::Rng(cfg.surrogate_seed).stream(
      static_cast<std::uint64_t>(comm.rank()));
  fcs::Rng rogue_rng = fcs::Rng(cfg.rogue_seed).stream(
      static_cast<std::uint64_t>(comm.rank()));

  // Buddy checkpointing (DESIGN.md §13). The scratch blob and the ring map
  // are retained across checkpoints so the steady state allocates nothing.
  fcs::CheckpointStore store(cfg.checkpoint_interval);
  std::vector<std::byte> ckpt_scratch;
  std::vector<int> ckpt_ring;  // world ranks of the checkpoint communicator
  std::uint64_t recovery_generation = 0;
  // World ranks that died since this rank last COMMITTED a checkpoint. A
  // repeated rollback (second failure mid-recovery) re-reads a blob that
  // predates the earlier merges, so every dead rank in this set must have
  // its shard re-hosted again; a successful save folds the merges into the
  // blob and clears the set - atomically with the commit, per rank.
  std::vector<int> failed_since_ckpt;

  auto take_checkpoint = [&](int step_done) {
    fcs::ByteWriter measure;
    write_recovery_blob(measure, step_done, max_local, particles, extras, phi,
                        rng, rogue_rng, *handle);
    ckpt_scratch.resize(measure.size());
    fcs::ByteWriter w(ckpt_scratch.data(), ckpt_scratch.size());
    write_recovery_blob(w, step_done, max_local, particles, extras, phi, rng,
                        rogue_rng, *handle);
    FCS_ASSERT(w.size() == ckpt_scratch.size());
    store.save(comm, ckpt_scratch, step_done);
    ckpt_ring.resize(static_cast<std::size_t>(comm.size()));
    for (int i = 0; i < comm.size(); ++i)
      ckpt_ring[static_cast<std::size_t>(i)] = comm.world_rank(i);
    failed_since_ckpt.clear();
  };

  int step_done = -1;  // last completed step; -1 = initial run pending

  // Shrink, rebuild, roll back to the last checkpoint. Runs INSIDE the
  // retry loop's try block: a second failure hitting mid-recovery (during
  // the agreement, the rebuild-tune, or the re-checkpoint) throws again and
  // simply restarts recovery with the extended dead set - the checkpoint
  // store still holds the blobs, and world-rank buddy bookkeeping stays
  // valid across the partial shrink.
  auto recover = [&]() {
    const double t_fail = ctx.now();
    obs::Span recover_span(o, "recover.restore");

    // Interrupt every survivor, agree on the dead set, shrink.
    comm.revoke();
    mpi::ShrinkResult sr = comm.shrink_recover(++recovery_generation);
    obs::count(o, "recover.crashes", static_cast<double>(sr.failed.size()));

    // Recoverability: rank f's blob lives on the NEXT rank of the ring of
    // the communicator the checkpoint was taken on; that buddy must be
    // among the survivors. World ranks are stable across shrinks, so this
    // check also holds when a second failure hits mid-recovery.
    for (int f : sr.failed) {
      const int w = comm.world_rank(f);
      if (std::find(failed_since_ckpt.begin(), failed_since_ckpt.end(), w) ==
          failed_since_ckpt.end())
        failed_since_ckpt.push_back(w);
    }
    std::vector<int> survivor_world(static_cast<std::size_t>(sr.comm.size()));
    for (int i = 0; i < sr.comm.size(); ++i)
      survivor_world[static_cast<std::size_t>(i)] = sr.comm.world_rank(i);

    // A failure during the transactional save can leave the fleet split
    // between the old and the new checkpoint (partial barrier release);
    // mixed rollback targets would silently diverge, so agree on the step.
    const int ckpt_min = sr.comm.allreduce(store.step_done(), mpi::OpMin{});
    const int ckpt_max = sr.comm.allreduce(store.step_done(), mpi::OpMax{});
    FCS_CHECK(ckpt_min == ckpt_max,
              "unrecoverable failure: survivors hold checkpoints of steps "
                  << ckpt_min << ".." << ckpt_max
                  << " (failure split the checkpoint commit)");

    for (int w : failed_since_ckpt) {
      auto it = std::find(ckpt_ring.begin(), ckpt_ring.end(), w);
      FCS_CHECK(it != ckpt_ring.end(),
                "rank " << w << " failed but has no buddy checkpoint");
      const std::size_t i = static_cast<std::size_t>(it - ckpt_ring.begin());
      const int buddy = ckpt_ring[(i + 1) % ckpt_ring.size()];
      FCS_CHECK(std::find(survivor_world.begin(), survivor_world.end(),
                          buddy) != survivor_world.end(),
                "unrecoverable failure: rank "
                    << w << " and its checkpoint buddy " << buddy
                    << " died in the same checkpoint interval");
    }

    const int prev_step_done = step_done;
    comm = std::move(sr.comm);

    // Fresh handle on the shrunk communicator, configured identically.
    rebuilt = cfg.rebuild_handle(comm);
    FCS_CHECK(rebuilt != nullptr, "rebuild_handle returned a null handle");
    handle = rebuilt.get();
    if (cfg.lb.enabled) handle->set_load_balance(cfg.lb);
    if (plan_active) handle->set_plan(cfg.plan);

    // Roll back this rank's own state...
    fcs::ByteReader own(store.own().data(), store.own().size());
    const int ckpt_step = read_recovery_arrays(own, particles, extras, phi,
                                               rng, rogue_rng, max_local);
    FCS_CHECK(ckpt_step == store.step_done(), "checkpoint step mismatch");
    if (own.get<std::uint8_t>() != 0) {
      plan::Planner* planner = handle->planner();
      FCS_CHECK(planner != nullptr,
                "checkpoint carries planner state but the rebuilt handle "
                "has no planner");
      planner->load(own);
    }
    if (own.get<std::uint8_t>() != 0) {
      lb::Balancer* balancer = handle->balancer();
      FCS_CHECK(balancer != nullptr,
                "checkpoint carries balancer state but the rebuilt handle "
                "has no balancer");
      balancer->load(own);
    }
    FCS_CHECK(own.done(), "checkpoint blob has trailing bytes");

    // ...then re-host the shard of a dead rank this rank guards. The
    // cumulative set matters: after a failure mid-recovery the rollback
    // above re-read a blob that predates the previous recovery's merge, so
    // shards of earlier casualties must be appended again.
    if (std::find(failed_since_ckpt.begin(), failed_since_ckpt.end(),
                  store.guarded_world_rank()) != failed_since_ckpt.end()) {
      fcs::ByteReader guarded(store.guarded().data(), store.guarded().size());
      append_guarded_shard(guarded, particles, extras, phi);
      // This rank's capacity covers the merged shard from now on.
      if (cfg.max_local_factor > 0)
        max_local =
            static_cast<std::size_t>(cfg.max_local_factor *
                                     static_cast<double>(particles.size())) +
            64;
      obs::count(o, "recover.rehosted", 1.0);
    }
    ropts.max_local = max_local;

    // Roll the result series back to the checkpoint. Entries are
    // identical on every rank, so truncation also repairs the divergence
    // left by a crash mid-reduction (some ranks appended the interrupted
    // step, others did not).
    const std::size_t keep = static_cast<std::size_t>(ckpt_step) + 1;
    if (result.step_times.size() > keep) result.step_times.resize(keep);
    if (result.resorted.size() > keep) result.resorted.resize(keep);
    if (result.compute_imbalance.size() > keep)
      result.compute_imbalance.resize(keep);
    step_done = ckpt_step;

    handle->tune(particles.pos, particles.q);

    // Re-buddy immediately on the shrunk communicator so a second failure
    // during the replay stays recoverable.
    take_checkpoint(ckpt_step);

    obs::count(o, "recover.replay_steps",
               static_cast<double>(std::max(0, prev_step_done - ckpt_step)));
    obs::observe(o, "recover.ttr_s", ctx.now() - t_fail);
  };

  // One fcs_run with every integrator field following the particles (Fig. 3
  // lines 5 and 10-11). With stage_fields or overlap the fields are staged
  // into the run: a phased run lets the solver carry them inside its own
  // exchange, an overlapped one exchanges them while the forces compute.
  // Whether the run resorts is the planner's or cfg.resort's call, so they
  // are staged either way; otherwise they follow in one resort batch. A run
  // that restores leaves them untouched. `handle` is read through the
  // reference because recovery replaces it.
  auto run_and_resort = [&]() {
    const bool staged = cfg.stage_fields || cfg.overlap;
    if (staged) {
      handle->stage_vec3(particles.vel).stage_vec3(particles.acc);
      for (auto& e : extras) handle->stage_vec3(e);
    }
    fcs::RunResult run =
        handle->run(particles.pos, particles.q, phi, field, ropts);
    if (run.resorted && !staged) {
      const double rb0 = ctx.now();
      fcs::ResortBatch batch = handle->resort_batch();
      batch.add_vec3(particles.vel).add_vec3(particles.acc);
      for (auto& e : extras) batch.add_vec3(e);
      batch.run();
      // Field resorting is method-B redistribution work: account it with the
      // run's resort phase (the staged paths do inside run).
      run.times.resort += ctx.now() - rb0;
      run.times.total += ctx.now() - rb0;
    }
    return run;
  };

  bool pending_failure = false;
  for (;;) {
    try {
      if (pending_failure) {
        pending_failure = false;
        recover();
      }
      if (step_done < 0) {
        handle->tune(particles.pos, particles.q);
        if (o != nullptr) o->set_epoch(0);
        // Initial interactions (line 5 of Fig. 3).
        {
          obs::Span init_span(ctx, "md.init");
          rr = run_and_resort();
          particles.acc = accelerations_from_field(particles.q, field);
        }
        result.step_times.push_back(reduce_phase_max(comm, rr.times));
        result.resorted.push_back(rr.resorted);
        result.compute_imbalance.push_back(
            compute_imbalance_ratio(comm, rr.times.compute));
        obs::count(o, "md.particles", static_cast<double>(particles.size()));
        result.energy_first = potential_energy(comm, particles.q, phi);
        step_done = 0;
        if (store.due(0)) take_checkpoint(0);
      }

      for (int step = step_done + 1; step <= cfg.steps; ++step) {
        if (o != nullptr) o->set_epoch(step);
        obs::Span step_span(ctx, "md.step");
        obs::Span move_span(ctx, "md.move");
        double max_move_local = 0.0;
        if (cfg.surrogate_motion) {
          surrogate_displace(particles, cfg.box, cfg.surrogate_step,
                             cfg.surrogate_drift, rng);
          max_move_local = cfg.surrogate_step + cfg.surrogate_drift.norm();
        } else {
          max_move_local = advance_positions(particles, cfg.box, cfg.dt);
        }
        if (cfg.rogue_rate > 0.0 && particles.size() > 0 &&
            rogue_rng.uniform(0.0, 1.0) < cfg.rogue_rate) {
          // Teleport one particle but keep reporting the old bound: the
          // solver must catch the broken promise, not us.
          const std::size_t i = static_cast<std::size_t>(rogue_rng.uniform(
              0.0, static_cast<double>(particles.size()) - 0.5));
          const domain::Vec3 lo = cfg.box.offset();
          const domain::Vec3 ext = cfg.box.extent();
          particles.pos[i] = {lo.x + rogue_rng.uniform(0.0, 1.0) * ext.x,
                              lo.y + rogue_rng.uniform(0.0, 1.0) * ext.y,
                              lo.z + rogue_rng.uniform(0.0, 1.0) * ext.z};
          obs::count(o, "md.rogue", 1.0);
        }
        const double max_move = comm.allreduce(max_move_local, mpi::OpMax{});
        obs::observe(o, "md.max_move", max_move);
        // The planner needs the bound to judge the movement arm even when
        // the static config would not exploit it; with planning off the
        // legacy knob alone decides, keeping the fixed-method figure runs
        // bit-identical.
        ropts.max_particle_move =
            (cfg.exploit_max_movement || plan_active) ? max_move : -1.0;
        move_span.end();

        rr = run_and_resort();
        const std::vector<Vec3> new_acc =
            accelerations_from_field(particles.q, field);
        if (cfg.surrogate_motion) {
          particles.acc = new_acc;
        } else {
          advance_velocities(particles, new_acc, cfg.dt);
        }
        step_span.end();
        result.step_times.push_back(reduce_phase_max(comm, rr.times));
        result.resorted.push_back(rr.resorted);
        result.compute_imbalance.push_back(
            compute_imbalance_ratio(comm, rr.times.compute));
        obs::count(o, "md.particles", static_cast<double>(particles.size()));
        step_done = step;
        if (store.due(step)) take_checkpoint(step);
      }

      // Final collectives are still failure-exposed; keep them inside the
      // retry scope so a crash here rolls back and replays like any other.
      result.energy_last = potential_energy(comm, particles.q, phi);
      result.total_time = comm.allreduce(ctx.now() - t_start, mpi::OpMax{});
      break;
    } catch (const mpi::RankFailedError&) {
      // Unrecoverable without a checkpoint to roll back to and a factory
      // for the shrunk-communicator handle: let the failure surface.
      if (!store.enabled() || !store.has_checkpoint() ||
          cfg.rebuild_handle == nullptr)
        throw;
      pending_failure = true;
    }
  }

  // Rank-local final-state checksum: computed with NO communication (a
  // collective here would perturb every virtual-time makespan). Every route
  // the fields can take moves the same values, so for the same inputs the
  // staged and the ResortBatch path agree bit for bit.
  std::uint64_t csum =
      redist::content_checksum(particles.pos.data(), particles.pos.size(),
                               sizeof(Vec3)) +
      redist::content_checksum(particles.q.data(), particles.q.size(),
                               sizeof(double)) +
      redist::content_checksum(particles.vel.data(), particles.vel.size(),
                               sizeof(Vec3)) +
      redist::content_checksum(particles.acc.data(), particles.acc.size(),
                               sizeof(Vec3));
  for (const auto& e : extras)
    csum += redist::content_checksum(e.data(), e.size(), sizeof(Vec3));
  result.state_checksum = csum;

  if (const plan::Planner* p = handle->planner(); p != nullptr)
    result.plan_decisions = p->decision_string();
  return result;
}

}  // namespace md
