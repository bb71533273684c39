#include "fcs/fcs.hpp"

#include <optional>

#include "redist/conserve.hpp"
#include "redist/exchange_plan.hpp"
#include "redist/resort.hpp"
#include "task/task_graph.hpp"

namespace fcs {

using domain::Vec3;

namespace {

// Slabs the overlapped run splits the staged-field exchange into (fewer when
// the communicator is smaller): each slab is packed, sent and in flight while
// the next one is packed and the forces compute.
constexpr std::size_t kOverlapSlabs = 4;

/// Conservation validation of a whole run (sim::EngineConfig::validate): the
/// global particle count and an order-independent checksum of the charges
/// and every staged field must be the same before and after all
/// redistribution. Values are copied, never recomputed, so the comparison is
/// exact down to the bit pattern. `sum_in` and `staged_sum_out` are
/// wrap-sums of content_checksum, like the charges' part.
void validate_run(const mpi::Comm& comm, std::size_t n_in,
                  std::uint64_t sum_in, const std::vector<double>& charges_out,
                  std::uint64_t staged_sum_out) {
  std::uint64_t local[4] = {
      n_in, charges_out.size(), sum_in,
      redist::content_checksum(charges_out.data(), charges_out.size(),
                               sizeof(double)) +
          staged_sum_out};
  std::uint64_t global[4];
  comm.allreduce(local, global, 4, mpi::OpSum{});
  FCS_CHECK(global[0] == global[1],
            "fcs.run conservation violated: " << global[0]
                << " particles in, " << global[1] << " out");
  FCS_CHECK(global[2] == global[3],
            "fcs.run conservation violated: checksum of the charges and "
            "staged fields changed across redistribution ("
                << global[0] << " particles)");
  obs::count(comm.ctx().obs(), "fcs.validate.checks", 1.0);
}

}  // namespace

Fcs::Fcs(const mpi::Comm& comm, const std::string& method)
    : comm_(comm), solver_(create_solver(method)) {}

void Fcs::set_common(const domain::Box& box) {
  box_ = box;
  solver_->set_box(box);
}

void Fcs::set_load_balance(const lb::LbConfig& cfg) {
  balancer_ = std::make_unique<lb::Balancer>(cfg);
}

void Fcs::set_plan(const plan::PlanConfig& cfg) {
  planner_ = cfg.mode == plan::PlanMode::kOff
                 ? nullptr
                 : std::make_unique<plan::Planner>(cfg);
}

void Fcs::set_accuracy(double accuracy) { solver_->set_accuracy(accuracy); }

void Fcs::tune(const std::vector<domain::Vec3>& positions,
               const std::vector<double>& charges) {
  solver_->tune(comm_, positions, charges);
}

RunResult Fcs::run(std::vector<domain::Vec3>& positions,
                   std::vector<double>& charges,
                   std::vector<double>& potentials,
                   std::vector<domain::Vec3>& field,
                   const RunOptions& options) {
  // The run consumes the staged queue, whether it returns or throws.
  std::vector<ResortBatch::Field> staged;
  staged.swap(staged_fields_);
  FCS_CHECK(positions.size() == charges.size(),
            "positions/charges size mismatch");
  const std::size_t n_original = positions.size();
  // Staged fields must fit this run's particles before anything moves: a
  // wrong length would misalign the rows, and a vector staged twice would
  // become two carried columns over one buffer, permuted twice.
  for (std::size_t k = 0; k < staged.size(); ++k) {
    const ResortBatch::Field& f = staged[k];
    const std::size_t size =
        std::visit([](const auto* v) { return v->size(); }, f.vec);
    FCS_CHECK(size == f.components * n_original,
              "staged field " << k << " holds " << size << " values, expected "
                  << f.components << " x " << n_original
                  << " local particles");
    for (std::size_t j = 0; j < k; ++j)
      FCS_CHECK(staged[j].vec != f.vec, "staged field " << k
                    << " is staged twice (same vector as field " << j << ")");
  }
  auto staged_sum = [&staged] {
    std::uint64_t sum = 0;
    for (const ResortBatch::Field& f : staged)
      std::visit(
          [&sum](const auto* v) {
            sum += redist::content_checksum(v->data(), v->size(),
                                            sizeof(v->front()));
          },
          f.vec);
    return sum;
  };

  sim::RankCtx& ctx = comm_.ctx();
  obs::Span run_span(ctx, "fcs.run");
  obs::count(ctx.obs(), "fcs.run.calls", 1.0);
  const bool validate = ctx.config().validate;
  const std::uint64_t sum_in =
      validate ? redist::content_checksum(charges.data(), charges.size(),
                                          sizeof(double)) +
                     staged_sum()
               : 0;

  // Adaptive planning (src/plan): an active planner overrides the per-run
  // coupling options. decide() communicates only in auto mode, so fixed
  // plans replay the legacy virtual-time behaviour bit-identically.
  plan::RedistPlan rplan;
  const bool planned = planner_ != nullptr && planner_->active();
  bool want_resort = options.resort;
  double bound = options.max_particle_move;
  // Extra per-particle fields the app resorted since the previous run: they
  // ride the planned resort exchange at marginal cost, which the planner's
  // cost model charges.
  const std::size_t extra_fields = resort_field_count_;
  resort_field_count_ = 0;
  if (planned) {
    plan::DecideInputs din;
    din.n_local = positions.size();
    din.max_move = options.max_particle_move;
    din.input_in_solver_order = last_resorted_;
    din.volume = box_.volume();
    din.extra_fields = static_cast<double>(extra_fields);
    rplan = planner_->decide(comm_, din);
    want_resort = rplan.method != plan::Method::kA;
    // Only the movement-bound arm exploits the bound: methods A and B must
    // run the paper's bound-free code paths (fixed:A / fixed:B plans
    // reproduce the corresponding figure series).
    if (rplan.method != plan::Method::kBMaxMove) bound = -1.0;
  }

  SolveOptions sopts;
  sopts.resort = want_resort;
  sopts.max_particle_move = bound;
  sopts.max_local = options.max_local;
  sopts.modeled_compute = options.modeled_compute;
  sopts.input_in_solver_order = last_resorted_;
  sopts.balancer =
      balancer_ != nullptr && balancer_->active() ? balancer_.get() : nullptr;
  sopts.plan = planned ? &rplan : nullptr;

  // A phased method-B run hands the staged fields to the solver, so a
  // carrying solver path ships them inside its own redistribution exchange
  // instead of a separate resort round. An overlapped run keeps them out of
  // the sort exchange: it sends them in slabs under the force computation.
  sortlib::CarrySet carry;
  if (want_resort && !options.overlap && !staged.empty()) {
    carry.scratch = &carry_scratch_;
    for (const ResortBatch::Field& f : staged)
      std::visit(
          [&](auto* v) {
            carry.cols.push_back(sortlib::carry_column(*v, f.components));
          },
          f.vec);
    sopts.carry = &carry;
  }

  // --- Solve: phased, or overlapped through the task graph ------------------
  const bool use_task = options.overlap && want_resort;
  SolveResult solved;
  PhaseTimes task_times;       // resort-machinery time of the overlapped path
  bool task_resorted = false;  // the graph already ran the resort machinery

  if (use_task) {
    auto stage = std::make_shared<SolveStage>(
        solver_->begin_solve(comm_, positions, charges, sopts));
    bool fits_cap = true;
    if (options.max_local > 0) {
      const int fits =
          stage->partial.origin.size() <= options.max_local ? 1 : 0;
      fits_cap = comm_.allreduce(fits, mpi::OpMin{}) == 1;
    }
    if (!fits_cap) {
      // Capacity fallback: finish sequentially; the common path below
      // re-checks the capacity and takes the restore branch.
      solved = solver_->finish_solve(comm_, std::move(*stage), sopts);
    } else {
      obs::count(ctx.obs(), "fcs.task.runs", 1.0);
      // Resort prologue, sequential: the origin inversion communicates and
      // the slab layout needs the plan. Identical to the phased machinery.
      std::optional<redist::FusedBatch> batch;
      std::size_t nslabs = 0;
      {
        PhaseScope phase(ctx, task_times, &PhaseTimes::resort, "fcs.resort",
                         /*add_to_total=*/true);
        build_resort_plan(stage->partial.origin, n_original,
                          stage->partial.resort_kind);
        batch = run_batch(staged, /*carried=*/false);
        if (batch) nslabs = batch->async_begin(kOverlapSlabs);
      }
      // The overlapped graph: per-slab pack -> async exchange, the force
      // computation running while the slabs are in flight, one unpack once
      // every slab has landed. Comm nodes start in ascending id order (the
      // task executor contract), so all ranks create the slab collectives in
      // the same sequence.
      task::Graph g;
      std::vector<task::NodeId> xchg;
      for (std::size_t k = 0; k < nslabs; ++k) {
        const task::NodeId pk = g.add_compute(
            "pack" + std::to_string(k), [&batch, k] { batch->async_pack(k); });
        xchg.push_back(g.add_comm(
            "xchg" + std::to_string(k),
            [&batch, k] { return batch->async_start(k); }, nullptr, {pk}));
      }
      double force_dur = 0.0;
      g.add_compute("force", [&] {
        const double f0 = ctx.now();
        solved = solver_->finish_solve(comm_, std::move(*stage), sopts);
        force_dur = ctx.now() - f0;
      });
      if (nslabs > 0)
        g.add_compute("unpack", [&batch] { batch->async_finish(); }, xchg);
      const double g0 = ctx.now();
      task::Executor ex;
      const task::Executor::Stats ts = ex.run(g, ctx);
      // Everything in the graph window that was not the force computation is
      // resort machinery: packs, residual arrival waits, the unpack.
      const double resort_part = (ctx.now() - g0) - force_dur;
      task_times.resort += resort_part;
      task_times.total += resort_part;
      obs::count(ctx.obs(), "fcs.resort", resort_part);
      if (obs::RankObs* const o = ctx.obs(); o != nullptr && ts.comm_s > 0.0)
        o->observe("fcs.task.overlap_ratio", ts.overlap_s / ts.comm_s);
      task_resorted = true;
    }
  } else {
    solved = solver_->finish_solve(
        comm_, solver_->begin_solve(comm_, positions, charges, sopts), sopts);
  }

  // Load-balancing cost model: feed the balancer this epoch's measured
  // compute time and particle count of the solver decomposition (the bytes
  // moved since the last observation are read from the obs counters inside).
  // Collective, like the solve itself.
  if (sopts.balancer != nullptr)
    sopts.balancer->observe(comm_, solved.positions.size(),
                            solved.times.compute);

  RunResult result;
  result.times = solved.times;
  result.times += task_times;  // zero when the phased path ran

  // Model calibration (auto mode only): after the run completes, feed the
  // planner the observed phase costs of the decision it made. Collective
  // (one allreduce), like the solve itself.
  auto feed_planner = [&](bool resorted) {
    if (!planned || !planner_->auto_mode()) return;
    plan::ObserveInputs oin;
    oin.t_sort = solved.times.sort;
    oin.t_restore = result.times.restore - solved.times.restore;
    oin.t_resort = result.times.resort - solved.times.resort;
    oin.resorted = resorted;
    oin.sparse_resort = solved.resort_kind == redist::ExchangeKind::kSparse;
    planner_->observe(comm_, oin);
  };

  bool do_resort = want_resort;
  if (!task_resorted && do_resort && options.max_local > 0) {
    // Paper: the changed distribution can only be returned if every rank's
    // local arrays are large enough.
    const int fits =
        solved.positions.size() <= options.max_local ? 1 : 0;
    do_resort = comm_.allreduce(fits, mpi::OpMin{}) == 1;
  }
  if (want_resort && !do_resort)
    obs::count(ctx.obs(), "fcs.resort_fallback", 1.0);

  if (do_resort) {
    // --- Method B: hand back the solver order; staged data follows it -----
    // (the overlapped graph already ran this machinery)
    if (!task_resorted) {
      {
        PhaseScope phase(ctx, result.times, &PhaseTimes::resort, "fcs.resort",
                         /*add_to_total=*/true);
        build_resort_plan(solved.origin, n_original, solved.resort_kind);
      }
      if (std::optional<redist::FusedBatch> batch =
              run_batch(staged, solved.fields_carried)) {
        PhaseScope phase(ctx, result.times, &PhaseTimes::resort, "fcs.resort",
                         /*add_to_total=*/true);
        batch->execute();
      }
    }
    positions = std::move(solved.positions);
    charges = std::move(solved.charges);
    potentials = std::move(solved.potentials);
    field = std::move(solved.field);
    last_resorted_ = true;
    if (validate)
      validate_run(comm_, n_original, sum_in, charges, staged_sum());
    feed_planner(/*resorted=*/true);
    result.resorted = true;
    result.n_local = positions.size();
    return result;
  }
  // --- Method A (or capacity fallback): restore original order/distribution
  {
    PhaseScope phase(ctx, result.times, &PhaseTimes::restore, "fcs.restore",
                     /*add_to_total=*/true);
    struct ResultPacket {
      std::uint64_t origin;
      double potential;
      Vec3 field;
    };
    std::vector<ResultPacket> packets(solved.positions.size());
    for (std::size_t i = 0; i < packets.size(); ++i)
      packets[i] =
          ResultPacket{solved.origin[i], solved.potentials[i], solved.field[i]};
    std::vector<ResultPacket> restored = redist::restore_to_origin(
        comm_, packets, [](const ResultPacket& pk) { return pk.origin; },
        n_original, redist::ExchangeKind::kDense);
    potentials.resize(n_original);
    field.resize(n_original);
    for (std::size_t i = 0; i < n_original; ++i) {
      potentials[i] = restored[i].potential;
      field[i] = restored[i].field;
    }
    last_resorted_ = false;
    resort_plan_.reset();
    resort_n_changed_ = n_original;
  }
  // A restoring run leaves staged fields untouched (the caller checks
  // last_run_resorted(), exactly as with resort_*). The one exception is a
  // capacity fallback AFTER the solver already carried them into its order:
  // ship every row home again so they match the (restored) caller arrays.
  if (solved.fields_carried) {
    PhaseScope phase(ctx, result.times, &PhaseTimes::restore, "fcs.restore",
                     /*add_to_total=*/true);
    for (const ResortBatch::Field& f : staged)
      std::visit(
          [&](auto* v) {
            *v = redist::resort_values(comm_, solved.origin, *v, f.components,
                                       n_original,
                                       redist::ExchangeKind::kDense);
          },
          f.vec);
  }
  // Method A leaves positions/charges untouched, so count conservation is
  // trivial - but the checksum still guards against buffer corruption.
  if (validate) validate_run(comm_, n_original, sum_in, charges, staged_sum());
  feed_planner(/*resorted=*/false);
  result.resorted = false;
  result.n_local = n_original;
  return result;
}

void Fcs::build_resort_plan(const std::vector<std::uint64_t>& origin,
                            std::size_t n_original,
                            redist::ExchangeKind kind) {
  const std::vector<std::uint64_t> resort_indices =
      redist::invert_origin_indices(comm_, origin, n_original, kind);
  // The reusable schedule for every field that follows the particles: built
  // with zero communication from the two index arrays already in hand.
  resort_plan_ = redist::ResortPlan::build(comm_, resort_indices, origin, kind);
  resort_n_changed_ = origin.size();
}

std::optional<redist::FusedBatch> Fcs::run_batch(
    const std::vector<ResortBatch::Field>& staged, bool carried) {
  if (staged.empty() || carried) return std::nullopt;
  std::optional<redist::FusedBatch> batch(
      std::in_place, comm_, resort_plan_.plan(), resort_plan_.placement());
  ResortBatch::queue(*batch, staged);
  resort_field_count_ += staged.size();
  return batch;
}

void Fcs::resort_floats(std::vector<double>& values,
                        std::size_t components) const {
  FCS_CHECK(last_resorted_,
            "resort_floats: the last run did not return the changed order");
  ++resort_field_count_;
  values = resort_plan_.resort(comm_, values, components);
}

void Fcs::resort_ints(std::vector<std::int64_t>& values,
                      std::size_t components) const {
  FCS_CHECK(last_resorted_,
            "resort_ints: the last run did not return the changed order");
  ++resort_field_count_;
  values = resort_plan_.resort(comm_, values, components);
}

void Fcs::resort_vec3(std::vector<domain::Vec3>& values) const {
  FCS_CHECK(last_resorted_,
            "resort_vec3: the last run did not return the changed order");
  ++resort_field_count_;
  values = resort_plan_.resort(comm_, values, 1);
}

Fcs& Fcs::stage_floats(std::vector<double>& values, std::size_t components) {
  staged_fields_.push_back(ResortBatch::Field{&values, components});
  return *this;
}

Fcs& Fcs::stage_ints(std::vector<std::int64_t>& values,
                     std::size_t components) {
  staged_fields_.push_back(ResortBatch::Field{&values, components});
  return *this;
}

Fcs& Fcs::stage_vec3(std::vector<domain::Vec3>& values) {
  staged_fields_.push_back(ResortBatch::Field{&values, 1});
  return *this;
}

ResortBatch Fcs::resort_batch() {
  FCS_CHECK(last_resorted_,
            "resort_batch: the last run did not return the changed order");
  return ResortBatch(*this);
}

ResortBatch& ResortBatch::add_floats(std::vector<double>& values,
                                     std::size_t components) {
  fields_.push_back(Field{&values, components});
  return *this;
}

ResortBatch& ResortBatch::add_ints(std::vector<std::int64_t>& values,
                                   std::size_t components) {
  fields_.push_back(Field{&values, components});
  return *this;
}

ResortBatch& ResortBatch::add_vec3(std::vector<domain::Vec3>& values) {
  fields_.push_back(Field{&values, 1});
  return *this;
}

void ResortBatch::queue(redist::FusedBatch& batch,
                        const std::vector<Field>& fields) {
  for (const Field& f : fields)
    std::visit([&](auto* v) { batch.add(*v, f.components, *v); }, f.vec);
}

void ResortBatch::run() {
  if (fields_.empty()) return;
  Fcs& fcs = *fcs_;
  FCS_CHECK(fcs.last_resorted_,
            "ResortBatch::run: the last run did not return the changed order");
  fcs.resort_field_count_ += fields_.size();
  redist::FusedBatch batch(fcs.comm_, fcs.resort_plan_.plan(),
                           fcs.resort_plan_.placement());
  queue(batch, fields_);
  batch.execute();
  fields_.clear();
}

}  // namespace fcs
