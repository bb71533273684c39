#include "plan/planner.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace plan {

namespace {

// Approximate payload sizes (bytes per element) of the three redistribution
// phases: solver particles (pos + charge + key/origin), method A result
// packets (origin + potential + field), resort-index packets. Only the
// RATIOS matter for the cold-start ordering; the NLMS terms and per-bin rho
// absorb the absolute scale.
constexpr double kParticleBytes = 48.0;
constexpr double kRestoreBytes = 40.0;
constexpr double kResortBytes = 16.0;
// One extra resorted field (Vec3-per-particle is the common case).
constexpr double kFieldBytes = 24.0;

// Fraction of the in-order traffic that moves even when nothing moved
// (splitter probes, boundary strips, ghost refresh).
constexpr double kResidualTraffic = 0.05;

// EWMA horizon (in solver runs) of the cost-model calibration: the
// regression step size and the rho smoothing factor are 1/horizon.
constexpr double kEwmaHorizon = 8.0;

double clampd(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

// --- Spec parsing -----------------------------------------------------------

PlanConfig parse_plan_spec(const std::string& spec) {
  PlanConfig cfg;
  if (spec == "off" || spec.empty()) {
    cfg.mode = PlanMode::kOff;
    return cfg;
  }
  if (spec == "auto") {
    cfg.mode = PlanMode::kAuto;
    return cfg;
  }
  FCS_CHECK(spec.rfind("fixed:", 0) == 0,
            "bad plan spec '" << spec
                              << "' (want off | auto | fixed:<spec>)");
  cfg.mode = PlanMode::kFixed;
  std::string rest = spec.substr(6);
  bool have_method = false;
  std::size_t pos = 0;
  while (pos <= rest.size()) {
    const std::size_t comma = rest.find(',', pos);
    const std::string tok =
        rest.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? rest.size() + 1 : comma + 1;
    if (tok == "A" || tok == "B" || tok == "Bmm" || tok == "B+mm") {
      FCS_CHECK(!have_method, "plan spec names two methods: " << spec);
      have_method = true;
      cfg.fixed.method = tok == "A"   ? Method::kA
                         : tok == "B" ? Method::kB
                                      : Method::kBMaxMove;
    } else if (tok == "partition" || tok == "merge") {
      cfg.fixed.sort =
          tok == "merge" ? SortAlgo::kMerge : SortAlgo::kPartition;
    } else if (tok == "atasp" || tok == "alltoall" || tok == "neigh" ||
               tok == "neighborhood") {
      cfg.fixed.exchange = tok == "atasp" || tok == "alltoall"
                               ? Exchange::kAllToAll
                               : Exchange::kNeighborhood;
    } else if (tok == "auto") {
      // Explicit "keep the solver heuristic" for sort/exchange.
    } else {
      FCS_CHECK(false, "bad plan spec token '" << tok << "' in " << spec);
    }
  }
  FCS_CHECK(have_method,
            "fixed plan spec needs a method (A | B | B+mm): " << spec);
  return cfg;
}

// --- Cost model -------------------------------------------------------------

CostModel::CostModel() {
  // Cold-start priors on the scale of the switched-fabric machine model
  // (sim/network.hpp): ~2us per message / per all-to-all partner, ~1/3 GB/s
  // per byte, a few ns per local sort op. They only have to rank the arms
  // sensibly for the first one or two steps - the first observed phases
  // recalibrate every term through the NLMS updates.
  coef_ = {2e-6, 3.3e-10, 2e-6, 3.3e-10, 2e-9};
}

double CostModel::predict(const Features& f) const {
  double s = 0.0;
  for (int t = 0; t < kTerms; ++t) s += coef_[static_cast<std::size_t>(t)] * f[static_cast<std::size_t>(t)];
  return std::max(s, 0.0);
}

void CostModel::update(const Features& f, double observed, double eta) {
  double norm2 = 0.0;
  for (double v : f) norm2 += v * v;
  if (!(norm2 > 0.0) || !(observed >= 0.0)) return;
  const double err = observed - predict(f);
  const double step = eta * err / norm2;
  for (int t = 0; t < kTerms; ++t) {
    double& c = coef_[static_cast<std::size_t>(t)];
    c = std::max(0.0, c + step * f[static_cast<std::size_t>(t)]);
  }
}

// --- Planner ----------------------------------------------------------------

Planner::Planner(const PlanConfig& cfg) : cfg_(cfg) {
  FCS_CHECK(cfg_.probe_rate >= 0.0 && cfg_.probe_rate <= 1.0,
            "plan probe rate must be in [0, 1]");
  rho_.fill(1.0);
}

double Planner::bin_rho(CostBin bin) const {
  return rho_[static_cast<std::size_t>(bin)];
}

double Planner::predict_bin(CostBin bin) const {
  const std::size_t b = static_cast<std::size_t>(bin);
  return rho_[b] * model_.predict(features_[b]);
}

double Planner::bin_prediction(CostBin bin) const { return predict_bin(bin); }

void Planner::observe_bin(CostBin bin, double observed) {
  const std::size_t b = static_cast<std::size_t>(bin);
  const double eta = 1.0 / kEwmaHorizon;
  const double base = std::max(model_.predict(features_[b]), 1e-30);
  const double r = clampd(observed / base, 1e-2, 1e2);
  rho_[b] = rho_set_[b] ? (1.0 - eta) * rho_[b] + eta * r : r;
  rho_set_[b] = true;
  model_.update(features_[b], observed, eta);
}

void Planner::build_features(double n_global, int nranks, double max_move,
                             bool in_order, double volume,
                             double extra_fields) {
  const double p = static_cast<double>(nranks);
  const double nbar = n_global / p;
  const double nlog = nbar * std::log2(nbar + 2.0);
  // Side length of a volume/P cube - the paper's merge-sort threshold scale.
  const double sub = volume > 0.0 ? std::cbrt(volume / p) : 0.0;
  // Fraction of the particles within reach of a subdomain face: ~3 face
  // pairs at depth `move` out of side `sub`.
  const double fmove = max_move >= 0.0 && sub > 0.0
                           ? clampd(3.0 * max_move / sub, 0.0, 1.0)
                           : 1.0;
  const double inorder_frac = clampd(kResidualTraffic + fmove, 0.0, 1.0);
  // Point-to-point regimes touch moved data several times when the input is
  // scattered (Batcher rounds); the scatter factor makes a cold model rank
  // merge/neighborhood correctly expensive at high movement.
  const double scatter = 1.0 + 0.5 * std::log2(p + 1.0);
  const double sparse_frac = kResidualTraffic + fmove * scatter;
  // Messages of one sparse round: grid neighborhood (26) capped by P-1.
  const double smsgs = std::min(p - 1.0, 26.0);
  // Restore/resort traffic is movement-bounded only when the input was in
  // solver order; a from-scratch sort scatters everything.
  const double finish_frac = in_order ? inorder_frac : 1.0;
  // Extra resorted fields ride the ONE planned resort message per partner
  // (known counts, no position headers), so only their payload bytes remain
  // marginal cost.
  const double resort_payload = kResortBytes + extra_fields * kFieldBytes;

  auto set = [&](CostBin bin, double dense_ranks, double dense_bytes,
                 double sparse_msgs, double sparse_bytes, double local_ops) {
    features_[static_cast<std::size_t>(bin)] = {
        dense_ranks, dense_bytes, sparse_msgs, sparse_bytes, local_ops};
  };
  set(CostBin::kSortScratch, p, nbar * kParticleBytes, 0, 0, nlog);
  set(CostBin::kSortInorderDense, p, inorder_frac * nbar * kParticleBytes, 0,
      0, nlog);
  set(CostBin::kSortInorderSparse, 0, 0, smsgs,
      sparse_frac * nbar * kParticleBytes, nlog);
  set(CostBin::kRestore, p, finish_frac * nbar * kRestoreBytes, 0, 0, nbar);
  set(CostBin::kResortDense, p, finish_frac * nbar * resort_payload, 0, 0,
      (1.0 + extra_fields) * nbar);
  set(CostBin::kResortSparse, 0, 0, smsgs, finish_frac * nbar * resort_payload,
      (1.0 + extra_fields) * nbar);
}

RedistPlan Planner::decide(const mpi::Comm& comm, const DecideInputs& in) {
  FCS_CHECK(active(), "plan.decide on an inactive planner");
  obs::RankObs* const o = comm.ctx().obs();
  obs::Span span(o, "plan.decide");

  RedistPlan chosen;
  if (cfg_.mode == PlanMode::kFixed) {
    chosen = cfg_.fixed;
    pending_ = false;  // fixed mode never calibrates
  } else {
    // Global view of this step: total particle count and the (collectively
    // agreed) movement bound. Two small allreduces; everything downstream
    // is identical on every rank, so the decision sequence is too.
    const double n_global = comm.allreduce(
        static_cast<double>(in.n_local), mpi::OpSum{});
    const double max_move = comm.allreduce(in.max_move, mpi::OpMax{});
    build_features(n_global, comm.size(), max_move, in.input_in_solver_order,
                   in.volume, in.extra_fields);

    const double sub =
        in.volume > 0.0 ? std::cbrt(in.volume / comm.size()) : 0.0;
    const CostBin sort_now = in.input_in_solver_order
                                 ? CostBin::kSortInorderDense
                                 : CostBin::kSortScratch;
    Arm arms[3];
    arms[0] = Arm{RedistPlan{Method::kA, SortAlgo::kPartition,
                             Exchange::kAllToAll},
                  sort_now, CostBin::kRestore, 0.0, true};
    arms[1] = Arm{RedistPlan{Method::kB, SortAlgo::kPartition,
                             Exchange::kAllToAll},
                  sort_now, CostBin::kResortDense, 0.0, true};
    // The movement-bound arm needs in-order input, a valid bound, and the
    // bound below the subdomain scale (beyond it neither merge sorting nor
    // neighborhood exchange can pay off - the paper's own threshold).
    arms[2] = Arm{RedistPlan{Method::kBMaxMove, SortAlgo::kMerge,
                             Exchange::kNeighborhood},
                  CostBin::kSortInorderSparse, CostBin::kResortSparse, 0.0,
                  in.input_in_solver_order && max_move >= 0.0 && sub > 0.0 &&
                      max_move < sub};
    int best = -1, second = -1;
    for (int a = 0; a < 3; ++a) {
      if (!arms[a].feasible) continue;
      arms[a].cost = predict_bin(arms[a].sort_bin) +
                     predict_bin(arms[a].finish_bin);
      if (best < 0 || arms[a].cost < arms[best].cost) {
        second = best;
        best = a;
      } else if (second < 0 || arms[a].cost < arms[second].cost) {
        second = a;
      }
    }
    FCS_CHECK(best >= 0, "no feasible redistribution arm");

    // Deterministic epsilon-greedy probe: every round(1/rate) auto
    // decisions (after a cold-start holdoff) the second-best arm runs, so
    // its rho stays fresh even if the model has long written it off.
    bool probed = false;
    if (cfg_.probe_rate > 0.0 && second >= 0) {
      const int interval = std::max(
          2, static_cast<int>(std::llround(1.0 / cfg_.probe_rate)));
      if (n_auto_decisions_ >= 3 &&
          (n_auto_decisions_ + 1) % interval == 0) {
        best = second;
        probed = true;
        ++n_probes_;
      }
    }
    chosen = arms[best].plan;
    pending_ = true;
    pending_in_order_ = in.input_in_solver_order;
    pending_method_ = chosen.method;
    pending_alt_cost_ = -1.0;
    for (int a = 0; a < 3; ++a)
      if (a != best && arms[a].feasible &&
          (pending_alt_cost_ < 0.0 || arms[a].cost < pending_alt_cost_))
        pending_alt_cost_ = arms[a].cost;
    ++n_auto_decisions_;
    if (probed) obs::count(o, "plan.probe", 1.0);
  }

  ++n_decisions_;
  decisions_ += decision_code(chosen).chars;
  obs::count(o, "plan.decision", 1.0);
  {
    char name[32] = "plan.decision.";
    const DecisionCode code = decision_code(chosen);
    std::size_t len = sizeof("plan.decision.") - 1;
    for (int i = 0; i < 3; ++i) name[len++] = code.chars[i];
    name[len] = '\0';
    obs::count(o, name, 1.0);
  }
  return chosen;
}

void Planner::observe(const mpi::Comm& comm, const ObserveInputs& in) {
  if (cfg_.mode != PlanMode::kAuto || !pending_) return;
  pending_ = false;
  obs::RankObs* const o = comm.ctx().obs();

  // Phase costs as the application experiences them: max over ranks.
  double local[3] = {in.t_sort, in.t_restore, in.t_resort};
  double t[3];
  comm.allreduce(local, t, 3, mpi::OpMax{});
  const double t_sort = t[0], t_restore = t[1], t_resort = t[2];

  // Charge the bins of the DECIDED arm (fallbacks included), except that a
  // capacity veto of method B executes - and therefore calibrates - the
  // restore path.
  const CostBin sort_bin =
      !pending_in_order_ ? CostBin::kSortScratch
      : pending_method_ == Method::kBMaxMove ? CostBin::kSortInorderSparse
                                             : CostBin::kSortInorderDense;
  observe_bin(sort_bin, t_sort);
  if (in.resorted) {
    observe_bin(in.sparse_resort ? CostBin::kResortSparse
                                 : CostBin::kResortDense,
                t_resort);
  } else {
    observe_bin(CostBin::kRestore, t_restore);
  }

  // Mispredict audit: with hindsight, did the chosen arm cost more than the
  // model promised for its best alternative? Reported as a counter (sum =
  // mispredicted steps) and a 0/1 gauge (mean = mispredict rate).
  const double observed =
      t_sort + (in.resorted ? t_resort : t_restore);
  const bool mispredicted =
      pending_alt_cost_ >= 0.0 && observed > pending_alt_cost_;
  if (mispredicted) ++n_mispredicts_;
  obs::count(o, "plan.mispredict", mispredicted ? 1.0 : 0.0);
  obs::observe(o, "plan.mispredict.rate", mispredicted ? 1.0 : 0.0);
}

void CostModel::save(fcs::ByteWriter& w) const {
  for (double c : coef_) w.put(c);
}

void CostModel::load(fcs::ByteReader& r) {
  for (double& c : coef_) c = r.get<double>();
}

void Planner::save(fcs::ByteWriter& w) const {
  model_.save(w);
  for (const CostModel::Features& f : features_)
    for (double v : f) w.put(v);
  for (double v : rho_) w.put(v);
  for (bool b : rho_set_) w.put(static_cast<std::uint8_t>(b ? 1 : 0));
  w.put(static_cast<std::uint64_t>(decisions_.size()));
  w.put_raw(decisions_.data(), decisions_.size());
  w.put(static_cast<std::int32_t>(n_decisions_));
  w.put(static_cast<std::int32_t>(n_auto_decisions_));
  w.put(static_cast<std::int32_t>(n_probes_));
  w.put(static_cast<std::int32_t>(n_mispredicts_));
  w.put(static_cast<std::uint8_t>(pending_ ? 1 : 0));
  w.put(static_cast<std::uint8_t>(pending_in_order_ ? 1 : 0));
  w.put(static_cast<std::uint8_t>(pending_method_));
  w.put(pending_alt_cost_);
}

void Planner::load(fcs::ByteReader& r) {
  model_.load(r);
  for (CostModel::Features& f : features_)
    for (double& v : f) v = r.get<double>();
  for (double& v : rho_) v = r.get<double>();
  for (bool& b : rho_set_) b = r.get<std::uint8_t>() != 0;
  const std::uint64_t len = r.get<std::uint64_t>();
  FCS_CHECK(len <= r.remaining(), "planner checkpoint: bad decision string");
  decisions_.resize(static_cast<std::size_t>(len));
  if (len > 0) r.get_raw(decisions_.data(), decisions_.size());
  n_decisions_ = r.get<std::int32_t>();
  n_auto_decisions_ = r.get<std::int32_t>();
  n_probes_ = r.get<std::int32_t>();
  n_mispredicts_ = r.get<std::int32_t>();
  pending_ = r.get<std::uint8_t>() != 0;
  pending_in_order_ = r.get<std::uint8_t>() != 0;
  pending_method_ = static_cast<Method>(r.get<std::uint8_t>());
  pending_alt_cost_ = r.get<double>();
}

}  // namespace plan
