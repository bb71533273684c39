#include "lb/lb.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace lb {

namespace {

/// Cumulative bytes this rank moved through the redist layer, summed over
/// all exchange backends. Reads the obs counters; 0 without a recorder (the
/// cost model then degrades to compute time only).
double exchanged_bytes(obs::RankObs* o) {
  if (o == nullptr) return 0.0;
  return o->counter("redist.dense.bytes_moved").total() +
         o->counter("redist.sparse.bytes_moved").total() +
         o->counter("redist.neighborhood.bytes_moved").total();
}

}  // namespace

Balancer::Balancer(const LbConfig& cfg) : cfg_(cfg) {
  FCS_CHECK(cfg_.imbalance_trigger >= 1.0, "imbalance trigger must be >= 1");
  FCS_CHECK(cfg_.hysteresis >= 0.0 &&
                cfg_.hysteresis <= cfg_.imbalance_trigger - 1.0,
            "hysteresis must keep the release ratio >= 1");
  FCS_CHECK(cfg_.cooldown_epochs >= 1, "cooldown must be >= 1 epoch");
  FCS_CHECK(cfg_.incremental_max_fraction >= 0.0 &&
                cfg_.incremental_max_fraction <= 1.0,
            "incremental_max_fraction must be in [0, 1]");
  FCS_CHECK(cfg_.smoothing > 0.0 && cfg_.smoothing <= 1.0,
            "smoothing must be in (0, 1]");
}

void Balancer::observe(const mpi::Comm& comm, std::size_t n_local,
                       double compute_time) {
  obs::RankObs* const o = comm.ctx().obs();
  const double bytes = exchanged_bytes(o);
  const double load =
      compute_time + cfg_.byte_cost * std::max(0.0, bytes - last_bytes_);
  last_bytes_ = bytes;

  double local[2] = {load, static_cast<double>(n_local)};
  double sums[2];
  comm.allreduce(local, sums, 2, mpi::OpSum{});
  const double max_load = comm.allreduce(load, mpi::OpMax{});
  const double mean_load = sums[0] / static_cast<double>(comm.size());
  imbalance_ = mean_load > 0.0 ? max_load / mean_load : 1.0;

  // Per-particle cost, smoothed. Ranks without particles adopt the global
  // mean so they bid for a fair share of work at the next recut; a floor at
  // a small fraction of the mean keeps the weighted splitter targets finite
  // even when one rank measures a near-zero load.
  const double mean_ppc = sums[1] > 0.0 ? sums[0] / sums[1] : 0.0;
  const double ppc =
      n_local > 0 ? load / static_cast<double>(n_local) : mean_ppc;
  if (!have_weight_) {
    weight_ = ppc;
    have_weight_ = true;
  } else {
    weight_ = cfg_.smoothing * ppc + (1.0 - cfg_.smoothing) * weight_;
  }
  if (mean_ppc > 0.0) weight_ = std::max(weight_, 1e-3 * mean_ppc);
  if (!(weight_ > 0.0)) weight_ = 1.0;

  // Two-threshold trigger: engage at the trigger ratio, release below
  // trigger - hysteresis. The inputs are allreduce results, so every rank
  // flips the state machine identically.
  if (!triggered_ && imbalance_ >= cfg_.imbalance_trigger) {
    triggered_ = true;
  } else if (triggered_ &&
             imbalance_ <= cfg_.imbalance_trigger - cfg_.hysteresis) {
    triggered_ = false;
  }
  if (epochs_since_plan_ < (1 << 30)) ++epochs_since_plan_;

  obs::count(o, "lb.load", load);
  obs::observe(o, "lb.imbalance", imbalance_);
}

bool Balancer::should_rebalance() const {
  return cfg_.enabled && triggered_ &&
         epochs_since_plan_ >= cfg_.cooldown_epochs;
}

void Balancer::set_splitters(std::vector<std::uint64_t> splitters) {
  splitters_ = std::move(splitters);
  have_splitters_ = true;
}

void Balancer::set_cuts(std::array<std::vector<double>, 3> cuts) {
  cuts_ = std::move(cuts);
  have_cuts_ = true;
}

void Balancer::save(fcs::ByteWriter& w) const {
  w.put(weight_);
  w.put(static_cast<std::uint8_t>(have_weight_ ? 1 : 0));
  w.put(imbalance_);
  w.put(static_cast<std::uint8_t>(triggered_ ? 1 : 0));
  w.put(static_cast<std::int32_t>(epochs_since_plan_));
  w.put(last_bytes_);
  w.put(static_cast<std::uint8_t>(have_splitters_ ? 1 : 0));
  w.put_vector(splitters_);
  w.put(static_cast<std::uint8_t>(have_cuts_ ? 1 : 0));
  for (const std::vector<double>& c : cuts_) w.put_vector(c);
}

void Balancer::load(fcs::ByteReader& r) {
  weight_ = r.get<double>();
  have_weight_ = r.get<std::uint8_t>() != 0;
  imbalance_ = r.get<double>();
  triggered_ = r.get<std::uint8_t>() != 0;
  epochs_since_plan_ = r.get<std::int32_t>();
  last_bytes_ = r.get<double>();
  have_splitters_ = r.get<std::uint8_t>() != 0;
  splitters_ = r.get_vector<std::uint64_t>();
  have_cuts_ = r.get<std::uint8_t>() != 0;
  for (std::vector<double>& c : cuts_) c = r.get_vector<double>();
}

}  // namespace lb
