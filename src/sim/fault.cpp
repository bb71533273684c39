#include "sim/fault.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace sim {

FaultInjector::FaultInjector(FaultPlan plan, int nranks)
    : plan_(std::move(plan)), ranks_(static_cast<std::size_t>(nranks)) {
  auto check_rate = [](double r, const char* what) {
    FCS_CHECK(r >= 0.0 && r <= 1.0,
              "fault plan: " << what << " rate " << r << " outside [0, 1]");
  };
  check_rate(plan_.drop_rate, "drop");
  check_rate(plan_.duplicate_rate, "duplicate");
  check_rate(plan_.jitter_rate, "jitter");
  check_rate(plan_.crash_rate, "crash");
  FCS_CHECK(plan_.jitter_max >= 0.0, "fault plan: negative jitter_max");
  FCS_CHECK(plan_.rto > 0.0, "fault plan: rto must be positive");
  FCS_CHECK(plan_.detect_timeout >= 0.0,
            "fault plan: negative detect_timeout");
  FCS_CHECK(plan_.max_retry >= 1, "fault plan: max_retry must be >= 1");
  for (const FaultPlan::Stall& s : plan_.stalls) {
    FCS_CHECK(s.rank >= 0 && s.rank < nranks,
              "fault plan: stall names invalid rank " << s.rank);
    FCS_CHECK(s.seconds >= 0.0, "fault plan: negative stall duration");
    ranks_[static_cast<std::size_t>(s.rank)].stalls.push_back(s);
  }
  for (PerRank& r : ranks_)
    std::sort(r.stalls.begin(), r.stalls.end(),
              [](const FaultPlan::Stall& a, const FaultPlan::Stall& b) {
                return a.at < b.at;
              });

  // Fix each rank's crash time once: the earliest scheduled crash, combined
  // with the probabilistic draw over the fault window. Drawing here (not per
  // query) keeps the schedule independent of execution order.
  const double inf = std::numeric_limits<double>::infinity();
  for (PerRank& r : ranks_) r.crash_at = inf;
  for (const FaultPlan::Crash& c : plan_.crashes) {
    FCS_CHECK(c.rank >= 0 && c.rank < nranks,
              "fault plan: crash names invalid rank " << c.rank);
    FCS_CHECK(c.at >= 0.0, "fault plan: negative crash time");
    PerRank& r = ranks_[static_cast<std::size_t>(c.rank)];
    r.crash_at = std::min(r.crash_at, c.at);
  }
  if (plan_.crash_rate > 0.0) {
    const double begin = plan_.window_begin;
    const double end = plan_.window_end < 1.0e299 ? plan_.window_end
                                                  : begin + 1.0;
    for (int rank = 0; rank < nranks; ++rank) {
      const std::uint64_t key = static_cast<std::uint64_t>(rank);
      if (u01(6, key, 0, 0) >= plan_.crash_rate) continue;
      const double at = begin + u01(7, key, 0, 0) * (end - begin);
      PerRank& r = ranks_[static_cast<std::size_t>(rank)];
      r.crash_at = std::min(r.crash_at, at);
    }
  }
}

double FaultInjector::crash_time(int rank) const {
  return ranks_[static_cast<std::size_t>(rank)].crash_at;
}

std::uint64_t FaultInjector::next_chan_seq(int src, int dst) {
  return ++ranks_[static_cast<std::size_t>(src)].next_seq_to[dst];
}

double FaultInjector::u01(std::uint64_t purpose, std::uint64_t a,
                          std::uint64_t b, std::uint64_t c) const {
  // Chained splitmix64 over (seed, purpose, src, dst, chan_seq/attempt):
  // a stateless, order-independent counter-mode generator.
  std::uint64_t s = plan_.seed ^ (purpose * 0x9e3779b97f4a7c15ULL);
  std::uint64_t h = fcs::splitmix64(s);
  s ^= a;
  h ^= fcs::splitmix64(s);
  s ^= b;
  h ^= fcs::splitmix64(s);
  s ^= c;
  h ^= fcs::splitmix64(s);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultInjector::drop_data(int src, int dst, std::uint64_t chan_seq,
                              int attempt, double now) const {
  if (plan_.drop_rate <= 0.0 || !in_window(now)) return false;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  return u01(1, key, chan_seq, static_cast<std::uint64_t>(attempt)) <
         plan_.drop_rate;
}

bool FaultInjector::drop_ack(int src, int dst, std::uint64_t chan_seq,
                             int attempt, double now) const {
  if (plan_.drop_rate <= 0.0 || !in_window(now)) return false;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  return u01(2, key, chan_seq, static_cast<std::uint64_t>(attempt)) <
         plan_.drop_rate;
}

bool FaultInjector::duplicate(int src, int dst, std::uint64_t chan_seq,
                              double now) const {
  if (plan_.duplicate_rate <= 0.0 || !in_window(now)) return false;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  return u01(3, key, chan_seq, 0) < plan_.duplicate_rate;
}

double FaultInjector::jitter(int src, int dst, std::uint64_t chan_seq,
                             double now) const {
  if (plan_.jitter_rate <= 0.0 || !in_window(now)) return 0.0;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  if (u01(4, key, chan_seq, 0) >= plan_.jitter_rate) return 0.0;
  return u01(5, key, chan_seq, 0) * plan_.jitter_max;
}

double FaultInjector::rto(int attempt) const {
  return plan_.rto * static_cast<double>(1ULL << std::min(attempt, 20));
}

bool FaultInjector::accept(int dst, int src, std::uint64_t chan_seq) {
  std::uint64_t& last =
      ranks_[static_cast<std::size_t>(dst)].last_seq_from[src];
  // Channel sequence numbers are delivered in increasing order (all copies
  // of one message are injected back-to-back by the same send call), so a
  // high-water mark is a complete duplicate filter.
  if (chan_seq <= last) return false;
  last = chan_seq;
  return true;
}

double FaultInjector::take_stall(int rank, double now) {
  PerRank& r = ranks_[static_cast<std::size_t>(rank)];
  double total = 0.0;
  while (r.next_stall < r.stalls.size() && r.stalls[r.next_stall].at <= now) {
    total += r.stalls[r.next_stall].seconds;
    ++r.next_stall;
  }
  return total;
}

}  // namespace sim
