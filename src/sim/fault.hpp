// Deterministic fault injection for the virtual-time network.
//
// A FaultPlan describes WHICH faults to inject: per-message drop /
// duplicate / jitter probabilities (optionally restricted to a virtual-time
// window) and scheduled per-rank stalls. The FaultInjector turns the plan
// into concrete per-message decisions by hashing (seed, src, dst, channel
// sequence number, purpose) - decisions therefore depend only on the plan
// and on the message's position in its (src, dst) channel, never on
// scheduling order, so a given seed reproduces byte-identical runs.
//
// Faults are injected at the engine's send path, underneath minimpi, so
// every collective built on point-to-point inherits the behaviour. In
// reliable mode (the default) the engine models a retry/ack protocol:
// sequence numbers per channel, a dropped DATA or ACK costs the sender an
// exponential-backoff retransmit timeout that is added to the message's
// arrival time, and late retransmits arrive as duplicates that the receiver
// suppresses by sequence number. No payload is ever lost, but the virtual
// time and the obs counters show the price. With `reliable = false` a
// dropped message is really gone - runs typically end in the engine's
// deadlock report, which is the status quo this subsystem exists to fix.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace sim {

struct FaultPlan {
  /// Master seed; two plans differing only in seed make different decisions.
  std::uint64_t seed = 1;

  /// Per-message probabilities in [0, 1].
  double drop_rate = 0.0;       // DATA and ACK transmissions
  double duplicate_rate = 0.0;  // spurious network duplication of DATA
  double jitter_rate = 0.0;     // probability of extra in-flight delay
  double jitter_max = 5.0e-6;   // max extra delay in virtual seconds

  /// Message faults apply only while the sender's clock is inside
  /// [window_begin, window_end) - "at chosen virtual times".
  double window_begin = 0.0;
  double window_end = 1.0e300;

  /// Reliable channel: retransmit with exponential backoff until acked and
  /// suppress duplicates. When false, dropped messages are lost for good.
  bool reliable = true;
  /// Base retransmission timeout in virtual seconds (doubles per retry).
  double rto = 1.0e-4;

  /// Scheduled stall: rank sits idle for `seconds` once its clock passes
  /// `at` (applied at its next send/recv).
  struct Stall {
    int rank = 0;
    double at = 0.0;
    double seconds = 0.0;
  };
  std::vector<Stall> stalls;

  /// Scheduled rank crash: the rank dies at its first engine interaction at
  /// or after virtual time `at` - it stops sending and acking, and the
  /// engine declares it dead instead of deadlocking (see engine.hpp).
  struct Crash {
    int rank = 0;
    double at = 0.0;
  };
  std::vector<Crash> crashes;

  /// Probabilistic crashes: per-rank probability of one crash inside the
  /// fault window. The crash time is drawn uniformly over the window; with
  /// an unbounded window_end the draw covers [window_begin, window_begin+1)
  /// virtual seconds. Decisions are counter-mode like the message faults,
  /// so a given seed crashes the same ranks at the same times every run.
  double crash_rate = 0.0;

  /// Failure-detection timeout on the virtual clock: a survivor blocked on
  /// a dead peer notices the failure `detect_timeout` virtual seconds after
  /// the peer's death (the heartbeat-timeout model).
  double detect_timeout = 5.0e-4;

  /// Reliable-channel bound: after this many consecutive dropped
  /// transmissions of one message the sender escalates to a peer-failure
  /// report (sim::RankFailedError) instead of retrying forever.
  int max_retry = 16;

  bool affects_messages() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || jitter_rate > 0.0;
  }
  bool affects_ranks() const { return !crashes.empty() || crash_rate > 0.0; }
  bool active() const {
    return affects_messages() || affects_ranks() || !stalls.empty();
  }
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int nranks);

  const FaultPlan& plan() const { return plan_; }

  /// Next sequence number of the (src, dst) channel; starts at 1 so that 0
  /// marks messages outside the fault path (e.g. self sends).
  std::uint64_t next_chan_seq(int src, int dst);

  /// Decision procedures; deterministic in (plan, channel position).
  bool drop_data(int src, int dst, std::uint64_t chan_seq, int attempt,
                 double now) const;
  bool drop_ack(int src, int dst, std::uint64_t chan_seq, int attempt,
                double now) const;
  bool duplicate(int src, int dst, std::uint64_t chan_seq, double now) const;
  double jitter(int src, int dst, std::uint64_t chan_seq, double now) const;

  /// Retransmission timeout for the given retry attempt (exponential
  /// backoff, capped so the doubling cannot overflow).
  double rto(int attempt) const;

  /// Virtual time at which `rank` crashes, or +infinity if it never does.
  /// Combines the scheduled crashes (earliest wins) with the probabilistic
  /// draw; fixed at construction so the schedule is identical every run.
  double crash_time(int rank) const;

  /// Receiver-side duplicate suppression: true if `chan_seq` from `src` is
  /// fresh for `dst` (and records it), false if it was seen before.
  bool accept(int dst, int src, std::uint64_t chan_seq);

  /// Total seconds of scheduled stalls of `rank` that became due at or
  /// before `now` and were not yet taken.
  double take_stall(int rank, double now);

 private:
  double u01(std::uint64_t purpose, std::uint64_t a, std::uint64_t b,
             std::uint64_t c) const;
  bool in_window(double now) const {
    return now >= plan_.window_begin && now < plan_.window_end;
  }

  FaultPlan plan_;
  struct PerRank {
    std::unordered_map<int, std::uint64_t> next_seq_to;
    std::unordered_map<int, std::uint64_t> last_seq_from;
    std::vector<FaultPlan::Stall> stalls;  // sorted by `at`
    std::size_t next_stall = 0;
    double crash_at = 0.0;  // +infinity when the rank never crashes
  };
  std::vector<PerRank> ranks_;
};

}  // namespace sim
