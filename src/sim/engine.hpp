// The SPMD simulation engine.
//
// Engine runs `nranks` copies of a rank body, each on its own fiber, under a
// deterministic scheduler that always resumes the runnable rank with the
// smallest virtual clock. Communication costs are charged to the clocks
// through the configured NetworkModel; computation is charged explicitly via
// RankCtx::charge_ops / charge_bytes / advance. The resulting per-rank
// clocks are the simulated parallel runtimes reported by the benchmarks.
//
// The engine is single-shot: construct, run() once, read the clocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/fault.hpp"
#include "sim/mailbox.hpp"
#include "sim/network.hpp"
#include "support/error.hpp"

namespace sim {

class Engine;
class Fiber;

/// Thrown out of send/recv when the engine has declared a peer rank dead
/// (ULFM's MPI_ERR_PROC_FAILED) or when a pending communicator revocation
/// reaches this rank (MPI_ERR_REVOKED, failed_rank() == -1). The recovery
/// driver in md::run_simulation catches this, agrees on the failed set,
/// shrinks the communicator and rolls back to the last buddy checkpoint;
/// without a recovery driver it propagates out of Engine::run - the engine
/// declares the rank dead instead of deadlocking either way.
class RankFailedError : public fcs::Error {
 public:
  RankFailedError(int failed_rank, const std::string& what)
      : fcs::Error(what), failed_rank_(failed_rank) {}
  /// Engine (world) rank that failed; -1 for a revocation notice.
  int failed_rank() const { return failed_rank_; }

 private:
  int failed_rank_;
};

/// Kill marker thrown inside a crashing rank's fiber to unwind it; the
/// engine catches it around resume() and declares the rank dead.
/// Deliberately NOT derived from std::exception so ordinary error handlers
/// pass it through. Any `catch (...)` that a crashing rank may unwind
/// through (e.g. the C API's exception barrier) MUST rethrow this type,
/// otherwise the dead rank keeps running as a zombie.
struct RankCrashed {};

struct EngineConfig {
  int nranks = 1;
  std::size_t stack_bytes = 512 * 1024;
  std::shared_ptr<const NetworkModel> network = std::make_shared<IdealNetwork>();
  /// Virtual floating point / integer operations per second (per rank).
  double compute_rate = 2.0e9;
  /// Virtual memory bandwidth in bytes per second; also charged per message
  /// payload copy on the send and receive side.
  double memory_rate = 6.0e9;
  /// Fixed per-message CPU overheads.
  double send_overhead = 4.0e-7;
  double recv_overhead = 4.0e-7;
  /// Optional observability sink (see obs/obs.hpp): the engine attaches it
  /// and threads one obs::RankObs per rank through RankCtx::obs(). Null
  /// keeps every hook a single pointer check.
  std::shared_ptr<obs::Recorder> recorder;
  /// Deterministic fault injection (see sim/fault.hpp). An inactive plan
  /// (the default) keeps the send path fault-free at the cost of one
  /// pointer check.
  FaultPlan fault_plan;
  /// Conservation validation (see redist/conserve.hpp): every
  /// redistribution primitive and every fcs_run verify that globally sent ==
  /// received, in count and content, at the price of one small allreduce
  /// per exchange. Read by the library through RankCtx::config().
  bool validate = false;

  /// The library's one reader of the environment (see README, "Robustness
  /// testing"): the fault plan's seed and drop / duplicate / jitter rates
  /// from FCS_FAULT_SEED / FCS_FAULT_DROP / FCS_FAULT_DUP /
  /// FCS_FAULT_JITTER, and `validate` from FCS_REDIST_VALIDATE (unset, empty
  /// or a leading '0' = off). Unset variables keep the defaults above, so
  /// with nothing set the result equals EngineConfig{}.
  static EngineConfig from_env();
};

/// Handle the rank body uses to talk to the engine. One per rank, valid only
/// during Engine::run().
class RankCtx {
 public:
  int rank() const { return rank_; }
  int nranks() const;

  /// Current virtual time of this rank.
  double now() const { return clock_; }

  /// Charge raw seconds of local work.
  void advance(double seconds);
  /// Charge `ops` arithmetic operations at the configured compute rate.
  void charge_ops(double ops);
  /// Charge `bytes` of memory traffic at the configured memory rate.
  void charge_bytes(double bytes);

  /// Eager point-to-point send; never blocks.
  void send(int dst, std::uint64_t tag, const void* data, std::size_t bytes);

  /// Asynchronous send: only the fixed per-message overhead is charged to
  /// the CPU clock; the payload copy and fabric injection occupy the
  /// simulated NIC, which keeps its own busy timeline so consecutive async
  /// sends queue behind each other while the CPU runs ahead. Returns the
  /// virtual time the NIC finishes injecting (the send's completion time -
  /// waiting on the send means advancing the CPU clock to it). Under an
  /// active message fault plan this degrades to the blocking send path (the
  /// reliable retry/ack protocol is synchronous by construction).
  double send_async(int dst, std::uint64_t tag, const void* data,
                    std::size_t bytes);

  /// Add seconds of NIC occupancy ahead of the next async injection (async
  /// collectives charge dense-exchange fabric setup here instead of to the
  /// CPU clock).
  void charge_nic(double seconds);

  struct RecvInfo {
    int src = 0;
    std::uint64_t tag = 0;
    double arrival = 0.0;
    std::vector<std::byte> payload;
  };

  /// Blocking receive; src may be kAnySource, tag may be kAnyTag.
  RecvInfo recv(int src, std::int64_t tag);

  /// Polling receive: consume a matching message only if its last byte has
  /// already arrived (arrival <= now()). Never blocks and never advances the
  /// clock past the receive-side processing cost; returns false when nothing
  /// has arrived yet.
  bool try_recv(int src, std::int64_t tag, RecvInfo* out);

  /// Non-consuming check whether a matching message is available now.
  bool can_recv(int src, std::int64_t tag) const;

  /// Cooperative yield back to the scheduler.
  void yield();

  /// This rank's observability handle; null when no recorder is configured.
  obs::RankObs* obs() const { return obs_; }

  const EngineConfig& config() const;

  // --- Rank-failure recovery (ULFM-style; see DESIGN.md §13) ---------------

  /// Has the engine declared this world rank dead?
  bool rank_failed(int world_rank) const;

  /// Raise an engine-wide revocation: every live blocked rank is woken and
  /// its next recv throws RankFailedError(-1) unless it is in recovery mode.
  /// There is no scoped form: a revoke from any communicator reaches every
  /// rank of the engine. Idempotent while this rank has not yet
  /// acknowledged the current revocation, so concurrent detectors raise
  /// exactly one epoch.
  void revoke();
  /// A revocation was raised that this rank has not acknowledged yet.
  bool revoked() const;
  void acknowledge_revoke();

  /// Recovery mode: recvs ignore a pending revocation (the shrink/agree
  /// protocol must keep communicating) but still detect dead peers.
  void set_recovery_mode(bool on) { recovery_mode_ = on; }
  bool recovery_mode() const { return recovery_mode_; }

  /// Drop pending incoming messages whose tag fails `keep` (nullptr drops
  /// everything); returns discarded payload bytes. Used after shrink to
  /// flush traffic of collectives aborted by the failure.
  std::size_t purge_mailbox(const std::function<bool(std::uint64_t)>& keep);

 private:
  friend class Engine;
  RankCtx(Engine* engine, int rank) : engine_(engine), rank_(rank) {}

  /// Apply any scheduled stall of this rank that has become due.
  void maybe_stall();
  /// Kill this rank if its virtual clock has reached its crash time.
  void check_crashed();
  /// Send path under an active fault plan: jitter/drop/duplicate decisions
  /// plus the reliable retry/ack protocol (see sim/fault.hpp).
  void send_faulty(int dst, std::size_t bytes, Message m);

  Engine* engine_;
  int rank_;
  obs::RankObs* obs_ = nullptr;
  double clock_ = 0.0;
  // NIC busy timeline for async sends (send_async); independent of clock_.
  double nic_busy_until_ = 0.0;
  // Wait descriptor, valid while this rank is blocked in recv().
  int wait_src_ = 0;
  std::int64_t wait_tag_ = 0;
  // Crash schedule of this rank (+infinity: never crashes).
  double crash_at_ = std::numeric_limits<double>::infinity();
  // Revocation epoch this rank has acknowledged (see Engine::revoke_epoch_).
  std::uint64_t seen_revoke_epoch_ = 0;
  bool recovery_mode_ = false;
};

class Engine {
 public:
  explicit Engine(EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run `body` as rank 0..nranks-1. Throws if any rank throws or if the
  /// ranks deadlock; safe to call exactly once.
  void run(const std::function<void(RankCtx&)>& body);

  /// Max final rank clock of the completed run (the parallel makespan).
  double makespan() const;
  const std::vector<double>& final_clocks() const { return final_clocks_; }

  const EngineConfig& config() const { return config_; }
  Mailbox& mailbox() { return mailbox_; }
  /// Null unless the configured fault plan is active.
  FaultInjector* faults() { return faults_.get(); }

  /// Dead-rank introspection (tests, diagnostics).
  bool rank_dead(int world_rank) const {
    return dead_[static_cast<std::size_t>(world_rank)] != 0;
  }
  double death_time(int world_rank) const {
    return death_time_[static_cast<std::size_t>(world_rank)];
  }

 private:
  friend class RankCtx;

  void block_current(RankCtx& ctx, int src, std::int64_t tag);
  void wake_if_waiting(int dst, const Message& m);
  /// Mark `rank` dead at virtual time `at` and wake every survivor blocked
  /// on a receive from it (their recv then reports the failure).
  void declare_dead(int rank, double at);
  /// Force-resume blocked ranks whose crash time is <= `up_to` so they die
  /// on schedule even when no message would ever wake them.
  void maybe_wake_doomed(double up_to);
  /// Bump the revocation epoch and wake every blocked survivor.
  void raise_revoke();
  /// Deliver a message to dst's mailbox, waking it if it is blocked on a
  /// match. Under fault injection, duplicate copies (same chan_seq) are
  /// suppressed here - before matching - so probe-driven loops like the
  /// NBX drain never observe them. Returns false when suppressed.
  bool deliver(int dst, Message m);
  [[noreturn]] void report_deadlock();

  EngineConfig config_;
  Mailbox mailbox_;
  std::unique_ptr<FaultInjector> faults_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<RankCtx> contexts_;
  // Runnable min-heap keyed by (clock, push sequence); FIFO among equal
  // clocks so yielding ranks cannot starve others. Each rank appears at most
  // once.
  struct HeapEntry {
    double clock;
    std::uint64_t seq;
    int rank;
    bool operator>(const HeapEntry& o) const {
      if (clock != o.clock) return clock > o.clock;
      return seq > o.seq;
    }
  };
  void push_runnable(int rank, double clock);
  std::vector<HeapEntry> runnable_;
  std::uint64_t push_seq_ = 0;
  std::vector<double> final_clocks_;
  bool ran_ = false;
  int running_rank_ = -1;
  // Rank-failure state (all zero unless the fault plan schedules crashes).
  std::vector<char> dead_;
  std::vector<double> death_time_;
  // Revocation epoch, bumped once per revoke; a rank is revoked while it
  // has not acknowledged the current epoch.
  std::uint64_t revoke_epoch_ = 0;
  int doomed_pending_ = 0;  // live ranks with a finite crash time
};

/// Convenience wrapper: build an engine, run the body, return the makespan.
double run_spmd(EngineConfig config, const std::function<void(RankCtx&)>& body);

}  // namespace sim
