// In-memory buddy checkpointing for rank-failure recovery (DESIGN.md §13).
//
// Every `interval` MD steps (md::SimulationConfig::checkpoint_interval) each
// rank serializes its recovery state (particle arrays and resorted fields,
// RNG engines, step counter, planner and balancer adaptation state - the md
// driver builds the blob, this class only stores and ships it) and sends a
// copy to its buddy, the next rank on the communicator ring. Each rank
// therefore holds two blobs: its OWN last snapshot (for its local rollback)
// and the GUARDED snapshot of the preceding rank. When a rank dies, the
// survivors shrink the communicator and its buddy re-hosts the lost shard
// from the guarded blob - recovery needs no further communication beyond
// the shrink agreement itself. Two adjacent ranks dying in the same interval
// lose both replicas of the blob between them; that is unrecoverable by
// construction and reported as such.
//
// The store retains its blob vectors across checkpoints, so once sizes
// stabilize the steady state performs zero heap allocations (asserted by
// tests/test_recovery.cpp); "recover.ckpt" spans and "recover.ckpt.bytes"
// counters account the overhead that bench_recovery sweeps against the
// interval.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "minimpi/comm.hpp"

namespace fcs {

class CheckpointStore {
 public:
  /// interval <= 0 disables checkpointing entirely.
  explicit CheckpointStore(int interval) : interval_(interval) {}

  bool enabled() const { return interval_ > 0; }
  int interval() const { return interval_; }
  /// Should a checkpoint be taken after completed step `step_done`? True for
  /// step 0 (right after the initial solver run) and every interval-th step.
  bool due(int step_done) const {
    return enabled() && step_done % interval_ == 0;
  }

  /// Collective: keep `blob` as this rank's snapshot for `step_done` and
  /// ring-exchange a copy with the buddies ((r+1)%p receives ours, we
  /// receive (r-1+p)%p's). Call at a BSP point - no other traffic in
  /// flight on `comm`. Transactional per rank: the new snapshot pair only
  /// replaces the old one after the exchange AND a confirming barrier
  /// succeed, so a rank failure mid-save leaves the previous consistent
  /// snapshot in place and simply throws.
  void save(const mpi::Comm& comm, const std::vector<std::byte>& blob,
            int step_done);

  bool has_checkpoint() const { return have_; }
  /// Completed-step index the stored snapshots belong to.
  int step_done() const { return step_done_; }

  const std::vector<std::byte>& own() const { return own_; }

  /// WORLD (engine) rank whose snapshot this rank guards; -1 on a
  /// single-rank communicator. World ranks are stable across shrinks, so
  /// the mapping stays valid even when a second failure hits mid-recovery.
  int guarded_world_rank() const { return guarded_rank_; }
  const std::vector<std::byte>& guarded() const { return guarded_; }

  /// Forget everything (a disabled store stays empty anyway).
  void reset() {
    have_ = false;
    guarded_rank_ = -1;
  }

 private:
  int interval_;
  bool have_ = false;
  int step_done_ = 0;
  int guarded_rank_ = -1;
  // Retained across saves so steady-state checkpointing does not allocate;
  // guarded_/incoming_ ping-pong (stage then swap-commit), so the steady
  // state cycles two retained buffers instead of reallocating.
  std::vector<std::byte> own_;
  std::vector<std::byte> guarded_;
  std::vector<std::byte> incoming_;
};

}  // namespace fcs
