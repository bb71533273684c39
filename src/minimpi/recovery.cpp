// Rank-failure recovery operations on a communicator (ULFM-style).
//
// The engine is a perfect failure detector: a crashed rank is declared dead
// exactly once, the dead set is global and monotone, and a blocking receive
// from a dead peer throws RankFailedError instead of deadlocking. On top of
// that, this file implements the two operations the recovery driver in
// md::run_simulation needs:
//
//  * agree_failures - a coordinator-star agreement on the failed subset of
//    the communicator (the ULFM MPI_Comm_agree recipe specialised to an
//    OR-reduce over dead-set views). Every survivor pushes its local view to
//    the lowest-ranked survivor it knows of; the coordinator waits for a
//    contribution from every member it believes alive (a member dying
//    mid-wait just extends the dead set), then distributes its final view,
//    which - because the engine's dead set is global and monotone, and the
//    coordinator reads it after collecting - is a superset of every
//    contribution and hence the correct OR.
//
//  * shrink_recover - MPI_Comm_shrink plus the cleanup a rollback needs:
//    build the dense survivor communicator with a deterministic fresh
//    context id, move the parent pool's retained scratch buffers over
//    ("pool.reclaimed"), and purge every pending mailbox message that does
//    not already belong to the new context. The keep-predicate purge is
//    load-bearing: a fast survivor may legitimately have sent new-context
//    traffic (e.g. the first replayed collective) before a slow survivor
//    runs its purge, and that traffic must not be flushed along with the
//    aborted old-context collectives.
//
// Protocol traffic runs under the reserved tag context 0xFFFFF, which no
// ordinary communicator gets (the world is context 0, and shrink_recover
// skips the reserved id), with the recovery generation in the sequence
// field so rounds cannot cross-talk.

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "minimpi/comm.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace mpi {

namespace {

constexpr std::uint64_t kRecoveryContext = 0xfffff;
constexpr std::uint64_t kCollectiveBit = 1ULL << 43;

enum RecoveryOp : std::uint64_t { kRecoveryContrib = 1, kRecoveryResult = 2 };

std::uint64_t recovery_tag(RecoveryOp op, std::uint64_t generation) {
  return (kRecoveryContext << 44) | kCollectiveBit |
         ((generation & 0x7ffffff) << 16) | static_cast<std::uint64_t>(op);
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

/// RAII: recovery mode must not leak out of the protocol on an exception
/// (e.g. every survivor crashed around us and FCS_CHECK fires).
class RecoveryModeGuard {
 public:
  explicit RecoveryModeGuard(sim::RankCtx& ctx) : ctx_(ctx) {
    ctx_.set_recovery_mode(true);
  }
  ~RecoveryModeGuard() { ctx_.set_recovery_mode(false); }
  RecoveryModeGuard(const RecoveryModeGuard&) = delete;
  RecoveryModeGuard& operator=(const RecoveryModeGuard&) = delete;

 private:
  sim::RankCtx& ctx_;
};

}  // namespace

std::vector<int> Comm::agree_failures(std::uint64_t generation) const {
  sim::RankCtx& ctx = *ctx_;
  const int p = size();
  obs::Span span(ctx.obs(), "recover.agree");
  obs::count(ctx.obs(), "recover.agree.calls", 1.0);

  for (;;) {
    // Local view of this communicator's dead members, and the coordinator:
    // the lowest-ranked member not known dead.
    std::vector<std::uint8_t> deadmap(static_cast<std::size_t>(p), 0);
    int coord = -1;
    for (int r = 0; r < p; ++r) {
      deadmap[static_cast<std::size_t>(r)] =
          ctx.rank_failed(world_rank(r)) ? 1 : 0;
      if (coord < 0 && deadmap[static_cast<std::size_t>(r)] == 0) coord = r;
    }
    FCS_CHECK(coord >= 0, "agree_failures: every communicator member failed");

    const std::uint64_t ctag = recovery_tag(kRecoveryContrib, generation);
    const std::uint64_t rtag = recovery_tag(kRecoveryResult, generation);

    if (my_rank_ != coord) {
      ctx.send(world_rank(coord), ctag, deadmap.data(), deadmap.size());
      try {
        sim::RankCtx::RecvInfo info =
            ctx.recv(world_rank(coord), static_cast<std::int64_t>(rtag));
        FCS_CHECK(info.payload.size() == static_cast<std::size_t>(p),
                  "agree_failures: result size mismatch");
        std::vector<int> failed;
        for (int r = 0; r < p; ++r)
          if (info.payload[static_cast<std::size_t>(r)] != std::byte{0})
            failed.push_back(r);
        return failed;
      } catch (const RankFailedError& e) {
        FCS_CHECK(e.failed_rank() == world_rank(coord),
                  "agree_failures: unexpected failure report for rank "
                      << e.failed_rank());
        obs::count(ctx.obs(), "recover.agree.coord_failures", 1.0);
        continue;  // coordinator died; restart under the next survivor
      }
    }

    // Coordinator: collect one contribution from every member believed
    // alive. A member dying while we wait throws out of the recv; its death
    // is already in the engine's global dead set, so skipping it is exactly
    // the OR-semantics we want. The contribution payloads themselves are
    // redundant with the engine's global dead set (kept for protocol shape
    // and debuggability), so they are consumed but not merged.
    for (int r = 0; r < p; ++r) {
      if (r == my_rank_ || deadmap[static_cast<std::size_t>(r)] != 0) continue;
      if (ctx.rank_failed(world_rank(r))) continue;  // died since the snapshot
      try {
        (void)ctx.recv(world_rank(r), static_cast<std::int64_t>(ctag));
      } catch (const RankFailedError&) {
        // r died before contributing; reflected in the final view below.
      }
    }
    // Final view is read after all collections, so it is a superset of every
    // contributor's view: this is the agreed OR.
    std::vector<std::uint8_t> agreed(static_cast<std::size_t>(p), 0);
    std::vector<int> failed;
    for (int r = 0; r < p; ++r) {
      if (!ctx.rank_failed(world_rank(r))) continue;
      agreed[static_cast<std::size_t>(r)] = 1;
      failed.push_back(r);
    }
    for (int r = 0; r < p; ++r) {
      if (r == my_rank_ || agreed[static_cast<std::size_t>(r)] != 0) continue;
      ctx.send(world_rank(r), rtag, agreed.data(), agreed.size());
    }
    return failed;
  }
}

ShrinkResult Comm::shrink_recover(std::uint64_t generation) const {
  sim::RankCtx& ctx = *ctx_;
  obs::Span span(ctx.obs(), "recover.shrink");
  obs::count(ctx.obs(), "recover.shrink.calls", 1.0);

  // A revocation raised to interrupt the survivors is consumed here; the
  // agreement below must communicate despite it.
  ctx.acknowledge_revoke();
  RecoveryModeGuard guard(ctx);

  std::vector<int> failed = agree_failures(generation);

  // Dense survivor communicator, parent rank order preserved.
  auto group = std::make_shared<Group>();
  group->world_ranks.reserve(static_cast<std::size_t>(size()) - failed.size());
  std::size_t fi = 0;
  int new_rank = -1;
  for (int r = 0; r < size(); ++r) {
    if (fi < failed.size() && failed[fi] == r) {
      ++fi;
      continue;
    }
    if (r == my_rank_) new_rank = static_cast<int>(group->world_ranks.size());
    group->world_ranks.push_back(world_rank(r));
  }
  FCS_CHECK(new_rank >= 0, "shrink_recover called by a failed rank");

  // Fresh context id, identical on all survivors because it is derived only
  // from agreed-on data: parent context, survivor world-rank list, and the
  // recovery generation. Avoid the world id (0) and the reserved recovery
  // context.
  std::uint64_t h = mix64(group_->context_id + 1, generation + 1);
  for (int w : group->world_ranks) h = mix64(h, static_cast<std::uint64_t>(w));
  h = (h >> 16) & 0xfffff;
  if (h == 0 || h == kRecoveryContext) h = 0x5bd1e;
  group->context_id = h;

  // Keep the shrunk communicator's steady state allocation-free: adopt the
  // parent pool's retained buffers instead of re-growing from the heap. Any
  // buffer that was in flight when the failure interrupted an exchange was
  // already returned to the parent pool by PooledBuffer unwinding.
  group->pool.adopt_from(group_->pool, ctx.obs());

  // Flush aborted-collective traffic: drop everything that is not already
  // addressed to the new context (a fast survivor may have raced ahead into
  // the replay before we purge - its messages must survive).
  const std::uint64_t keep_context = group->context_id;
  ctx.purge_mailbox([keep_context](std::uint64_t tag) {
    return (tag >> 44) == keep_context;
  });

  ShrinkResult out;
  out.comm = Comm(std::move(group), new_rank, ctx_);
  out.failed = std::move(failed);
  return out;
}

}  // namespace mpi
