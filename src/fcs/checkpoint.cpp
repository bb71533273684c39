#include "fcs/checkpoint.hpp"

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace fcs {

namespace {

// User-tag block of the checkpoint ring exchange; the store runs at BSP
// points so these cannot collide with in-flight traffic.
constexpr int kTagSize = 1060001;
constexpr int kTagBlob = 1060002;

}  // namespace

void CheckpointStore::save(const mpi::Comm& comm,
                           const std::vector<std::byte>& blob, int step_done) {
  FCS_CHECK(enabled(), "CheckpointStore::save on a disabled store");
  obs::RankObs* const o = comm.ctx().obs();
  obs::Span span(o, "recover.ckpt");
  obs::count(o, "recover.ckpt.count", 1.0);
  obs::count(o, "recover.ckpt.bytes", static_cast<double>(blob.size()));

  // Transactional save: the incoming blob is staged, a barrier confirms
  // that every rank finished its exchange, and only then is the previous
  // snapshot replaced. A rank failure before the barrier completes throws
  // out of here with the old (consistent) snapshot still in place - the
  // recovery driver rolls back to it and retries the checkpoint. The
  // barrier's full rank dependence means no rank can commit while another
  // rank's exchange is still missing; a failure after partial barrier
  // release can still split the commit, which the recovery driver detects
  // by agreeing on the checkpointed step (see DESIGN.md §13).
  const int p = comm.size();
  const int r = comm.rank();
  int new_guard = -1;
  if (p > 1) {
    const int to = (r + 1) % p;
    const int from = (r - 1 + p) % p;
    const std::uint64_t my_size = blob.size();
    std::uint64_t in_size = 0;
    comm.sendrecv(&my_size, 1, to, kTagSize, &in_size, 1, from, kTagSize);
    incoming_.resize(static_cast<std::size_t>(in_size));
    comm.send(blob.data(), blob.size(), to, kTagBlob);
    const mpi::Status st =
        comm.recv(incoming_.data(), incoming_.size(), from, kTagBlob);
    FCS_CHECK(st.bytes == incoming_.size(), "checkpoint blob size mismatch");
    new_guard = comm.world_rank(from);
    comm.barrier();
  } else {
    incoming_.clear();
  }

  // Commit point: pure local work from here on.
  own_.assign(blob.begin(), blob.end());  // retains capacity
  guarded_.swap(incoming_);
  guarded_rank_ = new_guard;
  have_ = true;
  step_done_ = step_done;
}

}  // namespace fcs
