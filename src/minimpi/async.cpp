// The asynchronous progress engine behind mpi::Request: the one
// non-blocking operation the library issues, the known-size sparse
// exchange (Comm::isparse_alltoallv_bytes_known).
//
// It runs the SAME data phase as the blocking known-size exchanges
// (Comm::post_known: self copy, eager sends to every non-empty partner,
// receives in ascending partner order), so the bytes moved and the received
// contents are bit-identical - the only difference is the virtual-time
// accounting. Sends issue through sim::RankCtx::send_async, which charges
// the payload copy and fabric injection to the rank's NIC timeline instead
// of its CPU clock; receive steps poll sim::RankCtx::try_recv, which only
// consumes messages whose last byte has arrived. A request therefore
// completes "in the background" of whatever compute runs between polls, and
// wait() pays only the residual arrival time that compute did not hide.
//
// Progress ordering is deterministic: the state walks a fixed list of
// expected partner messages, and wait() drains the rest with blocking
// receives in exactly the order the blocking exchange uses, so clock
// advances are reproducible bit-for-bit across runs.
#include <cstring>
#include <sstream>

#include "minimpi/comm.hpp"
#include "obs/obs.hpp"

namespace mpi {

namespace detail {

/// A known-partner exchange whose sends all went to the NIC at creation;
/// what remains is consuming each expected partner message.
struct AsyncState {
  struct Pending {
    int world_src;
    std::size_t bytes;
    std::size_t offset;
  };

  /// Advance the operation. With blocking == true the call must complete
  /// (or throw); with false it consumes whatever has arrived and returns
  /// whether the operation is done.
  bool progress(bool blocking) {
    if (done) return true;
    sim::RankCtx& ctx = comm.ctx();
    // A pending revocation aborts the request exactly like a blocking recv
    // would: the rank must fall into its recovery driver, not keep polling
    // an exchange some participant already abandoned.
    if (!ctx.recovery_mode() && ctx.revoked()) {
      std::ostringstream oss;
      oss << "rank " << ctx.rank()
          << ": communicator revoked while progressing an async request";
      throw RankFailedError(-1, oss.str());
    }
    while (next < pending.size()) {
      const Pending& pd = pending[next];
      sim::RankCtx::RecvInfo info;
      if (blocking) {
        info = ctx.recv(pd.world_src, static_cast<std::int64_t>(tag));
      } else if (!ctx.try_recv(pd.world_src, static_cast<std::int64_t>(tag),
                               &info)) {
        return false;
      }
      FCS_CHECK(info.payload.size() == pd.bytes,
                "async exchange size mismatch from world rank "
                    << pd.world_src);
      std::memcpy(out + pd.offset, info.payload.data(), info.payload.size());
      status.bytes += info.payload.size();
      ++next;
    }
    done = true;
    return true;
  }

  Comm comm;  // by value: keeps the group alive for the request's lifetime
  Status status{};
  bool done = false;
  std::uint64_t tag = 0;
  std::byte* out = nullptr;
  std::vector<Pending> pending;  // ascending partner order
  std::size_t next = 0;
};

}  // namespace detail

bool Request::test(Status* status) {
  FCS_CHECK(valid(), "test on an inactive request");
  if (!state_->progress(/*blocking=*/false)) return false;
  if (status != nullptr) *status = state_->status;
  state_.reset();
  return true;
}

Status Request::wait() {
  FCS_CHECK(valid(), "wait on an inactive request");
  state_->progress(/*blocking=*/true);
  Status st = state_->status;
  state_.reset();
  return st;
}

Request Comm::isparse_alltoallv_bytes_known(
    const void* in, const std::vector<std::size_t>& send_bytes,
    const std::vector<std::size_t>& recv_bytes, void* out) const {
  const int p = size();
  const int r = rank();
  FCS_CHECK(static_cast<int>(send_bytes.size()) == p &&
                static_cast<int>(recv_bytes.size()) == p,
            "isparse_alltoallv_known needs one send and one recv size per rank");
  count_sparse(send_bytes, "mpi.isparse_alltoallv_known.calls",
               "mpi.isparse_alltoallv_known.bytes",
               "mpi.isparse_alltoallv_known.partners");
  auto st = std::make_shared<detail::AsyncState>();
  st->comm = *this;
  st->tag = next_collective_tag(kOpSparse);
  st->out = static_cast<std::byte*>(out);
  const std::vector<std::size_t> recv_offsets =
      post_known(in, send_bytes, recv_bytes, out, st->tag, /*nic=*/true);
  for (int i = 0; i < p; ++i) {
    const std::size_t n = recv_bytes[static_cast<std::size_t>(i)];
    if (i == r || n == 0) continue;
    st->pending.push_back(detail::AsyncState::Pending{
        world_rank(i), n, recv_offsets[static_cast<std::size_t>(i)]});
  }
  if (st->pending.empty()) st->done = true;
  return Request(std::move(st));
}

}  // namespace mpi
