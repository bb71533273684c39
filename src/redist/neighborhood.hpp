// Neighborhood exchange over a fixed, symmetric neighbor list.
//
// When the application reports the maximum particle movement and it is small
// enough that particles can only cross into directly neighboring subdomains,
// the P2NFFT-style solver replaces the collective all-to-all with
// point-to-point messages to the grid neighbors only (paper Section III-B).
// Unlike the NBX-style sparse exchange, the partner set is known up front,
// so no synchronization round is needed at all - each rank posts exactly one
// (possibly empty) send and one receive per neighbor.
#pragma once

#include <cstring>
#include <vector>

#include "minimpi/comm.hpp"
#include "obs/obs.hpp"
#include "redist/conserve.hpp"

namespace redist {

/// Exchange typed data with the given neighbors. `send_counts` has one entry
/// per communicator rank but may only be non-zero for self or listed
/// neighbors (checked). Data is packed destination-major like alltoallv.
/// Returns received elements grouped by source rank; recv_counts is resized
/// to the communicator size.
template <class T>
std::vector<T> neighborhood_alltoallv(const mpi::Comm& comm,
                                      const std::vector<int>& neighbors,
                                      const T* data,
                                      const std::vector<std::size_t>& send_counts,
                                      std::vector<std::size_t>& recv_counts) {
  static_assert(std::is_trivially_copyable_v<T>);
  obs::Span span(comm.ctx().obs(), "redist.neighborhood");
  const int p = comm.size();
  const int r = comm.rank();
  FCS_CHECK(static_cast<int>(send_counts.size()) == p,
            "need one send count per rank");
  constexpr int kTag = 0x1eab;  // any fixed user tag works: BSP usage

  std::vector<char> is_neighbor(static_cast<std::size_t>(p), 0);
  for (int n : neighbors) {
    FCS_CHECK(n >= 0 && n < p && n != r, "invalid neighbor rank " << n);
    is_neighbor[static_cast<std::size_t>(n)] = 1;
  }
  std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int d = 0; d < p; ++d) {
    FCS_CHECK(send_counts[static_cast<std::size_t>(d)] == 0 || d == r ||
                  is_neighbor[static_cast<std::size_t>(d)],
              "neighborhood exchange: data for non-neighbor rank " << d);
    offsets[static_cast<std::size_t>(d) + 1] =
        offsets[static_cast<std::size_t>(d)] + send_counts[static_cast<std::size_t>(d)];
  }

  if (obs::RankObs* const o = comm.ctx().obs(); o != nullptr) {
    double moved = 0.0;
    for (int n : neighbors)
      moved += static_cast<double>(send_counts[static_cast<std::size_t>(n)]);
    o->add("redist.neighborhood.calls", 1.0);
    o->add("redist.neighborhood.elements_moved", moved);
    o->add("redist.neighborhood.bytes_moved", moved * sizeof(T));
  }

  // Post all sends (eager), then receive one message from every neighbor.
  for (int n : neighbors)
    comm.send(data + offsets[static_cast<std::size_t>(n)],
              send_counts[static_cast<std::size_t>(n)], n, kTag);

  // Receive raw engine payloads (moved, not copied) and splice them into the
  // output in source-rank order - no per-neighbor typed staging vectors.
  recv_counts.assign(static_cast<std::size_t>(p), 0);
  recv_counts[static_cast<std::size_t>(r)] = send_counts[static_cast<std::size_t>(r)];
  std::vector<std::vector<std::byte>> incoming(static_cast<std::size_t>(p));
  for (int n : neighbors) {
    incoming[static_cast<std::size_t>(n)] = comm.recv_bytes_vec(n, kTag, nullptr);
    const std::size_t bytes = incoming[static_cast<std::size_t>(n)].size();
    FCS_CHECK(bytes % sizeof(T) == 0,
              "neighborhood exchange: received " << bytes
                  << " bytes, not a multiple of element size " << sizeof(T));
    recv_counts[static_cast<std::size_t>(n)] = bytes / sizeof(T);
  }

  std::size_t total = 0;
  for (std::size_t c : recv_counts) total += c;
  std::vector<T> out(total);
  std::size_t at = 0;
  for (int src = 0; src < p; ++src) {
    if (src == r) {
      const std::size_t n_self = send_counts[static_cast<std::size_t>(r)];
      if (n_self > 0)
        std::memcpy(out.data() + at, data + offsets[static_cast<std::size_t>(r)],
                    n_self * sizeof(T));
      at += n_self;
    } else {
      const auto& blk = incoming[static_cast<std::size_t>(src)];
      if (!blk.empty()) std::memcpy(out.data() + at, blk.data(), blk.size());
      at += blk.size() / sizeof(T);
    }
  }
  if (comm.ctx().config().validate)
    validate_exchange(comm, "neighborhood_alltoallv", offsets.back(),
                      content_checksum(data, offsets.back(), sizeof(T)),
                      out.size(),
                      content_checksum(out.data(), out.size(), sizeof(T)));
  return out;
}

}  // namespace redist
