#include "redist/conserve.hpp"

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace redist {

std::uint64_t content_checksum(const void* data, std::size_t n,
                               std::size_t elem_bytes) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a per element
    for (std::size_t b = 0; b < elem_bytes; ++b) {
      h ^= bytes[i * elem_bytes + b];
      h *= 1099511628211ULL;
    }
    sum += h;  // wrap-around sum: order-independent, duplication-sensitive
  }
  return sum;
}

void validate_exchange(const mpi::Comm& comm, const char* what,
                       std::uint64_t sent_count, std::uint64_t sent_sum,
                       std::uint64_t recv_count, std::uint64_t recv_sum) {
  std::uint64_t local[4] = {sent_count, recv_count, sent_sum, recv_sum};
  std::uint64_t global[4];
  comm.allreduce(local, global, 4, mpi::OpSum{});
  FCS_CHECK(global[0] == global[1],
            "conservation violated in " << what << ": " << global[0]
                << " elements sent globally but " << global[1]
                << " received");
  FCS_CHECK(global[2] == global[3],
            "conservation violated in " << what
                << ": content checksum mismatch over " << global[0]
                << " elements (payload corrupted, lost, or duplicated)");
  obs::count(comm.ctx().obs(), "redist.validate.checks", 1.0);
}

}  // namespace redist
