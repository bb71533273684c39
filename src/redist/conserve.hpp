// Conservation validation of redistribution operations.
//
// Every exchange in this library is conservative: each element that leaves
// a rank arrives at exactly one other rank (ghost duplication happens before
// the exchange, so duplicates are sent elements too). Under fault injection
// - or a transport bug - that invariant is exactly what breaks first, so the
// redistribution primitives can verify it after the fact: the global number
// of sent elements must equal the global number of received elements, and an
// order-independent content checksum over the sent bytes must equal the one
// over the received bytes.
//
// The check costs one small allreduce per exchange plus a linear hash over
// the payloads, so it is off by default; sim::EngineConfig::validate turns
// it on for every exchange of an engine (FCS_REDIST_VALIDATE=1 through
// sim::EngineConfig::from_env). A violation throws fcs::Error naming the
// operation - a deterministic diagnostic instead of silent corruption.
#pragma once

#include <cstddef>
#include <cstdint>

#include "minimpi/comm.hpp"

namespace redist {

/// Order-independent checksum of `n` elements of `elem_bytes` each: the
/// wrap-around sum of per-element FNV-1a hashes. Permutation-invariant (so
/// it survives any exchange order) but sensitive to element duplication and
/// loss, unlike a plain XOR where identical copies cancel.
std::uint64_t content_checksum(const void* data, std::size_t n,
                               std::size_t elem_bytes);

/// Collective: verify that globally sent == received, in count and content.
/// Throws fcs::Error mentioning `what` on a mismatch; counts
/// "redist.validate.checks" on success.
void validate_exchange(const mpi::Comm& comm, const char* what,
                       std::uint64_t sent_count, std::uint64_t sent_sum,
                       std::uint64_t recv_count, std::uint64_t recv_sum);

}  // namespace redist
