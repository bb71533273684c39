// Fine-grained data redistribution (paper references [13], [14]).
//
// This is the generalized "all-to-all specific" operation of the ZMPI-ATASP
// library the paper builds on: every element is sent to the target rank(s)
// named by a user-defined distribution function. A distribution function may
// return more than one target for an element, which duplicates it - that is
// how the P2NFFT-style solver creates ghost particles during redistribution.
//
// Two communication backends implement the same semantics:
//  * kDense  - collective MPI_Alltoallv-style exchange (counts transpose via
//              Bruck + data exchange); pays the dense latency of touching
//              every rank pair. This is what the paper's method A and plain
//              method B use.
//  * kSparse - NBX-style point-to-point: only non-empty partner messages,
//              synchronized by one dissemination barrier. This is the
//              "neighborhood communication" unlocked by the max-movement
//              information in the paper's method B.
//
// Since the exchange-plan rework this is a thin wrapper over
// redist::ExchangePlan (exchange_plan.hpp): the plan caches each item's
// targets, so the distribution function is evaluated exactly ONCE per item,
// and the packed staging buffer comes from the communicator's BufferPool.
// Callers that reuse the schedule for further payloads receive the plan via
// `plan_out`.
#pragma once

#include <cstdint>
#include <vector>

#include "minimpi/comm.hpp"
#include "obs/obs.hpp"
#include "redist/conserve.hpp"
#include "redist/exchange_plan.hpp"

namespace redist {

/// Redistribute `items`: dist(item, index, targets) appends the destination
/// rank(s) of the item to `targets` (pre-cleared; more than one = ghost
/// duplicates). dist is evaluated exactly once per item. Returns the
/// received elements grouped by source rank; `recv_counts`, if non-null,
/// receives the per-source counts; `plan_out`, if non-null, receives the
/// reusable exchange plan (counts known, ready for apply()/FusedBatch).
template <class T, class DistFn>
std::vector<T> fine_grained_redistribute(
    const mpi::Comm& comm, const std::vector<T>& items, DistFn dist,
    ExchangeKind kind, std::vector<std::size_t>* recv_counts_out = nullptr,
    ExchangePlan* plan_out = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  obs::Span span(comm.ctx().obs(), "redist.fine_grained");

  ExchangePlan plan = ExchangePlan::build(
      comm, items.size(),
      [&](std::size_t i, std::vector<int>& targets) {
        dist(items[i], i, targets);
      },
      kind);
  std::vector<T> received = plan.exchange_initial(comm, items.data());

  if (comm.ctx().config().validate) {
    // Order-independent wrap-sum: hashing the sent elements one by one
    // through the slot map gives the same total as hashing the packed
    // buffer.
    std::uint64_t sent_sum = 0;
    for (std::uint32_t src : plan.slot_src())
      sent_sum += content_checksum(&items[src], 1, sizeof(T));
    validate_exchange(
        comm, "fine_grained_redistribute", plan.n_send_slots(), sent_sum,
        received.size(),
        content_checksum(received.data(), received.size(), sizeof(T)));
  }
  if (obs::RankObs* const o = comm.ctx().obs(); o != nullptr) {
    const bool dense = kind == ExchangeKind::kDense;
    const std::size_t self =
        plan.send_counts()[static_cast<std::size_t>(comm.rank())];
    const std::size_t moved = plan.n_send_slots() - self;
    o->add(dense ? "redist.dense.calls" : "redist.sparse.calls", 1.0);
    o->add(dense ? "redist.dense.elements_out" : "redist.sparse.elements_out",
           static_cast<double>(plan.n_send_slots()));
    o->add(dense ? "redist.dense.elements_moved"
                 : "redist.sparse.elements_moved",
           static_cast<double>(moved));
    o->add(dense ? "redist.dense.bytes_moved" : "redist.sparse.bytes_moved",
           static_cast<double>(moved * sizeof(T)));
    o->add(dense ? "redist.dense.elements_in" : "redist.sparse.elements_in",
           static_cast<double>(received.size()));
  }
  if (recv_counts_out != nullptr) *recv_counts_out = plan.recv_counts();
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return received;
}

}  // namespace redist
