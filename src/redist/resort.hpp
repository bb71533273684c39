// Resort indices and the subsequent reordering/redistribution of additional
// particle data (paper Section III).
//
// Both solvers label each particle copy with a 64-bit ORIGIN INDEX
// (source rank in the high 32 bits, source position in the low 32) before
// reordering it. Method A uses the origin indices to restore the original
// order and distribution. Method B instead INVERTS them into RESORT INDICES
// - for every original particle, the rank and position it ended up at - and
// builds a ResortPlan from them once per run, so that additional
// per-particle data (velocities, accelerations) can follow the particles:
// the paper's fcs_resort_floats/ints is a plan apply (fcs::Fcs). The
// index-addressed row exchange (resort_rows / resort_values) serves one-off
// moves without a plan, e.g. sending carried staged fields home.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "redist/atasp.hpp"

namespace redist {

/// Pack (rank, position) into an origin/resort index.
inline std::uint64_t make_index(int rank, std::uint64_t pos) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 32) |
         (pos & 0xffffffffULL);
}
inline int index_rank(std::uint64_t index) {
  return static_cast<int>(index >> 32);
}
inline std::uint32_t index_pos(std::uint64_t index) {
  return static_cast<std::uint32_t>(index & 0xffffffffULL);
}

/// Build the consecutive global numbering of the original particles: local
/// particle i gets make_index(rank, i). (Paper: "a global numbering of the
/// particles on all processes is used such that the particles of each single
/// process are consecutively numbered.")
std::vector<std::uint64_t> consecutive_origin_indices(int rank, std::size_t n);

/// METHOD A restore: send every current element back to the rank and
/// position named by its origin index (paper Figure 4). `origin(item)`
/// extracts the index. Returns n_original elements in original local order.
template <class T, class OriginFn>
std::vector<T> restore_to_origin(const mpi::Comm& comm,
                                 const std::vector<T>& items, OriginFn origin,
                                 std::size_t n_original, ExchangeKind kind) {
  struct Packet {
    std::uint64_t origin;
    T value;
  };
  std::vector<Packet> packets;
  packets.reserve(items.size());
  for (const T& item : items) packets.push_back(Packet{origin(item), item});

  std::vector<Packet> received = fine_grained_redistribute(
      comm, packets,
      [](const Packet& pk, std::size_t, std::vector<int>& targets) {
        targets.push_back(index_rank(pk.origin));
      },
      kind);

  FCS_CHECK(received.size() == n_original,
            "restore: expected " << n_original << " elements, received "
                                 << received.size());
  std::vector<T> out(n_original);
  std::vector<char> filled(n_original, 0);
  for (const Packet& pk : received) {
    const std::uint32_t pos = index_pos(pk.origin);
    FCS_CHECK(pos < n_original, "restore: origin position " << pos
                  << " out of range " << n_original);
    FCS_CHECK(!filled[pos], "restore: duplicate element for position " << pos);
    filled[pos] = 1;
    out[pos] = pk.value;
  }
  return out;
}

/// METHOD B resort-index creation (paper Figure 5): given each CURRENT
/// element's origin index, deliver to every ORIGINAL location the index of
/// the element's current location. Result[i] on the origin rank says where
/// original particle i now lives.
std::vector<std::uint64_t> invert_origin_indices(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& origin_of_current,
    std::size_t n_original, ExchangeKind kind);

/// Reusable method-B resort schedule, built once per fcs_run with ZERO
/// communication: the send side comes straight from the resort indices
/// (target rank of every original particle), the receive side from the
/// origin indices of the current elements (source rank of every current
/// element), and the receive placement from sorting the origin indices -
/// within a destination the sender packs ascending original positions, so
/// ascending (rank, pos) is exactly plan slot order. Every subsequent field
/// rides the plan's known-counts exchange (or a FusedBatch), skipping the
/// per-field counts transpose / NBX barrier AND the 4-byte per-element
/// position header of the index-addressed resort_values packets.
class ResortPlan {
 public:
  ResortPlan() = default;

  /// Collective only in the trivial sense (all ranks build); no messages.
  /// Verifies the inverse-permutation invariant on the receive side: every
  /// origin index must be unique, i.e. the placement is a permutation of
  /// the current elements.
  static ResortPlan build(const mpi::Comm& comm,
                          const std::vector<std::uint64_t>& resort_indices,
                          const std::vector<std::uint64_t>& origin_of_current,
                          ExchangeKind kind);

  bool valid() const { return valid_; }
  void reset() { valid_ = false; }
  std::size_t n_changed() const { return placement_.size(); }
  const ExchangePlan& plan() const { return plan_; }
  /// Receive slot k of the plan lands at current position placement()[k].
  const std::uint32_t* placement() const { return placement_.data(); }

  /// One field through the plan (fcs_resort_floats semantics: `components`
  /// values of T per original particle; returns values in the changed
  /// order). Bit-identical to resort_values over the same indices.
  template <class T>
  std::vector<T> resort(const mpi::Comm& comm, const std::vector<T>& data,
                        std::size_t components) const {
    FCS_CHECK(valid_, "resort plan not built");
    FCS_CHECK(data.size() == plan_.n_items() * components,
              "resort: data size " << data.size() << " != " << components
                                   << " components x " << plan_.n_items()
                                   << " particles");
    return plan_.apply(comm, data.data(), components, placement_.data());
  }

 private:
  ExchangePlan plan_;
  std::vector<std::uint32_t> placement_;
  bool valid_ = false;
};

/// Index-addressed row exchange: row i of `data` (`item_bytes` bytes) moves
/// to rank index_rank(indices[i]), position index_pos(indices[i]), in a
/// packet with a 4-byte position header. `out` must hold n_out rows; every
/// one of them must be named exactly once across the communicator.
void resort_rows(const mpi::Comm& comm,
                 const std::vector<std::uint64_t>& indices,
                 const std::byte* data, std::size_t item_bytes,
                 std::size_t n_out, ExchangeKind kind, std::byte* out);

/// fcs_resort_floats / fcs_resort_ints without a plan: move additional
/// per-particle data to the changed order and distribution.
/// `resort_indices[i]` names the target (rank, position) of original
/// particle i; `data` holds `components` values per original particle; the
/// result holds `components` values for each of the `n_changed` particles
/// now on this rank.
template <class T>
std::vector<T> resort_values(const mpi::Comm& comm,
                             const std::vector<std::uint64_t>& resort_indices,
                             const std::vector<T>& data, std::size_t components,
                             std::size_t n_changed, ExchangeKind kind) {
  static_assert(std::is_trivially_copyable_v<T>);
  FCS_CHECK(data.size() == resort_indices.size() * components,
            "resort: data size " << data.size() << " != " << components
                                 << " components x " << resort_indices.size()
                                 << " particles");
  std::vector<T> out(n_changed * components);
  resort_rows(comm, resort_indices,
              reinterpret_cast<const std::byte*>(data.data()),
              components * sizeof(T), n_changed, kind,
              reinterpret_cast<std::byte*>(out.data()));
  return out;
}

}  // namespace redist
