// Reusable redistribution schedules (exchange plans) and fused multi-field
// exchanges.
//
// A redistribution step moves every element to the rank(s) named by a
// distribution function. The WHERE of that movement - per-destination slot
// lists, counts, offsets, partner sets - depends only on the distribution
// function, not on the payload, so it can be computed once per fcs_run and
// then applied to any number of per-particle payloads:
//
//   ExchangePlan plan = ExchangePlan::build(comm, n, dist, kind);  // local
//   auto a = plan.exchange_initial(comm, items.data()); // legacy-cost, fills
//                                                       // the recv counts
//   auto b = plan.apply<double>(comm, more.data());     // counts known: no
//                                                       // transpose/barrier
//   FusedBatch batch(comm, plan);                       // N fields, ONE
//   batch.add(vel, 1, vel); batch.add(acc, 1, acc);     // message per
//   batch.execute();                                    // partner pair
//
// The fused wire format per partner message is one 16-byte header
// {magic, nseg, items} followed by nseg typed segments, each holding `items`
// elements in plan slot order. Slot order is destination-major and, within a
// destination, ascending in source item index - the same order the legacy
// per-field exchanges produced, which is what makes the fused path
// bit-identical to them (tests/test_exchange_prop.cpp).
//
// All staging buffers come from the communicator's BufferPool, so steady
// state steps perform zero heap allocations in the exchange path.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "minimpi/comm.hpp"
#include "obs/obs.hpp"
#include "redist/conserve.hpp"
#include "sortlib/carry.hpp"

namespace redist {

enum class ExchangeKind { kDense, kSparse };

class ExchangePlan {
 public:
  ExchangePlan() = default;

  /// Build the local half of a plan: dist(i, targets) appends the
  /// destination rank(s) of item i to the pre-cleared `targets` (more than
  /// one entry duplicates the item - ghosts). dist is evaluated exactly ONCE
  /// per item; the targets are cached in the plan. No communication.
  template <class DistFn>
  static ExchangePlan build(const mpi::Comm& comm, std::size_t n_items,
                            DistFn&& dist, ExchangeKind kind) {
    ExchangePlan plan;
    plan.kind_ = kind;
    plan.nranks_ = comm.size();
    plan.n_items_ = n_items;
    const int p = plan.nranks_;
    FCS_CHECK(n_items <= 0xffffffffULL, "more than 2^32 local items");
    obs::count(comm.ctx().obs(), "redist.plan.builds", 1.0);

    // Single pass: cache each item's targets (item-major), count per
    // destination.
    std::vector<int> targets;
    std::vector<int> target_of_slot;
    std::vector<std::size_t> first_slot(n_items + 1, 0);
    plan.send_counts_.assign(static_cast<std::size_t>(p), 0);
    for (std::size_t i = 0; i < n_items; ++i) {
      targets.clear();
      dist(i, targets);
      for (int t : targets) {
        FCS_CHECK(t >= 0 && t < p, "distribution function returned rank "
                      << t << " outside the communicator (size " << p << ")");
        ++plan.send_counts_[static_cast<std::size_t>(t)];
        target_of_slot.push_back(t);
      }
      first_slot[i + 1] = target_of_slot.size();
    }

    // Counting sort of the cached targets into destination-major slot order;
    // within a destination, slots stay ascending in item index.
    plan.send_offsets_.assign(static_cast<std::size_t>(p) + 1, 0);
    for (int d = 0; d < p; ++d)
      plan.send_offsets_[static_cast<std::size_t>(d) + 1] =
          plan.send_offsets_[static_cast<std::size_t>(d)] +
          plan.send_counts_[static_cast<std::size_t>(d)];
    plan.slot_src_.resize(target_of_slot.size());
    std::vector<std::size_t> cursor(plan.send_offsets_.begin(),
                                    plan.send_offsets_.end() - 1);
    for (std::size_t i = 0; i < n_items; ++i)
      for (std::size_t k = first_slot[i]; k < first_slot[i + 1]; ++k)
        plan.slot_src_[cursor[static_cast<std::size_t>(target_of_slot[k])]++] =
            static_cast<std::uint32_t>(i);
    return plan;
  }

  ExchangeKind kind() const { return kind_; }
  int nranks() const { return nranks_; }
  std::size_t n_items() const { return n_items_; }
  /// Outgoing slots (>= n_items when the distribution duplicates).
  std::size_t n_send_slots() const { return slot_src_.size(); }
  /// Source item of each outgoing slot, destination-major.
  const std::vector<std::uint32_t>& slot_src() const { return slot_src_; }
  const std::vector<std::size_t>& send_counts() const { return send_counts_; }
  bool counts_known() const { return counts_known_; }
  const std::vector<std::size_t>& recv_counts() const {
    FCS_CHECK(counts_known_, "ExchangePlan: receive counts not known yet");
    return recv_counts_;
  }
  std::size_t n_recv_total() const {
    FCS_CHECK(counts_known_, "ExchangePlan: receive counts not known yet");
    return recv_offsets_.back();
  }

  /// Exchange the per-destination counts so the plan becomes applicable:
  /// dense plans use the counts transpose (Bruck alltoall), sparse plans an
  /// NBX-style count exchange. Collective.
  void negotiate(const mpi::Comm& comm);

  /// Supply receive counts the application derived from its own invariants
  /// (e.g. the fcs resort plan reads them off the origin indices). No
  /// communication.
  void set_recv_counts(std::vector<std::size_t> recv_counts);

  /// The combined counts+data exchange of the legacy fine-grained path
  /// (counts transpose in-band, then the data exchange) - virtual-time
  /// identical to what fine_grained_redistribute always did. Fills the
  /// receive counts as a side effect, making the plan reusable. `data` holds
  /// one T per input item.
  template <class T>
  std::vector<T> exchange_initial(const mpi::Comm& comm, const T* data) {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::RankObs* const o = comm.ctx().obs();
    obs::Span span(o, "redist.exchange.initial");
    mpi::PooledBuffer packed(comm.pool(), slot_src_.size() * sizeof(T), o);
    pack_into(data, sizeof(T), packed.data());
    scratch_counts(send_counts_, sizeof(T), send_bytes_scratch_);
    std::vector<std::size_t> recv_bytes;
    std::vector<std::byte> raw =
        kind_ == ExchangeKind::kDense
            ? comm.alltoallv_bytes(packed.data(), send_bytes_scratch_,
                                   recv_bytes)
            : comm.sparse_alltoallv_bytes(packed.data(), send_bytes_scratch_,
                                          recv_bytes);
    std::vector<std::size_t> rc(recv_bytes.size());
    for (std::size_t i = 0; i < recv_bytes.size(); ++i) {
      FCS_ASSERT(recv_bytes[i] % sizeof(T) == 0);
      rc[i] = recv_bytes[i] / sizeof(T);
    }
    set_recv_counts(std::move(rc));
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// One payload through the known-counts plan: `components` values of T per
  /// input item; the result holds `components` values per received element,
  /// grouped by source rank in plan slot order - or scattered through
  /// `placement` (receive slot k lands at item index placement[k]) when
  /// given. Cheaper than exchange_initial: no counts transpose (dense), no
  /// NBX barrier (sparse).
  template <class T>
  std::vector<T> apply(const mpi::Comm& comm, const T* data,
                       std::size_t components = 1,
                       const std::uint32_t* placement = nullptr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    FCS_CHECK(counts_known_, "ExchangePlan::apply before counts are known");
    obs::RankObs* const o = comm.ctx().obs();
    obs::Span span(o, "redist.exchange.apply");
    const std::size_t item_bytes = components * sizeof(T);
    obs::count(o, "redist.plan.applies", 1.0);

    mpi::PooledBuffer packed(comm.pool(), slot_src_.size() * item_bytes, o);
    pack_into(data, item_bytes, packed.data());
    scratch_counts(send_counts_, item_bytes, send_bytes_scratch_);
    scratch_counts(recv_counts_, item_bytes, recv_bytes_scratch_);

    std::vector<T> out(n_recv_total() * components);
    if (placement == nullptr) {
      run_known(comm, packed.data(), reinterpret_cast<std::byte*>(out.data()));
      if (comm.ctx().config().validate)
        validate_exchange(
            comm, "exchange_plan_apply", slot_src_.size(),
            content_checksum(packed.data(), slot_src_.size(), item_bytes),
            n_recv_total(),
            content_checksum(out.data(), n_recv_total(), item_bytes));
    } else {
      mpi::PooledBuffer staged(comm.pool(), n_recv_total() * item_bytes, o);
      run_known(comm, packed.data(), staged.data());
      if (comm.ctx().config().validate)
        validate_exchange(
            comm, "exchange_plan_apply", slot_src_.size(),
            content_checksum(packed.data(), slot_src_.size(), item_bytes),
            n_recv_total(),
            content_checksum(staged.data(), n_recv_total(), item_bytes));
      sortlib::scatter_rows(staged.data(),
                            reinterpret_cast<std::byte*>(out.data()),
                            placement, n_recv_total(), item_bytes);
    }
    return out;
  }

 private:
  friend class FusedBatch;

  /// Gather payload items into destination-major slot order (one
  /// width-specialized contiguous pass; see sortlib::gather_rows).
  void pack_into(const void* data, std::size_t item_bytes,
                 std::byte* out) const {
    sortlib::gather_rows(static_cast<const std::byte*>(data), out,
                         slot_src_.data(), slot_src_.size(), item_bytes);
  }

  /// Counts -> byte counts, into a reused scratch vector.
  static void scratch_counts(const std::vector<std::size_t>& counts,
                             std::size_t item_bytes,
                             std::vector<std::size_t>& out) {
    out.resize(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
      out[i] = counts[i] * item_bytes;
  }

  /// The known-counts data exchange on pre-scaled scratch byte counts.
  void run_known(const mpi::Comm& comm, const std::byte* packed,
                 std::byte* out) const;

  ExchangeKind kind_ = ExchangeKind::kDense;
  int nranks_ = 0;
  std::size_t n_items_ = 0;
  std::vector<std::uint32_t> slot_src_;
  std::vector<std::size_t> send_counts_;
  std::vector<std::size_t> send_offsets_;
  std::vector<std::size_t> recv_counts_;
  std::vector<std::size_t> recv_offsets_;
  bool counts_known_ = false;
  // Byte-count scratch reused across applies (mutable: caching only).
  mutable std::vector<std::size_t> send_bytes_scratch_;
  mutable std::vector<std::size_t> recv_bytes_scratch_;
};

/// Fuses several typed payloads over one ExchangePlan into a single
/// multi-segment message per partner pair: one header, N typed segments.
/// Legacy equivalent: N independent exchanges, each paying its own counts
/// transpose / barrier and dense fabric latency.
class FusedBatch {
 public:
  /// `placement`, when non-null, scatters every receive slot k of every
  /// segment to item index placement[k] (the fcs resort permutation);
  /// otherwise outputs stay in plan slot order (grouped by source rank).
  FusedBatch(const mpi::Comm& comm, const ExchangePlan& plan,
             const std::uint32_t* placement = nullptr)
      : comm_(&comm), plan_(&plan), placement_(placement) {}

  /// Queue one payload: `components` values of T per plan input item.
  /// `out` is resized to the received element count at execute() time; it
  /// MAY alias `data` (outputs are written only after all segments are
  /// packed). The data pointer must stay valid until execute().
  template <class T>
  void add(const std::vector<T>& data, std::size_t components,
           std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    FCS_CHECK(data.size() == plan_->n_items() * components,
              "FusedBatch: payload has " << data.size() << " values, expected "
                  << components << " x " << plan_->n_items());
    Segment seg;
    seg.src = reinterpret_cast<const std::byte*>(data.data());
    seg.item_bytes = components * sizeof(T);
    seg.out_vec = &out;
    seg.resize_out = [](void* vec, std::size_t n_bytes) -> std::byte* {
      auto* v = static_cast<std::vector<T>*>(vec);
      v->resize(n_bytes / sizeof(T));
      return reinterpret_cast<std::byte*>(v->data());
    };
    segments_.push_back(seg);
  }

  std::size_t segment_count() const { return segments_.size(); }

  /// Run the fused exchange. Collective; a no-op when no segments were
  /// added. After execute() the batch is empty and can be refilled.
  void execute();

  /// Slabbed asynchronous execution through the progress engine: the partner
  /// set is split into at most `slabs` slabs by the symmetric rule
  /// slab(partner) = (rank + partner) % n, so both endpoints of every
  /// message agree on its slab and the per-slab exchanges pair up across
  /// ranks. Per-partner message bytes are IDENTICAL to execute()'s, which is
  /// what keeps the task-graph overlapped path bit-identical to the phased
  /// one (the dense fabric charge still lands once, on the NIC timeline).
  ///
  /// Protocol - the async_start calls are collective creations and must run
  /// in the same k order on every rank (the task executor's ascending
  /// comm-node order guarantees this):
  ///   n = batch.async_begin(slabs);
  ///   for k: batch.async_pack(k);            // CPU packing, any order
  ///   for k: rq[k] = batch.async_start(k);   // collective creation, in order
  ///   ... overlap: poll/wait the requests ...
  ///   batch.async_finish();                  // unpack + validate + clear
  /// Returns the actual slab count (0 when the batch is empty).
  std::size_t async_begin(std::size_t slabs);
  /// Pack slab k's per-partner messages (pure CPU, no communication).
  void async_pack(std::size_t k);
  /// Issue slab k's exchange; requires async_pack(k) first.
  mpi::Request async_start(std::size_t k);
  /// After EVERY slab's request has completed: unpack into the output
  /// vectors (resizing them), validate, and clear the batch.
  void async_finish();

 private:
  struct Segment {
    const std::byte* src = nullptr;
    std::size_t item_bytes = 0;
    void* out_vec = nullptr;
    std::byte* (*resize_out)(void* vec, std::size_t n_bytes) = nullptr;
  };

  struct Header {
    std::uint32_t magic = 0;
    std::uint16_t nseg = 0;
    std::uint16_t reserved = 0;
    std::uint64_t items = 0;
  };
  static_assert(sizeof(Header) == 16);
  static constexpr std::uint32_t kMagic = 0x46555345;  // "FUSE"

  struct AsyncSlab {
    std::vector<std::size_t> send_bytes, recv_bytes;  // per rank; zero
                                                      // outside the slab
    std::unique_ptr<mpi::PooledBuffer> send_buf, recv_buf;
    std::size_t send_total = 0, recv_total = 0;
    bool packed = false;
  };
  struct AsyncRun {
    std::size_t slabs = 0;
    std::uint64_t sent_sum = 0;
    bool validate = false;
    std::vector<AsyncSlab> slab;
  };

  // The pack/unpack machinery both schedules (execute() and the slabbed
  // async run) share.

  /// Per-item bytes across all segments; checks the batch can run.
  std::size_t payload_bytes() const;
  /// Per-partner message size: one header plus the segments back to back
  /// (zero for a partner that exchanges no items).
  static std::size_t msg_bytes(std::size_t items, std::size_t payload) {
    return items > 0 ? sizeof(Header) + items * payload : 0;
  }
  /// Pack the message of every partner d with send_bytes[d] > 0 into `buf`
  /// (`total` bytes), destination-major: the header, then each segment's
  /// rows in plan slot order. Adds the payload checksum to *sent_sum when
  /// non-null.
  void pack(const std::vector<std::size_t>& send_bytes, std::byte* buf,
            std::size_t total, std::uint64_t* sent_sum) const;
  /// Resize every output to the received element count and return the
  /// base pointers. Call only once every source has been read: outputs may
  /// alias segment inputs.
  std::vector<std::byte*> resize_outputs() const;
  /// Unpack the message of every source with recv_bytes[src] > 0 from
  /// `buf`, checking its header; segment rows land at their plan receive
  /// slots (or scattered through the placement). Adds the payload checksum
  /// to *recv_sum when non-null.
  void unpack(const std::vector<std::size_t>& recv_bytes, const std::byte* buf,
              std::size_t total, const std::vector<std::byte*>& out,
              std::uint64_t* recv_sum) const;
  /// Validate the checksums (when `validate`), count redist.fused.*, and
  /// clear the batch.
  void finish(bool validate, std::uint64_t sent_sum, std::uint64_t recv_sum);

  const mpi::Comm* comm_;
  const ExchangePlan* plan_;
  const std::uint32_t* placement_;
  std::vector<Segment> segments_;
  std::unique_ptr<AsyncRun> async_;
};

}  // namespace redist
