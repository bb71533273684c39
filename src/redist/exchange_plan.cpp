#include "redist/exchange_plan.hpp"

#include <algorithm>

namespace redist {

void ExchangePlan::set_recv_counts(std::vector<std::size_t> recv_counts) {
  FCS_CHECK(static_cast<int>(recv_counts.size()) == nranks_,
            "ExchangePlan: need one receive count per rank");
  recv_counts_ = std::move(recv_counts);
  recv_offsets_.assign(static_cast<std::size_t>(nranks_) + 1, 0);
  for (int i = 0; i < nranks_; ++i)
    recv_offsets_[static_cast<std::size_t>(i) + 1] =
        recv_offsets_[static_cast<std::size_t>(i)] +
        recv_counts_[static_cast<std::size_t>(i)];
  counts_known_ = true;
}

void ExchangePlan::negotiate(const mpi::Comm& comm) {
  obs::Span span(comm.ctx().obs(), "redist.exchange.negotiate");
  const int p = nranks_;
  if (kind_ == ExchangeKind::kDense) {
    std::vector<std::uint64_t> sc(send_counts_.begin(), send_counts_.end());
    std::vector<std::uint64_t> rc(static_cast<std::size_t>(p));
    comm.alltoall(sc.data(), 1, rc.data());
    set_recv_counts(std::vector<std::size_t>(rc.begin(), rc.end()));
    return;
  }
  // Sparse: NBX-style count exchange - only non-empty partners send their
  // count; absent partners contribute zero.
  std::vector<std::uint64_t> payload(static_cast<std::size_t>(p));
  std::vector<std::size_t> send_bytes(static_cast<std::size_t>(p), 0);
  for (int i = 0; i < p; ++i) {
    payload[static_cast<std::size_t>(i)] =
        send_counts_[static_cast<std::size_t>(i)];
    if (send_counts_[static_cast<std::size_t>(i)] > 0)
      send_bytes[static_cast<std::size_t>(i)] = sizeof(std::uint64_t);
  }
  // Compact the non-empty counts (sparse_alltoallv_bytes packs by offset).
  std::vector<std::byte> dense(static_cast<std::size_t>(p) *
                               sizeof(std::uint64_t));
  std::size_t pos = 0;
  for (int i = 0; i < p; ++i) {
    if (send_bytes[static_cast<std::size_t>(i)] == 0) continue;
    std::memcpy(dense.data() + pos, &payload[static_cast<std::size_t>(i)],
                sizeof(std::uint64_t));
    pos += sizeof(std::uint64_t);
  }
  std::vector<std::size_t> recv_bytes;
  std::vector<std::byte> raw =
      comm.sparse_alltoallv_bytes(dense.data(), send_bytes, recv_bytes);
  std::vector<std::size_t> rc(static_cast<std::size_t>(p), 0);
  pos = 0;
  for (int i = 0; i < p; ++i) {
    if (recv_bytes[static_cast<std::size_t>(i)] == 0) continue;
    FCS_CHECK(recv_bytes[static_cast<std::size_t>(i)] == sizeof(std::uint64_t),
              "ExchangePlan::negotiate: malformed count message");
    std::uint64_t c = 0;
    std::memcpy(&c, raw.data() + pos, sizeof c);
    rc[static_cast<std::size_t>(i)] = static_cast<std::size_t>(c);
    pos += sizeof(std::uint64_t);
  }
  set_recv_counts(std::move(rc));
}

void ExchangePlan::run_known(const mpi::Comm& comm, const std::byte* packed,
                             std::byte* out) const {
  if (kind_ == ExchangeKind::kDense)
    comm.alltoallv_bytes_known(packed, send_bytes_scratch_,
                               recv_bytes_scratch_, out);
  else
    comm.sparse_alltoallv_bytes_known(packed, send_bytes_scratch_,
                                      recv_bytes_scratch_, out);
}

void FusedBatch::execute() {
  if (segments_.empty()) return;
  const ExchangePlan& plan = *plan_;
  FCS_CHECK(plan.counts_known(),
            "FusedBatch: plan receive counts not known yet");
  const mpi::Comm& comm = *comm_;
  obs::RankObs* const o = comm.ctx().obs();
  obs::Span span(o, "redist.exchange.fused");
  const int p = plan.nranks_;
  const int r = comm.rank();
  const std::size_t nseg = segments_.size();
  FCS_CHECK(nseg <= 0xffff, "FusedBatch: too many segments");
  std::size_t payload_bytes = 0;  // per item, across all segments
  for (const Segment& s : segments_) payload_bytes += s.item_bytes;

  // Per-partner message size: one header plus nseg back-to-back segments.
  auto msg_bytes = [&](std::size_t items) {
    return items > 0 ? sizeof(Header) + items * payload_bytes : 0;
  };
  ExchangePlan::scratch_counts(plan.send_counts_, 1, plan.send_bytes_scratch_);
  ExchangePlan::scratch_counts(plan.recv_counts_, 1, plan.recv_bytes_scratch_);
  std::size_t send_total = 0;
  std::size_t recv_total = 0;
  for (int i = 0; i < p; ++i) {
    plan.send_bytes_scratch_[static_cast<std::size_t>(i)] =
        msg_bytes(plan.send_counts_[static_cast<std::size_t>(i)]);
    plan.recv_bytes_scratch_[static_cast<std::size_t>(i)] =
        msg_bytes(plan.recv_counts_[static_cast<std::size_t>(i)]);
    send_total += plan.send_bytes_scratch_[static_cast<std::size_t>(i)];
    recv_total += plan.recv_bytes_scratch_[static_cast<std::size_t>(i)];
  }

  // Pack: destination-major, one header + nseg segments per partner. All
  // sources are read before any output vector is touched, so out MAY alias
  // a segment's input.
  mpi::PooledBuffer send_buf(comm.pool(), send_total, o);
  std::uint64_t sent_sum = 0;
  const bool validate = validation_enabled();
  {
    std::size_t pos = 0;
    for (int d = 0; d < p; ++d) {
      const std::size_t items = plan.send_counts_[static_cast<std::size_t>(d)];
      if (items == 0) continue;
      Header h;
      h.magic = kMagic;
      h.nseg = static_cast<std::uint16_t>(nseg);
      h.items = items;
      std::memcpy(send_buf.data() + pos, &h, sizeof h);
      pos += sizeof h;
      const std::size_t first = plan.send_offsets_[static_cast<std::size_t>(d)];
      for (const Segment& s : segments_) {
        sortlib::gather_rows(s.src, send_buf.data() + pos,
                             plan.slot_src_.data() + first, items,
                             s.item_bytes);
        if (validate)
          sent_sum += content_checksum(send_buf.data() + pos, items,
                                       s.item_bytes);
        pos += items * s.item_bytes;
      }
    }
    FCS_ASSERT(pos == send_total);
  }

  mpi::PooledBuffer recv_buf(comm.pool(), recv_total, o);
  if (plan.kind_ == ExchangeKind::kDense)
    comm.alltoallv_bytes_known(send_buf.data(), plan.send_bytes_scratch_,
                               plan.recv_bytes_scratch_, recv_buf.data());
  else
    comm.sparse_alltoallv_bytes_known(send_buf.data(),
                                      plan.send_bytes_scratch_,
                                      plan.recv_bytes_scratch_,
                                      recv_buf.data());

  // Unpack: resize outputs now that every source has been read, then copy
  // each segment out, grouped by source rank in plan slot order (or
  // scattered through the placement permutation).
  const std::size_t n_recv = plan.n_recv_total();
  std::vector<std::byte*> out_ptr(nseg);
  for (std::size_t s = 0; s < nseg; ++s)
    out_ptr[s] =
        segments_[s].resize_out(segments_[s].out_vec,
                                n_recv * segments_[s].item_bytes);
  std::uint64_t recv_sum = 0;
  {
    std::size_t pos = 0;
    for (int src = 0; src < p; ++src) {
      const std::size_t items =
          plan.recv_counts_[static_cast<std::size_t>(src)];
      if (items == 0) continue;
      Header h;
      std::memcpy(&h, recv_buf.data() + pos, sizeof h);
      FCS_CHECK(h.magic == kMagic && h.nseg == nseg && h.items == items,
                "FusedBatch: malformed fused message from rank " << src);
      pos += sizeof h;
      const std::size_t slot0 =
          plan.recv_offsets_[static_cast<std::size_t>(src)];
      for (std::size_t s = 0; s < nseg; ++s) {
        const std::size_t ib = segments_[s].item_bytes;
        if (placement_ == nullptr)
          std::memcpy(out_ptr[s] + slot0 * ib, recv_buf.data() + pos,
                      items * ib);
        else
          sortlib::scatter_rows(recv_buf.data() + pos, out_ptr[s],
                                placement_ + slot0, items, ib);
        if (validate)
          recv_sum += content_checksum(recv_buf.data() + pos, items, ib);
        pos += items * ib;
      }
    }
    FCS_ASSERT(pos == recv_total);
  }
  if (validate)
    validate_exchange(comm, "fused_exchange",
                      plan.n_send_slots() * nseg, sent_sum, n_recv * nseg,
                      recv_sum);

  if (o != nullptr) {
    std::size_t moved = 0;
    for (int i = 0; i < p; ++i)
      if (i != r) moved += plan.send_bytes_scratch_[static_cast<std::size_t>(i)];
    o->add("redist.fused.batches", 1.0);
    o->add("redist.fused.segments", static_cast<double>(nseg));
    o->add("redist.fused.elements",
           static_cast<double>(plan.n_send_slots() * nseg));
    o->add("redist.fused.bytes_moved", static_cast<double>(moved));
  }
  segments_.clear();
}

std::size_t FusedBatch::async_begin(std::size_t slabs) {
  FCS_CHECK(async_ == nullptr, "FusedBatch: async run already in progress");
  if (segments_.empty()) return 0;
  const ExchangePlan& plan = *plan_;
  FCS_CHECK(plan.counts_known(),
            "FusedBatch: plan receive counts not known yet");
  const mpi::Comm& comm = *comm_;
  obs::RankObs* const o = comm.ctx().obs();
  const int p = plan.nranks_;
  const int r = comm.rank();
  FCS_CHECK(segments_.size() <= 0xffff, "FusedBatch: too many segments");

  auto run = std::make_unique<AsyncRun>();
  for (const Segment& s : segments_) run->payload_bytes += s.item_bytes;
  run->validate = validation_enabled();
  run->slabs = std::max<std::size_t>(
      1, std::min(slabs, static_cast<std::size_t>(p)));
  run->slab.resize(run->slabs);

  const auto msg_bytes = [&](std::size_t items) {
    return items > 0 ? sizeof(Header) + items * run->payload_bytes : 0;
  };
  for (AsyncSlab& sl : run->slab) {
    sl.send_bytes.assign(static_cast<std::size_t>(p), 0);
    sl.recv_bytes.assign(static_cast<std::size_t>(p), 0);
  }
  for (int i = 0; i < p; ++i) {
    AsyncSlab& sl = run->slab[static_cast<std::size_t>(r + i) % run->slabs];
    const std::size_t sb =
        msg_bytes(plan.send_counts_[static_cast<std::size_t>(i)]);
    const std::size_t rb =
        msg_bytes(plan.recv_counts_[static_cast<std::size_t>(i)]);
    sl.send_bytes[static_cast<std::size_t>(i)] = sb;
    sl.recv_bytes[static_cast<std::size_t>(i)] = rb;
    sl.send_total += sb;
    sl.recv_total += rb;
  }
  for (AsyncSlab& sl : run->slab) {
    sl.send_buf =
        std::make_unique<mpi::PooledBuffer>(comm.pool(), sl.send_total, o);
    sl.recv_buf =
        std::make_unique<mpi::PooledBuffer>(comm.pool(), sl.recv_total, o);
  }
  obs::count(o, "redist.fused.async_runs", 1.0);
  obs::count(o, "redist.fused.slabs", static_cast<double>(run->slabs));
  async_ = std::move(run);
  return async_->slabs;
}

void FusedBatch::async_pack(std::size_t k) {
  FCS_CHECK(async_ != nullptr && k < async_->slabs,
            "FusedBatch::async_pack: no async run / bad slab");
  const ExchangePlan& plan = *plan_;
  AsyncSlab& sl = async_->slab[k];
  FCS_CHECK(!sl.packed, "FusedBatch::async_pack: slab " << k
                            << " already packed");
  sl.packed = true;
  const int p = plan.nranks_;
  const std::size_t nseg = segments_.size();
  std::size_t pos = 0;
  for (int d = 0; d < p; ++d) {
    if (sl.send_bytes[static_cast<std::size_t>(d)] == 0) continue;
    const std::size_t items = plan.send_counts_[static_cast<std::size_t>(d)];
    Header h;
    h.magic = kMagic;
    h.nseg = static_cast<std::uint16_t>(nseg);
    h.items = items;
    std::memcpy(sl.send_buf->data() + pos, &h, sizeof h);
    pos += sizeof h;
    const std::size_t first = plan.send_offsets_[static_cast<std::size_t>(d)];
    for (const Segment& s : segments_) {
      sortlib::gather_rows(s.src, sl.send_buf->data() + pos,
                           plan.slot_src_.data() + first, items, s.item_bytes);
      if (async_->validate)
        async_->sent_sum +=
            content_checksum(sl.send_buf->data() + pos, items, s.item_bytes);
      pos += items * s.item_bytes;
    }
  }
  FCS_ASSERT(pos == sl.send_total);
}

mpi::Request FusedBatch::async_start(std::size_t k) {
  FCS_CHECK(async_ != nullptr && k < async_->slabs,
            "FusedBatch::async_start: no async run / bad slab");
  const ExchangePlan& plan = *plan_;
  AsyncSlab& sl = async_->slab[k];
  FCS_CHECK(sl.packed, "FusedBatch::async_start: slab " << k
                           << " not packed yet");
  const mpi::Comm& comm = *comm_;
  // A dense plan pays its collective fabric charge exactly once (the slabs
  // split ONE dense exchange); the per-partner movement below then runs on
  // point-to-point accounting like the sparse path.
  if (plan.kind_ == ExchangeKind::kDense && k == 0) {
    const sim::NetworkModel& net = *comm.ctx().config().network;
    std::size_t total_send = 0;
    for (const AsyncSlab& s : async_->slab) total_send += s.send_total;
    comm.ctx().charge_nic(
        net.dense_exchange_latency(comm.ctx().rank(), comm.size()) +
        static_cast<double>(total_send) *
            net.dense_exchange_byte_time(comm.size()));
  }
  return comm.isparse_alltoallv_bytes_known(sl.send_buf->data(), sl.send_bytes,
                                            sl.recv_bytes,
                                            sl.recv_buf->data());
}

void FusedBatch::async_finish() {
  FCS_CHECK(async_ != nullptr, "FusedBatch::async_finish: no async run");
  const ExchangePlan& plan = *plan_;
  const mpi::Comm& comm = *comm_;
  obs::RankObs* const o = comm.ctx().obs();
  const int p = plan.nranks_;
  const int r = comm.rank();
  const std::size_t nseg = segments_.size();

  // Resize every output now that all slabs are packed and received (outputs
  // may alias segment inputs; see add()).
  const std::size_t n_recv = plan.n_recv_total();
  std::vector<std::byte*> out_ptr(nseg);
  for (std::size_t s = 0; s < nseg; ++s)
    out_ptr[s] = segments_[s].resize_out(segments_[s].out_vec,
                                         n_recv * segments_[s].item_bytes);
  std::uint64_t recv_sum = 0;
  for (AsyncSlab& sl : async_->slab) {
    std::size_t pos = 0;
    for (int src = 0; src < p; ++src) {
      if (sl.recv_bytes[static_cast<std::size_t>(src)] == 0) continue;
      const std::size_t items =
          plan.recv_counts_[static_cast<std::size_t>(src)];
      Header h;
      std::memcpy(&h, sl.recv_buf->data() + pos, sizeof h);
      FCS_CHECK(h.magic == kMagic && h.nseg == nseg && h.items == items,
                "FusedBatch: malformed fused message from rank " << src);
      pos += sizeof h;
      const std::size_t slot0 =
          plan.recv_offsets_[static_cast<std::size_t>(src)];
      for (std::size_t s = 0; s < nseg; ++s) {
        const std::size_t ib = segments_[s].item_bytes;
        if (placement_ == nullptr)
          std::memcpy(out_ptr[s] + slot0 * ib, sl.recv_buf->data() + pos,
                      items * ib);
        else
          sortlib::scatter_rows(sl.recv_buf->data() + pos, out_ptr[s],
                                placement_ + slot0, items, ib);
        if (async_->validate)
          recv_sum += content_checksum(sl.recv_buf->data() + pos, items, ib);
        pos += items * ib;
      }
    }
    FCS_ASSERT(pos == sl.recv_total);
  }
  if (async_->validate)
    validate_exchange(comm, "fused_exchange", plan.n_send_slots() * nseg,
                      async_->sent_sum, n_recv * nseg, recv_sum);

  if (o != nullptr) {
    std::size_t moved = 0;
    for (const AsyncSlab& sl : async_->slab)
      for (int i = 0; i < p; ++i)
        if (i != r) moved += sl.send_bytes[static_cast<std::size_t>(i)];
    o->add("redist.fused.batches", 1.0);
    o->add("redist.fused.segments", static_cast<double>(nseg));
    o->add("redist.fused.elements",
           static_cast<double>(plan.n_send_slots() * nseg));
    o->add("redist.fused.bytes_moved", static_cast<double>(moved));
  }
  segments_.clear();
  async_.reset();
}

}  // namespace redist
