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

std::size_t FusedBatch::payload_bytes() const {
  FCS_CHECK(plan_->counts_known(),
            "FusedBatch: plan receive counts not known yet");
  FCS_CHECK(segments_.size() <= 0xffff, "FusedBatch: too many segments");
  std::size_t bytes = 0;
  for (const Segment& s : segments_) bytes += s.item_bytes;
  return bytes;
}

void FusedBatch::pack(const std::vector<std::size_t>& send_bytes,
                      std::byte* buf, std::size_t total,
                      std::uint64_t* sent_sum) const {
  const ExchangePlan& plan = *plan_;
  Header h;
  h.magic = kMagic;
  h.nseg = static_cast<std::uint16_t>(segments_.size());
  std::size_t pos = 0;
  for (std::size_t d = 0; d < send_bytes.size(); ++d) {
    if (send_bytes[d] == 0) continue;
    const std::size_t items = plan.send_counts_[d];
    h.items = items;
    std::memcpy(buf + pos, &h, sizeof h);
    pos += sizeof h;
    const std::uint32_t* slots = plan.slot_src_.data() + plan.send_offsets_[d];
    for (const Segment& s : segments_) {
      sortlib::gather_rows(s.src, buf + pos, slots, items, s.item_bytes);
      if (sent_sum != nullptr)
        *sent_sum += content_checksum(buf + pos, items, s.item_bytes);
      pos += items * s.item_bytes;
    }
  }
  FCS_ASSERT(pos == total);
}

std::vector<std::byte*> FusedBatch::resize_outputs() const {
  const std::size_t n_recv = plan_->n_recv_total();
  std::vector<std::byte*> out(segments_.size());
  for (std::size_t s = 0; s < segments_.size(); ++s)
    out[s] = segments_[s].resize_out(segments_[s].out_vec,
                                     n_recv * segments_[s].item_bytes);
  return out;
}

void FusedBatch::unpack(const std::vector<std::size_t>& recv_bytes,
                        const std::byte* buf, std::size_t total,
                        const std::vector<std::byte*>& out,
                        std::uint64_t* recv_sum) const {
  const ExchangePlan& plan = *plan_;
  const std::size_t nseg = segments_.size();
  std::size_t pos = 0;
  for (std::size_t src = 0; src < recv_bytes.size(); ++src) {
    if (recv_bytes[src] == 0) continue;
    const std::size_t items = plan.recv_counts_[src];
    Header h;
    std::memcpy(&h, buf + pos, sizeof h);
    FCS_CHECK(h.magic == kMagic && h.nseg == nseg && h.items == items,
              "FusedBatch: malformed fused message from rank " << src);
    pos += sizeof h;
    const std::size_t slot0 = plan.recv_offsets_[src];
    for (std::size_t s = 0; s < nseg; ++s) {
      const std::size_t ib = segments_[s].item_bytes;
      if (placement_ == nullptr)
        std::memcpy(out[s] + slot0 * ib, buf + pos, items * ib);
      else
        sortlib::scatter_rows(buf + pos, out[s], placement_ + slot0, items,
                              ib);
      if (recv_sum != nullptr)
        *recv_sum += content_checksum(buf + pos, items, ib);
      pos += items * ib;
    }
  }
  FCS_ASSERT(pos == total);
}

void FusedBatch::finish(bool validate, std::uint64_t sent_sum,
                        std::uint64_t recv_sum) {
  const ExchangePlan& plan = *plan_;
  const mpi::Comm& comm = *comm_;
  const std::size_t nseg = segments_.size();
  if (validate)
    validate_exchange(comm, "fused_exchange", plan.n_send_slots() * nseg,
                      sent_sum, plan.n_recv_total() * nseg, recv_sum);
  if (obs::RankObs* const o = comm.ctx().obs(); o != nullptr) {
    const std::size_t payload = payload_bytes();
    std::size_t moved = 0;
    for (int i = 0; i < plan.nranks_; ++i)
      if (i != comm.rank())
        moved += msg_bytes(plan.send_counts_[static_cast<std::size_t>(i)],
                           payload);
    o->add("redist.fused.batches", 1.0);
    o->add("redist.fused.segments", static_cast<double>(nseg));
    o->add("redist.fused.elements",
           static_cast<double>(plan.n_send_slots() * nseg));
    o->add("redist.fused.bytes_moved", static_cast<double>(moved));
  }
  segments_.clear();
}

void FusedBatch::execute() {
  if (segments_.empty()) return;
  const std::size_t payload = payload_bytes();
  const ExchangePlan& plan = *plan_;
  const mpi::Comm& comm = *comm_;
  obs::RankObs* const o = comm.ctx().obs();
  obs::Span span(o, "redist.exchange.fused");

  // The per-partner message sizes go into the plan's byte-count scratch,
  // which run_known sends on.
  const auto p = static_cast<std::size_t>(plan.nranks_);
  std::vector<std::size_t>& send_bytes = plan.send_bytes_scratch_;
  std::vector<std::size_t>& recv_bytes = plan.recv_bytes_scratch_;
  send_bytes.resize(p);
  recv_bytes.resize(p);
  std::size_t send_total = 0;
  std::size_t recv_total = 0;
  for (std::size_t i = 0; i < p; ++i) {
    send_bytes[i] = msg_bytes(plan.send_counts_[i], payload);
    recv_bytes[i] = msg_bytes(plan.recv_counts_[i], payload);
    send_total += send_bytes[i];
    recv_total += recv_bytes[i];
  }

  const bool validate = comm.ctx().config().validate;
  std::uint64_t sent_sum = 0;
  std::uint64_t recv_sum = 0;
  mpi::PooledBuffer send_buf(comm.pool(), send_total, o);
  pack(send_bytes, send_buf.data(), send_total,
       validate ? &sent_sum : nullptr);
  mpi::PooledBuffer recv_buf(comm.pool(), recv_total, o);
  plan.run_known(comm, send_buf.data(), recv_buf.data());
  unpack(recv_bytes, recv_buf.data(), recv_total, resize_outputs(),
         validate ? &recv_sum : nullptr);
  finish(validate, sent_sum, recv_sum);
}

std::size_t FusedBatch::async_begin(std::size_t slabs) {
  FCS_CHECK(async_ == nullptr, "FusedBatch: async run already in progress");
  if (segments_.empty()) return 0;
  const std::size_t payload = payload_bytes();
  const ExchangePlan& plan = *plan_;
  const mpi::Comm& comm = *comm_;
  obs::RankObs* const o = comm.ctx().obs();
  const int p = plan.nranks_;
  const int r = comm.rank();

  auto run = std::make_unique<AsyncRun>();
  run->validate = comm.ctx().config().validate;
  run->slabs = std::max<std::size_t>(
      1, std::min(slabs, static_cast<std::size_t>(p)));
  run->slab.resize(run->slabs);
  for (AsyncSlab& sl : run->slab) {
    sl.send_bytes.assign(static_cast<std::size_t>(p), 0);
    sl.recv_bytes.assign(static_cast<std::size_t>(p), 0);
  }
  for (int i = 0; i < p; ++i) {
    AsyncSlab& sl = run->slab[static_cast<std::size_t>(r + i) % run->slabs];
    const std::size_t sb =
        msg_bytes(plan.send_counts_[static_cast<std::size_t>(i)], payload);
    const std::size_t rb =
        msg_bytes(plan.recv_counts_[static_cast<std::size_t>(i)], payload);
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
  AsyncSlab& sl = async_->slab[k];
  FCS_CHECK(!sl.packed, "FusedBatch::async_pack: slab " << k
                            << " already packed");
  sl.packed = true;
  pack(sl.send_bytes, sl.send_buf->data(), sl.send_total,
       async_->validate ? &async_->sent_sum : nullptr);
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
  // Outputs are resized only now that every slab is packed and received
  // (they may alias segment inputs; see add()).
  const std::vector<std::byte*> out = resize_outputs();
  std::uint64_t recv_sum = 0;
  for (const AsyncSlab& sl : async_->slab)
    unpack(sl.recv_bytes, sl.recv_buf->data(), sl.recv_total, out,
           async_->validate ? &recv_sum : nullptr);
  finish(async_->validate, async_->sent_sum, recv_sum);
  async_.reset();
}

}  // namespace redist
