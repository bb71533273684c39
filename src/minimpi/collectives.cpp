// Byte-level collective implementations. Each collective is built from
// point-to-point messages using a standard scalable algorithm, so both the
// data movement and the virtual-time cost are faithful to what a real MPI
// library would do on the modeled machine.
#include <algorithm>
#include <cstring>
#include <numeric>

#include "minimpi/comm.hpp"
#include "obs/obs.hpp"

namespace mpi {

namespace {

const std::byte* as_bytes(const void* p) {
  return static_cast<const std::byte*>(p);
}
std::byte* as_bytes(void* p) { return static_cast<std::byte*>(p); }

}  // namespace

void Comm::barrier() const {
  // Dissemination barrier: ceil(log2 p) rounds, rank r signals r + 2^k.
  obs::Span span(ctx_->obs(), "mpi.barrier");
  obs::count(ctx_->obs(), "mpi.barrier.calls", 1.0);
  const int p = size();
  const int r = rank();
  const std::uint64_t tag = next_collective_tag(kOpBarrier);
  char token = 0;
  int round = 0;
  for (int k = 1; k < p; k <<= 1, ++round) {
    const int dst = (r + k) % p;
    const int src = (r - k + p) % p;
    const std::uint64_t t = with_round(tag, round);
    ctx_->send(world_rank(dst), t, &token, 1);
    (void)ctx_->recv(world_rank(src), static_cast<std::int64_t>(t));
  }
}

void Comm::bcast_bytes(void* data, std::size_t bytes, int root) const {
  obs::Span span(ctx_->obs(), "mpi.bcast");
  obs::count(ctx_->obs(), "mpi.bcast.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.bcast.bytes", static_cast<double>(bytes));
  const int p = size();
  const int r = rank();
  FCS_CHECK(root >= 0 && root < p, "bcast root out of range");
  const std::uint64_t tag = next_collective_tag(kOpBcast);
  const int vr = (r - root + p) % p;  // relative rank: root becomes 0

  // Binomial tree: receive from the parent, then forward to children.
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      const int src = (vr - mask + root) % p;
      sim::RankCtx::RecvInfo info =
          ctx_->recv(world_rank(src), static_cast<std::int64_t>(tag));
      FCS_CHECK(info.payload.size() == bytes, "bcast size mismatch");
      if (bytes > 0) std::memcpy(data, info.payload.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      const int dst = (vr + mask + root) % p;
      ctx_->send(world_rank(dst), tag, data, bytes);
    }
    mask >>= 1;
  }
}

void Comm::reduce_bytes(const void* in, void* out, std::size_t count,
                        std::size_t elem_size, int root, CombineFn combine,
                        const void* op) const {
  obs::Span span(ctx_->obs(), "mpi.reduce");
  obs::count(ctx_->obs(), "mpi.reduce.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.reduce.bytes",
             static_cast<double>(count * elem_size));
  const int p = size();
  const int r = rank();
  FCS_CHECK(root >= 0 && root < p, "reduce root out of range");
  const std::uint64_t tag = next_collective_tag(kOpReduce);
  const std::size_t bytes = count * elem_size;
  const int vr = (r - root + p) % p;

  std::vector<std::byte> acc(bytes);
  if (bytes > 0) std::memcpy(acc.data(), in, bytes);

  // Binomial tree, mirrored relative to bcast: children push partial sums up.
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) == 0) {
      const int src_vr = vr | mask;
      if (src_vr < p) {
        const int src = (src_vr + root) % p;
        sim::RankCtx::RecvInfo info =
            ctx_->recv(world_rank(src), static_cast<std::int64_t>(tag));
        FCS_CHECK(info.payload.size() == bytes, "reduce size mismatch");
        combine(acc.data(), info.payload.data(), count, op);
        ctx_->charge_ops(static_cast<double>(count));
      }
    } else {
      const int dst_vr = vr & ~mask;
      const int dst = (dst_vr + root) % p;
      ctx_->send(world_rank(dst), tag, acc.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  if (r == root && bytes > 0) std::memcpy(out, acc.data(), bytes);
}

void Comm::allgather_bytes(const void* in, std::size_t bytes_each,
                           void* out) const {
  obs::Span span(ctx_->obs(), "mpi.allgather");
  obs::count(ctx_->obs(), "mpi.allgather.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.allgather.bytes",
             static_cast<double>(bytes_each) * static_cast<double>(size() - 1));
  const int p = size();
  const int r = rank();
  const std::uint64_t tag = next_collective_tag(kOpAllgather);

  // Distance-doubling concatenation: the local buffer always holds the
  // cyclic run of blocks [r, r + have). Works for any p in ceil(log2 p)
  // rounds with ring-equivalent total volume.
  std::vector<std::byte> run(bytes_each * static_cast<std::size_t>(p));
  if (bytes_each > 0) std::memcpy(run.data(), in, bytes_each);
  int have = 1;
  int round = 0;
  while (have < p) {
    const int delta = std::min(have, p - have);
    const int dst = (r - have + p) % p;
    const int src = (r + have) % p;
    const std::uint64_t t = with_round(tag, round++);
    ctx_->send(world_rank(dst), t, run.data(),
               bytes_each * static_cast<std::size_t>(delta));
    sim::RankCtx::RecvInfo info =
        ctx_->recv(world_rank(src), static_cast<std::int64_t>(t));
    FCS_CHECK(info.payload.size() == bytes_each * static_cast<std::size_t>(delta),
              "allgather size mismatch");
    if (!info.payload.empty())
      std::memcpy(run.data() + bytes_each * static_cast<std::size_t>(have),
                  info.payload.data(), info.payload.size());
    have += delta;
  }
  // Rotate the run (starting at block r) into rank order.
  for (int i = 0; i < p; ++i) {
    const int block = (r + i) % p;
    if (bytes_each > 0)
      std::memcpy(as_bytes(out) + bytes_each * static_cast<std::size_t>(block),
                  run.data() + bytes_each * static_cast<std::size_t>(i),
                  bytes_each);
  }
  ctx_->charge_bytes(static_cast<double>(bytes_each) * p);
}

void Comm::allgatherv_bytes(const void* in,
                            const std::vector<std::size_t>& bytes,
                            void* out) const {
  obs::Span span(ctx_->obs(), "mpi.allgatherv");
  obs::count(ctx_->obs(), "mpi.allgatherv.calls", 1.0);
  const int p = size();
  const int r = rank();
  FCS_CHECK(static_cast<int>(bytes.size()) == p,
            "allgatherv needs one size per rank");
  const std::uint64_t tag = next_collective_tag(kOpAllgather);

  // Cyclic prefix sums of the run starting at r let both peers compute the
  // transfer sizes without extra communication.
  auto run_bytes = [&](int start, int nblocks) {
    std::size_t s = 0;
    for (int i = 0; i < nblocks; ++i)
      s += bytes[static_cast<std::size_t>((start + i) % p)];
    return s;
  };

  std::size_t total = 0;
  for (std::size_t b : bytes) total += b;
  std::vector<std::byte> run(total);
  if (bytes[static_cast<std::size_t>(r)] > 0)
    std::memcpy(run.data(), in, bytes[static_cast<std::size_t>(r)]);

  int have = 1;
  int round = 0;
  std::size_t have_bytes = bytes[static_cast<std::size_t>(r)];
  while (have < p) {
    const int delta = std::min(have, p - have);
    const int dst = (r - have + p) % p;
    const int src = (r + have) % p;
    const std::size_t send_n = run_bytes(r, delta);
    const std::size_t recv_n = run_bytes((r + have) % p, delta);
    const std::uint64_t t = with_round(tag, round++);
    ctx_->send(world_rank(dst), t, run.data(), send_n);
    sim::RankCtx::RecvInfo info =
        ctx_->recv(world_rank(src), static_cast<std::int64_t>(t));
    FCS_CHECK(info.payload.size() == recv_n, "allgatherv size mismatch");
    if (!info.payload.empty())
      std::memcpy(run.data() + have_bytes, info.payload.data(), recv_n);
    have += delta;
    have_bytes += recv_n;
  }
  FCS_ASSERT(have_bytes == total);

  // Rotate into rank order.
  std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i)
    offsets[static_cast<std::size_t>(i) + 1] =
        offsets[static_cast<std::size_t>(i)] + bytes[static_cast<std::size_t>(i)];
  std::size_t run_pos = 0;
  for (int i = 0; i < p; ++i) {
    const int block = (r + i) % p;
    const std::size_t n = bytes[static_cast<std::size_t>(block)];
    if (n > 0)
      std::memcpy(as_bytes(out) + offsets[static_cast<std::size_t>(block)],
                  run.data() + run_pos, n);
    run_pos += n;
  }
  ctx_->charge_bytes(static_cast<double>(total));
}

void Comm::alltoall_bytes(const void* in, std::size_t bytes_each,
                          void* out) const {
  obs::Span span(ctx_->obs(), "mpi.alltoall");
  obs::count(ctx_->obs(), "mpi.alltoall.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.alltoall.bytes",
             static_cast<double>(bytes_each) * static_cast<double>(size() - 1));
  const int p = size();
  const int r = rank();
  const std::uint64_t tag = next_collective_tag(kOpAlltoall);

  if (p == 1) {
    if (bytes_each > 0) std::memcpy(out, in, bytes_each);
    return;
  }

  // Bruck's algorithm: ceil(log2 p) rounds regardless of p; the right choice
  // for the small fixed-size blocks (counts vectors) this library sends.
  std::vector<std::byte> cur(bytes_each * static_cast<std::size_t>(p));
  // Phase 1: local rotation, block i <- input block (r + i) mod p.
  for (int i = 0; i < p; ++i)
    if (bytes_each > 0)
      std::memcpy(cur.data() + bytes_each * static_cast<std::size_t>(i),
                  as_bytes(in) + bytes_each * static_cast<std::size_t>((r + i) % p),
                  bytes_each);

  // Phase 2: for each bit, forward the blocks whose index has that bit set.
  std::vector<std::byte> pack;
  int round = 0;
  for (int pof2 = 1; pof2 < p; pof2 <<= 1, ++round) {
    pack.clear();
    std::vector<int> moved;
    for (int i = 0; i < p; ++i) {
      if ((i & pof2) == 0) continue;
      moved.push_back(i);
      const std::byte* src = cur.data() + bytes_each * static_cast<std::size_t>(i);
      pack.insert(pack.end(), src, src + bytes_each);
    }
    const int dst = (r + pof2) % p;
    const int src_rank = (r - pof2 + p) % p;
    const std::uint64_t t = with_round(tag, round);
    ctx_->send(world_rank(dst), t, pack.data(), pack.size());
    sim::RankCtx::RecvInfo info =
        ctx_->recv(world_rank(src_rank), static_cast<std::int64_t>(t));
    FCS_CHECK(info.payload.size() == pack.size(), "alltoall size mismatch");
    for (std::size_t k = 0; k < moved.size(); ++k)
      if (bytes_each > 0)
        std::memcpy(cur.data() + bytes_each * static_cast<std::size_t>(moved[k]),
                    info.payload.data() + bytes_each * k, bytes_each);
  }

  // Phase 3: inverse rotation with reversal: out[(r - i + p) mod p] = cur[i].
  for (int i = 0; i < p; ++i)
    if (bytes_each > 0)
      std::memcpy(
          as_bytes(out) + bytes_each * static_cast<std::size_t>((r - i + p) % p),
          cur.data() + bytes_each * static_cast<std::size_t>(i), bytes_each);
  ctx_->charge_bytes(static_cast<double>(bytes_each) * p);
}

void Comm::count_sparse(const std::vector<std::size_t>& send_bytes,
                        const char* calls, const char* bytes,
                        const char* partners) const {
  obs::RankObs* const o = ctx_->obs();
  if (o == nullptr) return;
  const int r = rank();
  double moved = 0.0;
  double n_partners = 0.0;
  for (int i = 0; i < size(); ++i) {
    if (i == r || send_bytes[static_cast<std::size_t>(i)] == 0) continue;
    moved += static_cast<double>(send_bytes[static_cast<std::size_t>(i)]);
    n_partners += 1.0;
  }
  o->add(calls, 1.0);
  o->add(bytes, moved);
  o->add(partners, n_partners);
}

void Comm::charge_dense_exchange(const std::vector<std::size_t>& send_bytes,
                                 const char* bytes_counter) const {
  const int p = size();
  const int r = rank();
  std::size_t total_send = 0;
  for (int i = 0; i < p; ++i)
    if (i != r) total_send += send_bytes[static_cast<std::size_t>(i)];
  obs::count(ctx_->obs(), bytes_counter, static_cast<double>(total_send));
  ctx_->advance(
      ctx_->config().network->dense_exchange_latency(ctx_->rank(), p) +
      static_cast<double>(total_send) *
          ctx_->config().network->dense_exchange_byte_time(p));
}

std::vector<std::size_t> Comm::post_known(
    const void* in, const std::vector<std::size_t>& send_bytes,
    const std::vector<std::size_t>& recv_bytes, void* out, std::uint64_t tag,
    bool nic) const {
  const int p = size();
  const auto r = static_cast<std::size_t>(rank());
  std::vector<std::size_t> send_offsets(static_cast<std::size_t>(p) + 1, 0);
  std::vector<std::size_t> recv_offsets(static_cast<std::size_t>(p) + 1, 0);
  for (std::size_t i = 0; i < static_cast<std::size_t>(p); ++i) {
    send_offsets[i + 1] = send_offsets[i] + send_bytes[i];
    recv_offsets[i + 1] = recv_offsets[i] + recv_bytes[i];
  }
  FCS_CHECK(send_bytes[r] == recv_bytes[r],
            "known-size exchange: self send/recv size mismatch");
  if (send_bytes[r] > 0)
    std::memcpy(as_bytes(out) + recv_offsets[r],
                as_bytes(in) + send_offsets[r], send_bytes[r]);
  for (std::size_t i = 0; i < static_cast<std::size_t>(p); ++i) {
    if (i == r || send_bytes[i] == 0) continue;
    const int dst = world_rank(static_cast<int>(i));
    if (nic)
      ctx_->send_async(dst, tag, as_bytes(in) + send_offsets[i], send_bytes[i]);
    else
      ctx_->send(dst, tag, as_bytes(in) + send_offsets[i], send_bytes[i]);
  }
  return recv_offsets;
}

void Comm::exchange_known(const void* in,
                          const std::vector<std::size_t>& send_bytes,
                          const std::vector<std::size_t>& recv_bytes,
                          void* out, std::uint64_t tag) const {
  const std::vector<std::size_t> recv_offsets =
      post_known(in, send_bytes, recv_bytes, out, tag, /*nic=*/false);
  const int p = size();
  for (int i = 0; i < p; ++i) {
    const std::size_t n = recv_bytes[static_cast<std::size_t>(i)];
    if (i == rank() || n == 0) continue;
    sim::RankCtx::RecvInfo info =
        ctx_->recv(world_rank(i), static_cast<std::int64_t>(tag));
    FCS_CHECK(info.payload.size() == n,
              "known-size exchange: data size mismatch from rank " << i);
    std::memcpy(as_bytes(out) + recv_offsets[static_cast<std::size_t>(i)],
                info.payload.data(), n);
  }
}

std::vector<std::byte> Comm::alltoallv_bytes(
    const void* in, const std::vector<std::size_t>& send_bytes,
    std::vector<std::size_t>& recv_bytes) const {
  obs::Span span(ctx_->obs(), "mpi.alltoallv");
  obs::count(ctx_->obs(), "mpi.alltoallv.calls", 1.0);
  const int p = size();
  FCS_CHECK(static_cast<int>(send_bytes.size()) == p,
            "alltoallv needs one send size per rank");
  const std::uint64_t tag = next_collective_tag(kOpAlltoallv);

  // Exchange the counts (dense, Bruck), then run the known-size dense data
  // phase on them.
  std::vector<std::uint64_t> send_counts(send_bytes.begin(), send_bytes.end());
  std::vector<std::uint64_t> recv_counts(static_cast<std::size_t>(p));
  alltoall(send_counts.data(), 1, recv_counts.data());
  recv_bytes.assign(recv_counts.begin(), recv_counts.end());

  charge_dense_exchange(send_bytes, "mpi.alltoallv.bytes");
  std::vector<std::byte> out(
      std::accumulate(recv_bytes.begin(), recv_bytes.end(), std::size_t{0}));
  exchange_known(in, send_bytes, recv_bytes, out.data(), tag);
  return out;
}

void Comm::alltoallv_bytes_known(const void* in,
                                 const std::vector<std::size_t>& send_bytes,
                                 const std::vector<std::size_t>& recv_bytes,
                                 void* out) const {
  obs::Span span(ctx_->obs(), "mpi.alltoallv_known");
  obs::count(ctx_->obs(), "mpi.alltoallv_known.calls", 1.0);
  const int p = size();
  FCS_CHECK(static_cast<int>(send_bytes.size()) == p &&
                static_cast<int>(recv_bytes.size()) == p,
            "alltoallv_known needs one send and one recv size per rank");
  const std::uint64_t tag = next_collective_tag(kOpAlltoallv);
  // Same fabric model as the data phase of alltoallv_bytes; only the counts
  // transpose is gone because both sides already know the sizes.
  charge_dense_exchange(send_bytes, "mpi.alltoallv_known.bytes");
  exchange_known(in, send_bytes, recv_bytes, out, tag);
}

void Comm::sparse_alltoallv_bytes_known(
    const void* in, const std::vector<std::size_t>& send_bytes,
    const std::vector<std::size_t>& recv_bytes, void* out) const {
  obs::Span span(ctx_->obs(), "mpi.sparse_alltoallv_known");
  const int p = size();
  FCS_CHECK(static_cast<int>(send_bytes.size()) == p &&
                static_cast<int>(recv_bytes.size()) == p,
            "sparse_alltoallv_known needs one send and one recv size per rank");
  count_sparse(send_bytes, "mpi.sparse_alltoallv_known.calls",
               "mpi.sparse_alltoallv_known.bytes",
               "mpi.sparse_alltoallv_known.partners");
  const std::uint64_t tag = next_collective_tag(kOpSparse);
  // Both partner sets are known from the plan, so no NBX barrier is needed.
  exchange_known(in, send_bytes, recv_bytes, out, tag);
}

std::vector<std::byte> Comm::sparse_alltoallv_bytes(
    const void* in, const std::vector<std::size_t>& send_bytes,
    std::vector<std::size_t>& recv_bytes) const {
  obs::Span span(ctx_->obs(), "mpi.sparse_alltoallv");
  const int p = size();
  const int r = rank();
  FCS_CHECK(static_cast<int>(send_bytes.size()) == p,
            "sparse_alltoallv needs one send size per rank");
  count_sparse(send_bytes, "mpi.sparse_alltoallv.calls",
               "mpi.sparse_alltoallv.bytes", "mpi.sparse_alltoallv.partners");
  const std::uint64_t tag = next_collective_tag(kOpSparse);

  std::vector<std::size_t> send_offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i)
    send_offsets[static_cast<std::size_t>(i) + 1] =
        send_offsets[static_cast<std::size_t>(i)] + send_bytes[static_cast<std::size_t>(i)];

  recv_bytes.assign(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<std::byte>> incoming(static_cast<std::size_t>(p));
  if (send_bytes[static_cast<std::size_t>(r)] > 0) {
    incoming[static_cast<std::size_t>(r)].assign(
        as_bytes(in) + send_offsets[static_cast<std::size_t>(r)],
        as_bytes(in) + send_offsets[static_cast<std::size_t>(r) + 1]);
    recv_bytes[static_cast<std::size_t>(r)] = send_bytes[static_cast<std::size_t>(r)];
  }

  // NBX-style: post all non-empty sends, synchronize, then drain. Sends are
  // eager in this engine, so after the barrier every incoming message is
  // already in the mailbox.
  for (int i = 0; i < p; ++i) {
    if (i == r || send_bytes[static_cast<std::size_t>(i)] == 0) continue;
    ctx_->send(world_rank(i), tag,
               as_bytes(in) + send_offsets[static_cast<std::size_t>(i)],
               send_bytes[static_cast<std::size_t>(i)]);
  }
  barrier();
  while (ctx_->can_recv(sim::kAnySource, static_cast<std::int64_t>(tag))) {
    sim::RankCtx::RecvInfo info =
        ctx_->recv(sim::kAnySource, static_cast<std::int64_t>(tag));
    const auto src = static_cast<std::size_t>(comm_rank_of_world(info.src));
    FCS_CHECK(incoming[src].empty() || src == static_cast<std::size_t>(r),
              "duplicate sparse message from rank " << src);
    recv_bytes[src] = info.payload.size();
    incoming[src] = std::move(info.payload);
  }

  std::size_t total = 0;
  for (std::size_t b : recv_bytes) total += b;
  std::vector<std::byte> out(total);
  std::size_t pos = 0;
  for (int i = 0; i < p; ++i) {
    const auto& blk = incoming[static_cast<std::size_t>(i)];
    if (!blk.empty()) std::memcpy(out.data() + pos, blk.data(), blk.size());
    pos += blk.size();
  }
  return out;
}

}  // namespace mpi
