#include "redist/resort.hpp"

#include <algorithm>
#include <cstring>

namespace redist {

ResortPlan ResortPlan::build(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& resort_indices,
    const std::vector<std::uint64_t>& origin_of_current, ExchangeKind kind) {
  const int p = comm.size();
  ResortPlan rp;
  rp.plan_ = ExchangePlan::build(
      comm, resort_indices.size(),
      [&](std::size_t i, std::vector<int>& targets) {
        targets.push_back(index_rank(resort_indices[i]));
      },
      kind);

  // Receive side: sorting the origin indices (source-rank-major, ascending
  // source position within a rank) reproduces the order in which the plan's
  // slots arrive. The sort also proves the inverse-permutation invariant:
  // a duplicated origin index means two current elements claim the same
  // original particle.
  FCS_CHECK(origin_of_current.size() <= 0xffffffffULL,
            "more than 2^32 local particles");
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(origin_of_current.size());
  for (std::size_t j = 0; j < origin_of_current.size(); ++j)
    order.emplace_back(origin_of_current[j], static_cast<std::uint32_t>(j));
  std::sort(order.begin(), order.end());

  std::vector<std::size_t> recv_counts(static_cast<std::size_t>(p), 0);
  rp.placement_.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const int src = index_rank(order[k].first);
    FCS_CHECK(src >= 0 && src < p,
              "origin index names invalid rank " << src);
    FCS_CHECK(k == 0 || order[k].first != order[k - 1].first,
              "resort plan: duplicate origin index "
                  << order[k].first << " (resort indices are not an inverse "
                  "permutation)");
    ++recv_counts[static_cast<std::size_t>(src)];
    rp.placement_[k] = order[k].second;
  }
  rp.plan_.set_recv_counts(std::move(recv_counts));
  rp.valid_ = true;
  obs::count(comm.ctx().obs(), "redist.resort_plan.builds", 1.0);
  return rp;
}

std::vector<std::uint64_t> consecutive_origin_indices(int rank,
                                                      std::size_t n) {
  FCS_CHECK(n <= 0xffffffffULL, "more than 2^32 local particles");
  std::vector<std::uint64_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = make_index(rank, i);
  return indices;
}

std::vector<std::uint64_t> invert_origin_indices(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& origin_of_current,
    std::size_t n_original, ExchangeKind kind) {
  struct Packet {
    std::uint64_t origin;   // where the particle came from
    std::uint64_t current;  // where it is now
  };
  std::vector<Packet> packets;
  packets.reserve(origin_of_current.size());
  for (std::size_t i = 0; i < origin_of_current.size(); ++i)
    packets.push_back(
        Packet{origin_of_current[i], make_index(comm.rank(), i)});

  std::vector<Packet> received = fine_grained_redistribute(
      comm, packets,
      [](const Packet& pk, std::size_t, std::vector<int>& targets) {
        targets.push_back(index_rank(pk.origin));
      },
      kind);

  FCS_CHECK(received.size() == n_original,
            "invert: expected " << n_original << " indices, received "
                                << received.size());
  std::vector<std::uint64_t> resort_indices(n_original, ~std::uint64_t{0});
  for (const Packet& pk : received) {
    const std::uint32_t pos = index_pos(pk.origin);
    FCS_CHECK(pos < n_original, "invert: origin position out of range");
    FCS_CHECK(resort_indices[pos] == ~std::uint64_t{0},
              "invert: duplicate origin position " << pos);
    resort_indices[pos] = pk.current;
  }
  return resort_indices;
}

void resort_rows(const mpi::Comm& comm,
                 const std::vector<std::uint64_t>& indices,
                 const std::byte* data, std::size_t item_bytes,
                 std::size_t n_out, ExchangeKind kind, std::byte* out) {
  const int p = comm.size();
  const std::size_t elem_bytes = sizeof(std::uint32_t) + item_bytes;

  std::vector<std::size_t> send_bytes(static_cast<std::size_t>(p), 0);
  for (std::uint64_t idx : indices) {
    const int r = index_rank(idx);
    FCS_CHECK(r >= 0 && r < p, "resort index names invalid rank " << r);
    send_bytes[static_cast<std::size_t>(r)] += elem_bytes;
  }
  std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int d = 0; d < p; ++d)
    offsets[static_cast<std::size_t>(d) + 1] =
        offsets[static_cast<std::size_t>(d)] +
        send_bytes[static_cast<std::size_t>(d)];
  std::vector<std::byte> packed(offsets.back());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::uint64_t idx = indices[i];
    std::size_t& c = cursor[static_cast<std::size_t>(index_rank(idx))];
    const std::uint32_t pos = index_pos(idx);
    std::memcpy(packed.data() + c, &pos, sizeof pos);
    std::memcpy(packed.data() + c + sizeof pos, data + i * item_bytes,
                item_bytes);
    c += elem_bytes;
  }

  std::vector<std::size_t> recv_bytes;
  std::vector<std::byte> received =
      kind == ExchangeKind::kDense
          ? comm.alltoallv_bytes(packed.data(), send_bytes, recv_bytes)
          : comm.sparse_alltoallv_bytes(packed.data(), send_bytes, recv_bytes);
  if (comm.ctx().config().validate)
    validate_exchange(
        comm, "resort_values", packed.size() / elem_bytes,
        content_checksum(packed.data(), packed.size() / elem_bytes, elem_bytes),
        received.size() / elem_bytes,
        content_checksum(received.data(), received.size() / elem_bytes,
                         elem_bytes));

  FCS_CHECK(received.size() == n_out * elem_bytes,
            "resort: expected " << n_out << " packets, received "
                                << received.size() / elem_bytes);
  std::vector<char> filled(n_out, 0);
  for (std::size_t off = 0; off < received.size(); off += elem_bytes) {
    std::uint32_t pos = 0;
    std::memcpy(&pos, received.data() + off, sizeof pos);
    FCS_CHECK(pos < n_out, "resort: target position " << pos
                  << " out of range " << n_out);
    FCS_CHECK(!filled[pos], "resort: duplicate packet for position " << pos);
    filled[pos] = 1;
    std::memcpy(out + pos * item_bytes, received.data() + off + sizeof pos,
                item_bytes);
  }
}

}  // namespace redist
