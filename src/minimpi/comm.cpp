#include "minimpi/comm.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace mpi {

namespace {

// Tag layout (64 bit):
//   [63:44] communicator context id (20 bits)
//   [43]    1 for internal collective traffic, 0 for user point-to-point
//   [42:16] collective sequence number (27 bits)
//   [15:8]  collective round
//   [7:0]   collective op code  -- or, for p2p, [30:0] = user tag
constexpr std::uint64_t kCollectiveBit = 1ULL << 43;
constexpr int kMaxUserTag = (1 << 30) - 1;

}  // namespace

Comm Comm::world(sim::RankCtx& ctx) {
  auto group = std::make_shared<Group>();
  group->world_ranks.resize(static_cast<std::size_t>(ctx.nranks()));
  for (int r = 0; r < ctx.nranks(); ++r)
    group->world_ranks[static_cast<std::size_t>(r)] = r;
  group->context_id = 0;
  return Comm(std::move(group), ctx.rank(), &ctx);
}

int Comm::world_rank(int r) const {
  FCS_CHECK(r >= 0 && r < size(), "rank " << r << " out of range");
  return group_->world_ranks[static_cast<std::size_t>(r)];
}

std::uint64_t Comm::p2p_tag(int user_tag) const {
  FCS_CHECK(user_tag >= 0 && user_tag <= kMaxUserTag,
            "user tag " << user_tag << " out of range");
  return (group_->context_id << 44) | static_cast<std::uint64_t>(user_tag);
}

std::uint64_t Comm::next_collective_tag(InternalOp op) const {
  const std::uint64_t seq = collective_seq_++;
  return (group_->context_id << 44) | kCollectiveBit |
         ((seq & 0x7ffffff) << 16) | static_cast<std::uint64_t>(op);
}

int Comm::comm_rank_of_world(int world) const {
  auto& index = group_->world_to_comm_sorted;
  if (index.empty()) {
    index.reserve(group_->world_ranks.size());
    for (std::size_t i = 0; i < group_->world_ranks.size(); ++i)
      index.emplace_back(group_->world_ranks[i], static_cast<int>(i));
    std::sort(index.begin(), index.end());
  }
  auto it = std::lower_bound(index.begin(), index.end(),
                             std::make_pair(world, -1));
  FCS_CHECK(it != index.end() && it->first == world,
            "engine rank " << world << " is not part of this communicator");
  return it->second;
}

void Comm::send_bytes(const void* data, std::size_t bytes, int dst,
                      int tag) const {
  if (obs::RankObs* const o = ctx_->obs(); o != nullptr) {
    o->add("mpi.p2p.msgs", 1.0);
    o->add("mpi.p2p.bytes", static_cast<double>(bytes));
  }
  ctx_->send(world_rank(dst), p2p_tag(tag), data, bytes);
}

Status Comm::recv_bytes(void* data, std::size_t capacity, int src,
                        int tag) const {
  const int world_src = src == kAnySource ? sim::kAnySource : world_rank(src);
  const std::int64_t t =
      tag == kAnyTag ? sim::kAnyTag : static_cast<std::int64_t>(p2p_tag(tag));
  sim::RankCtx::RecvInfo info = ctx_->recv(world_src, t);
  FCS_CHECK(info.payload.size() <= capacity,
            "receive buffer too small: message has " << info.payload.size()
                << " bytes, buffer holds " << capacity);
  if (!info.payload.empty())
    std::memcpy(data, info.payload.data(), info.payload.size());
  Status st;
  st.source = src == kAnySource ? info.src : src;  // world==comm rank only for
  st.tag = static_cast<int>(info.tag & 0x7fffffff);
  st.bytes = info.payload.size();
  if (src == kAnySource) st.source = comm_rank_of_world(info.src);
  return st;
}

std::vector<std::byte> Comm::recv_bytes_vec(int src, int tag,
                                            Status* status) const {
  const int world_src = src == kAnySource ? sim::kAnySource : world_rank(src);
  const std::int64_t t =
      tag == kAnyTag ? sim::kAnyTag : static_cast<std::int64_t>(p2p_tag(tag));
  sim::RankCtx::RecvInfo info = ctx_->recv(world_src, t);
  if (status != nullptr) {
    status->tag = static_cast<int>(info.tag & 0x7fffffff);
    status->bytes = info.payload.size();
    status->source = src == kAnySource ? comm_rank_of_world(info.src) : src;
  }
  return std::move(info.payload);
}

}  // namespace mpi
