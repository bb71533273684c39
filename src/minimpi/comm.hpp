// minimpi: an MPI-like message passing interface on top of the sim engine.
//
// The subset implemented here is exactly what the library issues: typed
// blocking point-to-point with tags and wildcards, Cartesian topologies
// (cart.hpp), the collectives the redistribution methods and solvers call,
// and one non-blocking operation (the known-size sparse exchange the
// overlapped fcs_run sends its slabs through). All collectives are built on
// point-to-point using the textbook algorithms (dissemination barrier,
// binomial tree bcast/reduce, distance-doubling allgather(v) and exscan,
// Bruck alltoall, direct partner exchange), so their virtual-time cost
// emerges from the network model instead of being postulated.
//
// Restrictions compared to real MPI (documented, asserted where cheap):
//  * data types must be trivially copyable,
//  * a communicator must not have user point-to-point traffic in flight
//    while a collective on the same communicator runs (BSP-style usage,
//    which is how the library uses it),
//  * ANY_TAG receives match any user message on the communicator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "minimpi/buffer_pool.hpp"
#include "sim/engine.hpp"
#include "support/error.hpp"

namespace mpi {

inline constexpr int kAnySource = sim::kAnySource;
inline constexpr int kAnyTag = -1;

/// Raised out of any communication call when a peer rank has been declared
/// dead (ULFM's MPI_ERR_PROC_FAILED) or the communicator was revoked
/// (failed_rank() == -1). See sim/engine.hpp and DESIGN.md §13.
using RankFailedError = sim::RankFailedError;

struct Status {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;

  template <class T>
  std::size_t count() const {
    FCS_CHECK(bytes % sizeof(T) == 0,
              "message size " << bytes << " is not a multiple of element size "
                              << sizeof(T));
    return bytes / sizeof(T);
  }
};

/// Reduction operators for the typed collectives.
struct OpSum {
  template <class T> T operator()(const T& a, const T& b) const { return a + b; }
};
struct OpMin {
  template <class T> T operator()(const T& a, const T& b) const { return b < a ? b : a; }
};
struct OpMax {
  template <class T> T operator()(const T& a, const T& b) const { return a < b ? b : a; }
};
/// Bitwise XOR, for order-independent integrity checksums (conservation
/// validation in src/redist). Integral types only.
struct OpXor {
  template <class T> T operator()(const T& a, const T& b) const {
    static_assert(std::is_integral_v<T>);
    return a ^ b;
  }
};

class Comm;

/// Result of Comm::shrink_recover (defined after Comm).
struct ShrinkResult;

namespace detail {
struct AsyncState;
}

/// Handle of a non-blocking exchange (Comm::isparse_alltoallv_bytes_known,
/// async.cpp). Its sends go to the simulated NIC at creation
/// (sim::RankCtx::send_async); it completes as its partner messages
/// physically arrive, and test() polls without blocking - which is what
/// lets a task graph overlap communication with compute in virtual time.
/// Handles are cheap shared references; copying is allowed and all copies
/// observe the same completion.
class Request {
 public:
  Request() = default;
  bool valid() const { return state_ != nullptr; }

  /// Non-blocking progress. Returns true when the operation has completed;
  /// the handle is then invalidated and `status` (when non-null) holds the
  /// result. Returns false - without advancing this rank's clock past the
  /// local processing cost of whatever did arrive - when completion still
  /// depends on in-flight messages.
  bool test(Status* status = nullptr);

  /// Block until completion, advancing this rank's virtual clock to the
  /// completion time, and invalidate the handle.
  Status wait();

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::AsyncState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::AsyncState> state_;
};

class Comm {
 public:
  /// The world communicator spanning all ranks of the engine.
  static Comm world(sim::RankCtx& ctx);

  Comm() = default;

  int rank() const { return my_rank_; }
  int size() const { return static_cast<int>(group_->world_ranks.size()); }
  sim::RankCtx& ctx() const { return *ctx_; }
  bool valid() const { return group_ != nullptr; }

  /// World rank of communicator rank r (exposed for the network-aware
  /// heuristics and diagnostics).
  int world_rank(int r) const;

  /// Communicator-level scratch-buffer pool (per rank, shared by all copies
  /// of this communicator). The redistribution layer stages packed exchange
  /// payloads here so steady-state steps allocate nothing (see
  /// buffer_pool.hpp).
  BufferPool& pool() const { return group_->pool; }

  // --- typed point-to-point ------------------------------------------------

  template <class T>
  void send(const T* data, std::size_t n, int dst, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(data, n * sizeof(T), dst, tag);
  }

  template <class T>
  Status recv(T* data, std::size_t max_n, int src, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return recv_bytes(data, max_n * sizeof(T), src, tag);
  }

  /// Receive of unknown size into a fresh vector.
  template <class T>
  std::vector<T> recv_vec(int src, int tag, Status* status = nullptr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    Status st{};
    std::vector<std::byte> raw = recv_bytes_vec(src, tag, &st);
    if (status != nullptr) *status = st;
    FCS_CHECK(raw.size() % sizeof(T) == 0, "received " << raw.size()
                  << " bytes, not a multiple of element size " << sizeof(T));
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  template <class T>
  void sendrecv(const T* send_data, std::size_t send_n, int dst, int send_tag,
                T* recv_data, std::size_t recv_max_n, int src, int recv_tag,
                Status* status = nullptr) const {
    send(send_data, send_n, dst, send_tag);
    Status st = recv(recv_data, recv_max_n, src, recv_tag);
    if (status != nullptr) *status = st;
  }

  // --- collectives ----------------------------------------------------------

  void barrier() const;

  template <class T>
  void bcast(T* data, std::size_t n, int root) const {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_bytes(data, n * sizeof(T), root);
  }

  template <class T, class Op>
  void reduce(const T* in, T* out, std::size_t n, int root, Op op) const {
    reduce_bytes(in, out, n, sizeof(T), root, make_combine<T, Op>(), &op);
  }

  template <class T, class Op>
  void allreduce(const T* in, T* out, std::size_t n, Op op) const {
    reduce(in, out, n, 0, op);
    bcast(out, n, 0);
  }

  /// Scalar convenience allreduce.
  template <class T, class Op>
  T allreduce(T value, Op op) const {
    T out{};
    allreduce(&value, &out, 1, op);
    return out;
  }

  template <class T>
  void allgather(const T* in, std::size_t n_each, T* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    allgather_bytes(in, n_each * sizeof(T), out);
  }

  /// allgatherv: rank r contributes counts[r] elements; `out` must hold
  /// sum(counts). `counts` must already be identical on all ranks (use
  /// allgather of the local count to build it).
  template <class T>
  void allgatherv(const T* in, const std::vector<std::size_t>& counts,
                  T* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::size_t> bytes(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
      bytes[i] = counts[i] * sizeof(T);
    allgatherv_bytes(in, bytes, out);
  }

  /// Dense alltoall with fixed block size (Bruck for small blocks, pairwise
  /// exchange for large ones).
  template <class T>
  void alltoall(const T* in, std::size_t n_each, T* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    alltoall_bytes(in, n_each * sizeof(T), out);
  }

  /// Dense alltoallv. send_counts[i] elements go to rank i; returns the
  /// received data grouped by source rank in recv_counts (resized).
  template <class T>
  std::vector<T> alltoallv(const T* in, const std::vector<std::size_t>& send_counts,
                           std::vector<std::size_t>& recv_counts) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::size_t> send_bytes(send_counts.size());
    for (std::size_t i = 0; i < send_counts.size(); ++i)
      send_bytes[i] = send_counts[i] * sizeof(T);
    std::vector<std::size_t> recv_bytes;
    std::vector<std::byte> raw = alltoallv_bytes(in, send_bytes, recv_bytes);
    recv_counts.resize(recv_bytes.size());
    for (std::size_t i = 0; i < recv_bytes.size(); ++i) {
      FCS_ASSERT(recv_bytes[i] % sizeof(T) == 0);
      recv_counts[i] = recv_bytes[i] / sizeof(T);
    }
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Sparse point-to-point exchange (NBX-style): only non-empty partner
  /// messages are sent; no dense collective latency is charged. This is the
  /// "neighborhood communication" path of the paper's method B with
  /// max-movement information.
  template <class T>
  std::vector<T> sparse_alltoallv(const T* in,
                                  const std::vector<std::size_t>& send_counts,
                                  std::vector<std::size_t>& recv_counts) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::size_t> send_bytes(send_counts.size());
    for (std::size_t i = 0; i < send_counts.size(); ++i)
      send_bytes[i] = send_counts[i] * sizeof(T);
    std::vector<std::size_t> recv_bytes;
    std::vector<std::byte> raw = sparse_alltoallv_bytes(in, send_bytes, recv_bytes);
    recv_counts.resize(recv_bytes.size());
    for (std::size_t i = 0; i < recv_bytes.size(); ++i)
      recv_counts[i] = recv_bytes[i] / sizeof(T);
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Exclusive prefix scan; rank 0 receives T{}. Hillis-Steele distance
  /// doubling.
  template <class T, class Op>
  T exscan(T value, Op op) const {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::Span span(ctx_->obs(), "mpi.scan");
    obs::count(ctx_->obs(), "mpi.scan.calls", 1.0);
    const int p = size();
    const int r = rank();
    T running = value;       // combined value of ranks [r - span + 1, r]
    T prefix{};              // combined value of ranks [0, r-1]
    bool have_prefix = false;
    const std::uint64_t tag = next_collective_tag(kOpScan);
    int round = 0;
    for (int span = 1; span < p; span <<= 1, ++round) {
      const int up = r + span;
      const int down = r - span;
      const std::uint64_t t = with_round(tag, round);
      if (up < p) ctx_->send(world_rank(up), t, &running, sizeof(T));
      if (down >= 0) {
        sim::RankCtx::RecvInfo info =
            ctx_->recv(world_rank(down), static_cast<std::int64_t>(t));
        FCS_CHECK(info.payload.size() == sizeof(T), "scan size mismatch");
        T incoming{};
        std::memcpy(&incoming, info.payload.data(), sizeof(T));
        running = op(incoming, running);
        prefix = have_prefix ? op(incoming, prefix) : incoming;
        have_prefix = true;
      }
    }
    return have_prefix ? prefix : T{};
  }

  /// Element-wise exclusive prefix scan over an array; out[i] on rank r is
  /// op-combined in[i] of ranks 0..r-1 (T{} on rank 0).
  template <class T, class Op>
  void exscan_v(const T* in, T* out, std::size_t n, Op op) const {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::Span span(ctx_->obs(), "mpi.exscan_v");
    obs::count(ctx_->obs(), "mpi.exscan_v.calls", 1.0);
    const int p = size();
    const int r = rank();
    std::vector<T> running(in, in + n);
    std::vector<T> prefix(n, T{});
    bool have_prefix = false;
    const std::uint64_t tag = next_collective_tag(kOpScan);
    int round = 0;
    for (int span = 1; span < p; span <<= 1, ++round) {
      const int up = r + span;
      const int down = r - span;
      const std::uint64_t t = with_round(tag, round);
      if (up < p) ctx_->send(world_rank(up), t, running.data(), n * sizeof(T));
      if (down >= 0) {
        sim::RankCtx::RecvInfo info =
            ctx_->recv(world_rank(down), static_cast<std::int64_t>(t));
        FCS_CHECK(info.payload.size() == n * sizeof(T), "exscan_v size mismatch");
        std::vector<T> incoming(n);
        if (n > 0) std::memcpy(incoming.data(), info.payload.data(), n * sizeof(T));
        for (std::size_t i = 0; i < n; ++i) {
          running[i] = op(incoming[i], running[i]);
          prefix[i] = have_prefix ? op(incoming[i], prefix[i]) : incoming[i];
        }
        have_prefix = true;
      }
    }
    std::copy(prefix.begin(), prefix.end(), out);
  }

  // --- rank-failure recovery (ULFM-style; implemented in recovery.cpp) ------

  /// Revoke (MPI_Comm_revoke): every live rank blocked in a receive wakes up
  /// and its next communication throws RankFailedError unless it is already
  /// in recovery mode. Idempotent per recovery round. The revocation is
  /// engine-wide (DESIGN.md §13): it revokes every communicator on the
  /// engine, not just this one's members.
  void revoke() const { ctx_->revoke(); }

  /// Fault-tolerant agreement on the failed subset of this communicator's
  /// members (the ULFM MPI_Comm_agree recipe): survivors push their local
  /// dead-set view to the lowest-ranked survivor they know of, which combines
  /// them and distributes the result. Safe to call while peers are dying; if
  /// the coordinator itself dies mid-protocol the survivors restart under the
  /// next one (see DESIGN.md §13 for the uniformity caveat). `generation`
  /// scopes the protocol's tags - the caller increments it per recovery
  /// round. Returns the failed members as ranks OF THIS communicator,
  /// ascending. Caller must already be in recovery mode.
  std::vector<int> agree_failures(std::uint64_t generation) const;

  /// ULFM shrink + cleanup, driven from a RankFailedError handler:
  /// acknowledges the pending revocation, agrees on the failed set, builds a
  /// dense survivor communicator with a deterministic fresh context id,
  /// moves the parent's retained scratch buffers into the new pool
  /// ("pool.reclaimed"), and purges every pending mailbox message that does
  /// not belong to the new context (flushing collectives aborted by the
  /// failure). All survivors of the parent communicator must call this with
  /// the same `generation`.
  ShrinkResult shrink_recover(std::uint64_t generation) const;

  // --- byte-level core (implemented in collectives.cpp / comm.cpp) ---------

  void send_bytes(const void* data, std::size_t bytes, int dst, int tag) const;
  Status recv_bytes(void* data, std::size_t capacity, int src, int tag) const;
  std::vector<std::byte> recv_bytes_vec(int src, int tag, Status* status) const;
  void bcast_bytes(void* data, std::size_t bytes, int root) const;
  void allgather_bytes(const void* in, std::size_t bytes_each, void* out) const;
  void allgatherv_bytes(const void* in, const std::vector<std::size_t>& bytes,
                        void* out) const;
  void alltoall_bytes(const void* in, std::size_t bytes_each, void* out) const;
  std::vector<std::byte> alltoallv_bytes(
      const void* in, const std::vector<std::size_t>& send_bytes,
      std::vector<std::size_t>& recv_bytes) const;
  std::vector<std::byte> sparse_alltoallv_bytes(
      const void* in, const std::vector<std::size_t>& send_bytes,
      std::vector<std::size_t>& recv_bytes) const;

  /// Dense data exchange with KNOWN per-source receive sizes (from a reusable
  /// redist::ExchangePlan): skips the counts transpose of alltoallv_bytes but
  /// is charged the same dense fabric latency and contention for the data
  /// movement. `out` must hold sum(recv_bytes); data lands grouped by source
  /// rank, exactly like alltoallv_bytes.
  void alltoallv_bytes_known(const void* in,
                             const std::vector<std::size_t>& send_bytes,
                             const std::vector<std::size_t>& recv_bytes,
                             void* out) const;

  /// Sparse exchange with KNOWN sizes: sends go straight to the non-empty
  /// partners and receives come straight from the known sources - no NBX
  /// barrier round, which is what makes a reused plan cheaper than
  /// sparse_alltoallv_bytes.
  void sparse_alltoallv_bytes_known(const void* in,
                                    const std::vector<std::size_t>& send_bytes,
                                    const std::vector<std::size_t>& recv_bytes,
                                    void* out) const;

  using CombineFn = void (*)(void* inout, const void* in, std::size_t count,
                             const void* op);
  void reduce_bytes(const void* in, void* out, std::size_t count,
                    std::size_t elem_size, int root, CombineFn combine,
                    const void* op) const;

  // --- non-blocking exchange (progress engine; async.cpp) ------------------

  /// Non-blocking sparse exchange with KNOWN sizes - the overlapped
  /// fcs_run's slab exchange. COLLECTIVE AT CREATION: every rank must create
  /// it at the same point of its collective call sequence (the tag sequence
  /// number is drawn there), but completion may be polled/waited at any
  /// later point, interleaved with other traffic on the same communicator.
  /// The payload is consumed at creation (sends capture it eagerly and
  /// charge the copy to the NIC timeline instead of the CPU clock); `out`
  /// must stay alive until completion. Bytes, message order and received
  /// contents are those of sparse_alltoallv_bytes_known; only the
  /// virtual-time accounting differs.
  Request isparse_alltoallv_bytes_known(
      const void* in, const std::vector<std::size_t>& send_bytes,
      const std::vector<std::size_t>& recv_bytes, void* out) const;

 private:
  struct Group {
    std::vector<int> world_ranks;   // comm rank -> engine rank
    std::uint64_t context_id = 0;
    // Lazily built inverse of world_ranks for O(1) source translation.
    mutable std::vector<std::pair<int, int>> world_to_comm_sorted;
    // Scratch buffers for the exchange path (per rank; Groups are not shared
    // across ranks). Mutable for the same reason as the index above: reusing
    // scratch does not change the communicator's observable state.
    mutable BufferPool pool;
  };

  /// Communicator rank of an engine (world) rank; O(log size).
  int comm_rank_of_world(int world) const;

  Comm(std::shared_ptr<Group> group, int my_rank, sim::RankCtx* ctx)
      : group_(std::move(group)), my_rank_(my_rank), ctx_(ctx) {}

  template <class T, class Op>
  static CombineFn make_combine() {
    return [](void* inout, const void* in, std::size_t count, const void* op) {
      T* a = static_cast<T*>(inout);
      const T* b = static_cast<const T*>(in);
      const Op& f = *static_cast<const Op*>(op);
      for (std::size_t i = 0; i < count; ++i) a[i] = f(a[i], b[i]);
    };
  }

  /// Counts one sparse exchange under the given counter names: the call,
  /// the bytes leaving this rank, and the partners they go to.
  void count_sparse(const std::vector<std::size_t>& send_bytes,
                    const char* calls, const char* bytes,
                    const char* partners) const;

  /// Data-phase fabric charge of a dense exchange: a real MPI_Alltoallv
  /// touches every pair even for empty blocks and contends for the fabric's
  /// bisection. Counts the bytes leaving this rank under `bytes_counter`,
  /// then advances the clock by the analytic cost.
  void charge_dense_exchange(const std::vector<std::size_t>& send_bytes,
                             const char* bytes_counter) const;

  /// Sending half of the data phase every known-size exchange shares:
  /// copies the self block into `out`, then sends each non-empty partner
  /// block eagerly - through the NIC timeline when `nic`, else on the CPU
  /// clock. Returns the receive offsets (size() + 1 entries): data lands
  /// in `out` grouped by source rank.
  std::vector<std::size_t> post_known(const void* in,
                                      const std::vector<std::size_t>& send_bytes,
                                      const std::vector<std::size_t>& recv_bytes,
                                      void* out, std::uint64_t tag,
                                      bool nic) const;

  /// The blocking data phase: post_known, then each expected partner
  /// message is received in ascending rank order. `out` holds
  /// sum(recv_bytes).
  void exchange_known(const void* in,
                      const std::vector<std::size_t>& send_bytes,
                      const std::vector<std::size_t>& recv_bytes, void* out,
                      std::uint64_t tag) const;

  // Internal tag construction: collective ops draw a fresh sequence number
  // per call (identical across ranks because calls are collective). The
  // codes of retired ops (gather, scatter, split) stay reserved, so every
  // tag keeps its value.
  enum InternalOp : std::uint64_t {
    kOpBarrier = 1, kOpBcast, kOpReduce, kOpGather, kOpScatter,
    kOpAllgather, kOpAlltoall, kOpAlltoallv, kOpSparse, kOpScan, kOpSplit,
  };
  std::uint64_t next_collective_tag(InternalOp op) const;
  std::uint64_t p2p_tag(int user_tag) const;
  /// Collectives with multiple rounds distinguish them in a dedicated field.
  static std::uint64_t with_round(std::uint64_t collective_tag, int round) {
    return collective_tag | (static_cast<std::uint64_t>(round) << 8);
  }

  std::shared_ptr<Group> group_;
  int my_rank_ = -1;
  sim::RankCtx* ctx_ = nullptr;
  mutable std::uint64_t collective_seq_ = 0;
};

struct ShrinkResult {
  Comm comm;                // dense survivor communicator
  std::vector<int> failed;  // failed ranks of the parent comm, ascending
};

}  // namespace mpi
