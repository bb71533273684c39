// Communicator-level scratch-buffer pool for the exchange path.
//
// Every redistribution primitive needs a packed send staging area (and the
// fused exchange additionally a receive staging area) whose size is stable
// across MD steps. Allocating them fresh each step is pure overhead, so each
// communicator keeps a small free list of byte buffers: acquire() hands out
// the best-fitting retained buffer and only touches the heap when no retained
// buffer is large enough. After a warm-up step the exchange path therefore
// performs zero heap allocations ("pool.alloc" stops growing - the
// allocation-regression test in tests/test_exchange_prop.cpp asserts this).
//
// A pool retains at most 16 buffers and 64 MiB of capacity by default (the
// constructor arguments); returns beyond either bound are dropped.
//
// Counters (per rank, epoch-attributed like all obs counters):
//   pool.acquire - buffer requests
//   pool.reuse   - requests served without any heap allocation
//   pool.alloc   - requests that had to allocate or grow heap capacity
//   pool.bytes   - bytes handed out
//   pool.bytes_hwm / pool.buffers_hwm - high-water marks of concurrently
//     outstanding bytes / buffers. Emitted as monotone increments (only the
//     delta past the previous mark is counted), so the exported counter total
//     equals the high-water mark itself - a gauge surfaced through the
//     counter pipeline.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/obs.hpp"

namespace mpi {

class BufferPool {
 public:
  explicit BufferPool(std::size_t max_buffers = 16,
                      std::size_t max_bytes = std::size_t{64} << 20)
      : max_buffers_(max_buffers), max_bytes_(max_bytes) {}

  /// A buffer with size() == bytes; capacity may be larger (reused buffer).
  std::vector<std::byte> acquire(std::size_t bytes, obs::RankObs* o);

  /// Return a buffer to the free list (dropped when the pool is full).
  void release(std::vector<std::byte>&& buf, obs::RankObs* o);

  /// Recovery: absorb the retained buffers of `other` - the pre-shrink
  /// communicator's pool - so the shrunk communicator's steady state stays
  /// allocation-free instead of re-growing from scratch. Buffers that were
  /// in flight when the failure hit were already returned to `other` by the
  /// RAII unwinding of the aborted exchange, so nothing leaks; each adopted
  /// buffer counts as "pool.reclaimed" (bytes as "pool.reclaimed_bytes").
  void adopt_from(BufferPool& other, obs::RankObs* o);

  std::size_t retained_buffers() const { return free_.size(); }
  std::size_t retained_bytes() const { return retained_bytes_; }

  /// High-water marks of concurrently outstanding acquisitions.
  std::size_t bytes_hwm() const { return hwm_bytes_; }
  std::size_t buffers_hwm() const { return hwm_buffers_; }

 private:
  std::vector<std::vector<std::byte>> free_;
  std::size_t max_buffers_;
  std::size_t max_bytes_;
  std::size_t retained_bytes_ = 0;
  std::size_t in_use_bytes_ = 0;
  std::size_t in_use_buffers_ = 0;
  std::size_t hwm_bytes_ = 0;
  std::size_t hwm_buffers_ = 0;
};

/// RAII guard: acquires on construction, releases on destruction.
class PooledBuffer {
 public:
  PooledBuffer(BufferPool& pool, std::size_t bytes, obs::RankObs* o)
      : pool_(&pool), o_(o), buf_(pool.acquire(bytes, o)) {}
  ~PooledBuffer() { pool_->release(std::move(buf_), o_); }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  std::byte* data() { return buf_.data(); }
  const std::byte* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }

 private:
  BufferPool* pool_;
  obs::RankObs* o_;
  std::vector<std::byte> buf_;
};

}  // namespace mpi
