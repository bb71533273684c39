#include "minimpi/buffer_pool.hpp"

#include <algorithm>
#include <utility>

namespace mpi {

std::vector<std::byte> BufferPool::acquire(std::size_t bytes,
                                           obs::RankObs* o) {
  obs::count(o, "pool.acquire", 1.0);
  obs::count(o, "pool.bytes", static_cast<double>(bytes));
  if (bytes == 0) return {};

  // Outstanding-usage gauges: count only the climb past the previous mark,
  // so the counter's exported total equals the high-water mark.
  in_use_bytes_ += bytes;
  ++in_use_buffers_;
  if (in_use_bytes_ > hwm_bytes_) {
    obs::count(o, "pool.bytes_hwm",
               static_cast<double>(in_use_bytes_ - hwm_bytes_));
    hwm_bytes_ = in_use_bytes_;
  }
  if (in_use_buffers_ > hwm_buffers_) {
    obs::count(o, "pool.buffers_hwm",
               static_cast<double>(in_use_buffers_ - hwm_buffers_));
    hwm_buffers_ = in_use_buffers_;
  }

  // Best fit: the smallest retained buffer whose capacity suffices.
  std::size_t best = free_.size();
  std::size_t largest = free_.size();
  for (std::size_t i = 0; i < free_.size(); ++i) {
    const std::size_t cap = free_[i].capacity();
    if (cap >= bytes && (best == free_.size() || cap < free_[best].capacity()))
      best = i;
    if (largest == free_.size() || cap > free_[largest].capacity())
      largest = i;
  }
  // No fit: grow the largest retained buffer instead of allocating fresh, so
  // a workload with slowly growing messages converges to one big buffer.
  const std::size_t take = best != free_.size() ? best : largest;
  std::vector<std::byte> buf;
  if (take != free_.size()) {
    buf = std::move(free_[take]);
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(take));
    retained_bytes_ -= buf.capacity();
  }
  if (buf.capacity() >= bytes) {
    obs::count(o, "pool.reuse", 1.0);
  } else {
    obs::count(o, "pool.alloc", 1.0);
    // Round the new capacity up to a power of two: fluctuating message sizes
    // settle into a capacity class after a handful of steps instead of
    // re-growing on every new high-water mark.
    std::size_t cap2 = 256;
    while (cap2 < bytes) cap2 *= 2;
    buf.reserve(cap2);
  }
  buf.resize(bytes);
  return buf;
}

void BufferPool::adopt_from(BufferPool& other, obs::RankObs* o) {
  if (&other == this) return;
  std::size_t adopted = 0;
  std::size_t adopted_bytes = 0;
  while (!other.free_.empty()) {
    std::vector<std::byte> buf = std::move(other.free_.back());
    other.free_.pop_back();
    const std::size_t cap = buf.capacity();
    other.retained_bytes_ -= std::min(other.retained_bytes_, cap);
    if (free_.size() >= max_buffers_ || retained_bytes_ + cap > max_bytes_)
      continue;  // over budget here: let the buffer free itself
    retained_bytes_ += cap;
    free_.push_back(std::move(buf));
    ++adopted;
    adopted_bytes += cap;
  }
  if (adopted > 0) {
    obs::count(o, "pool.reclaimed", static_cast<double>(adopted));
    obs::count(o, "pool.reclaimed_bytes", static_cast<double>(adopted_bytes));
  }
}

void BufferPool::release(std::vector<std::byte>&& buf, obs::RankObs* o) {
  (void)o;
  const std::size_t cap = buf.capacity();
  if (cap == 0) return;
  in_use_bytes_ -= std::min(in_use_bytes_, buf.size());
  if (in_use_buffers_ > 0) --in_use_buffers_;
  if (free_.size() >= max_buffers_ || retained_bytes_ + cap > max_bytes_)
    return;  // pool full: let the buffer free itself
  retained_bytes_ += cap;
  free_.push_back(std::move(buf));
}

}  // namespace mpi
