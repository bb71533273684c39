#include "sortlib/carry.hpp"

#include <cstring>

#include "minimpi/buffer_pool.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace sortlib {

namespace {

// Fixed-width gather: the constant-size memcpy compiles to straight-line
// vector loads/stores (no per-row call, no alignment assumptions).
template <std::size_t W>
void gather_fixed(const std::byte* src, std::byte* dst,
                  const std::uint32_t* idx, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k)
    std::memcpy(dst + k * W, src + static_cast<std::size_t>(idx[k]) * W, W);
}

template <std::size_t W>
void scatter_fixed(const std::byte* src, std::byte* dst,
                   const std::uint32_t* idx, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k)
    std::memcpy(dst + static_cast<std::size_t>(idx[k]) * W, src + k * W, W);
}

}  // namespace

void gather_rows(const std::byte* src, std::byte* dst,
                 const std::uint32_t* idx, std::size_t n,
                 std::size_t item_bytes) {
  switch (item_bytes) {
    case 4: gather_fixed<4>(src, dst, idx, n); return;
    case 8: gather_fixed<8>(src, dst, idx, n); return;
    case 16: gather_fixed<16>(src, dst, idx, n); return;
    case 24: gather_fixed<24>(src, dst, idx, n); return;
    case 32: gather_fixed<32>(src, dst, idx, n); return;
    default:
      for (std::size_t k = 0; k < n; ++k)
        std::memcpy(dst + k * item_bytes,
                    src + static_cast<std::size_t>(idx[k]) * item_bytes,
                    item_bytes);
  }
}

void scatter_rows(const std::byte* src, std::byte* dst,
                  const std::uint32_t* idx, std::size_t n,
                  std::size_t item_bytes) {
  switch (item_bytes) {
    case 4: scatter_fixed<4>(src, dst, idx, n); return;
    case 8: scatter_fixed<8>(src, dst, idx, n); return;
    case 16: scatter_fixed<16>(src, dst, idx, n); return;
    case 24: scatter_fixed<24>(src, dst, idx, n); return;
    case 32: scatter_fixed<32>(src, dst, idx, n); return;
    default:
      for (std::size_t k = 0; k < n; ++k)
        std::memcpy(dst + static_cast<std::size_t>(idx[k]) * item_bytes,
                    src + k * item_bytes, item_bytes);
  }
}

void CarrySet::permute(const std::uint32_t* order, std::size_t n) {
  std::vector<std::byte> local;
  std::vector<std::byte>& buf = scratch != nullptr ? *scratch : local;
  for (CarryColumn& c : cols) {
    const std::size_t bytes = n * c.item_bytes;
    if (buf.size() < bytes) buf.resize(bytes);
    gather_rows(c.data, buf.data(), order, n, c.item_bytes);
    std::memcpy(c.data, buf.data(), bytes);
  }
}

void CarrySet::resize_rows(std::size_t n_rows) {
  for (CarryColumn& c : cols) c.data = c.resize(c.ctx, n_rows * c.item_bytes);
}

void carry_exchange(const mpi::Comm& comm, bool sparse,
                    const std::byte* items, std::size_t item_bytes,
                    std::size_t n_slots,
                    const std::vector<std::size_t>& dest_counts,
                    const std::uint32_t* slot_src, const std::uint32_t* col_src,
                    CarrySet& carry, std::vector<std::byte>& out_items) {
  const int p = comm.size();
  FCS_CHECK(static_cast<int>(dest_counts.size()) == p,
            "carry_exchange needs one destination count per rank");
  obs::RankObs* const o = comm.ctx().obs();
  obs::Span span(o, "redist.carry");
  obs::count(o, "redist.carry.exchanges", 1.0);

  const std::size_t row_bytes = item_bytes + carry.row_bytes();
  {
    std::size_t total = 0;
    for (std::size_t c : dest_counts) total += c;
    FCS_CHECK(total == n_slots, "carry_exchange: destination counts sum to "
                  << total << ", expected " << n_slots << " slots");
  }

  // Pack [items][col0][col1]... per destination block, in slot order.
  mpi::PooledBuffer packed(comm.pool(), n_slots * row_bytes, o);
  std::vector<std::size_t> send_bytes(static_cast<std::size_t>(p));
  std::size_t off = 0;       // byte offset of the current destination block
  std::size_t slot_off = 0;  // first slot of the current destination block
  for (int d = 0; d < p; ++d) {
    const std::size_t c_d = dest_counts[static_cast<std::size_t>(d)];
    send_bytes[static_cast<std::size_t>(d)] = c_d * row_bytes;
    // An empty block copies nothing, and its source or destination pointers
    // may be null (memcpy forbids null even for zero bytes).
    if (c_d == 0) continue;
    std::byte* dst = packed.data() + off;
    if (slot_src == nullptr)
      std::memcpy(dst, items + slot_off * item_bytes, c_d * item_bytes);
    else
      gather_rows(items, dst, slot_src + slot_off, c_d, item_bytes);
    dst += c_d * item_bytes;
    const std::uint32_t* csrc = col_src != nullptr ? col_src : slot_src;
    for (const CarryColumn& col : carry.cols) {
      if (csrc == nullptr)
        std::memcpy(dst, col.data + slot_off * col.item_bytes,
                    c_d * col.item_bytes);
      else
        gather_rows(col.data, dst, csrc + slot_off, c_d, col.item_bytes);
      dst += c_d * col.item_bytes;
    }
    off += c_d * row_bytes;
    slot_off += c_d;
  }

  std::vector<std::size_t> recv_bytes;
  std::vector<std::byte> raw =
      sparse ? comm.sparse_alltoallv_bytes(packed.data(), send_bytes,
                                           recv_bytes)
             : comm.alltoallv_bytes(packed.data(), send_bytes, recv_bytes);

  // Unpack: per source block, split the row stream back into items and
  // columns. The receive layout stays grouped by source in slot order.
  std::size_t n_recv = 0;
  for (std::size_t b : recv_bytes) {
    FCS_CHECK(b % row_bytes == 0,
              "carry_exchange: received " << b << " bytes, not a multiple of "
                  << row_bytes << " (mismatched column schema across ranks?)");
    n_recv += b / row_bytes;
  }
  out_items.resize(n_recv * item_bytes);
  carry.resize_rows(n_recv);

  std::size_t src_off = 0;  // byte offset into raw
  std::size_t row_off = 0;  // received row offset
  for (int s = 0; s < p; ++s) {
    const std::size_t c_s = recv_bytes[static_cast<std::size_t>(s)] / row_bytes;
    if (c_s == 0) continue;  // empty block (see the pack loop)
    const std::byte* blk = raw.data() + src_off;
    std::memcpy(out_items.data() + row_off * item_bytes, blk,
                c_s * item_bytes);
    blk += c_s * item_bytes;
    for (CarryColumn& col : carry.cols) {
      std::memcpy(col.data + row_off * col.item_bytes, blk,
                  c_s * col.item_bytes);
      blk += c_s * col.item_bytes;
    }
    src_off += recv_bytes[static_cast<std::size_t>(s)];
    row_off += c_s;
  }
}

}  // namespace sortlib
