// Carried-column exchanges: move per-particle payload columns WITH the
// particle records in one collective instead of a separate resort round.
//
// The fcs layer hands the fields an application staged into a method-B run
// (velocities, accelerations, extra payload - the caller's own vectors) to
// the solver as a CarrySet of byte-column views. When the solver
// redistributes its particle records it ships [items][col0][col1]... per
// destination in ONE alltoallv, and the separate method-B resort exchange
// disappears. The kernels here (gather_rows / scatter_rows / permute) are
// the width-specialized contiguous loops the rest of the redistribution
// stack reuses for packing and placement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "minimpi/comm.hpp"

namespace sortlib {

/// Gather rows: dst row k = src row idx[k], for n rows of item_bytes each.
/// Width-specialized for the common field widths (4/8/16/24/32 bytes) so the
/// inner loop is a fixed-size copy the compiler vectorizes; byte-identical
/// to the generic per-row memcpy for every width.
void gather_rows(const std::byte* src, std::byte* dst,
                 const std::uint32_t* idx, std::size_t n,
                 std::size_t item_bytes);

/// Scatter rows: dst row idx[k] = src row k. Inverse access pattern of
/// gather_rows, same width specialization.
void scatter_rows(const std::byte* src, std::byte* dst,
                  const std::uint32_t* idx, std::size_t n,
                  std::size_t item_bytes);

/// A non-owning view of one payload column travelling with the particles.
/// `resize` must grow/shrink the underlying storage to n_bytes bytes and
/// return the (possibly moved) base pointer; `data` is refreshed from it.
struct CarryColumn {
  std::byte* data = nullptr;
  std::size_t item_bytes = 0;
  void* ctx = nullptr;
  std::byte* (*resize)(void* ctx, std::size_t n_bytes) = nullptr;
};

/// Column view of a caller's vector holding `components` values of T per
/// row; resizing the column resizes the vector.
template <class T>
CarryColumn carry_column(std::vector<T>& values, std::size_t components) {
  static_assert(std::is_trivially_copyable_v<T>);
  return CarryColumn{reinterpret_cast<std::byte*>(values.data()),
                     components * sizeof(T), &values,
                     [](void* ctx, std::size_t n_bytes) {
                       auto* v = static_cast<std::vector<T>*>(ctx);
                       v->resize(n_bytes / sizeof(T));
                       return reinterpret_cast<std::byte*>(v->data());
                     }};
}

/// The set of columns attached to one redistribution. A plain view struct:
/// the column storage and the optional permute scratch stay owned by the
/// caller. Columns must not alias: permute() would reorder a shared buffer
/// once per view.
struct CarrySet {
  std::vector<CarryColumn> cols;
  /// Grow-only scratch for permute(); optional (a local buffer is used when
  /// null, which allocates once per call).
  std::vector<std::byte>* scratch = nullptr;

  bool empty() const { return cols.empty(); }
  /// Payload bytes per row across all columns.
  std::size_t row_bytes() const {
    std::size_t b = 0;
    for (const CarryColumn& c : cols) b += c.item_bytes;
    return b;
  }
  /// Reorder every column: new row k = old row order[k]. `n` must equal the
  /// current row count of every column.
  void permute(const std::uint32_t* order, std::size_t n);
  /// Resize every column to n_rows rows, refreshing the data pointers.
  void resize_rows(std::size_t n_rows);
};

/// One collective exchange moving `n_slots` item rows of `item_bytes` each
/// PLUS every carry column, grouped by destination rank. dest_counts[d] rows
/// go to rank d; the rows for rank d occupy slots [off_d, off_d + c_d) in
/// destination-major order. slot_src (when non-null) names the source item
/// row of each slot (identity otherwise); col_src names the source COLUMN
/// row of each slot (defaults to slot_src) - it differs when the item
/// stream duplicates rows (ghost copies) while the columns keep one row per
/// particle. On return `out_items` holds the received item rows and every
/// carry column is resized to the received row count, both grouped by
/// source rank in the sender's slot order - exactly the layout the
/// item-only alltoallv produces, so downstream merge/partition permutations
/// apply unchanged to items and columns alike.
void carry_exchange(const mpi::Comm& comm, bool sparse,
                    const std::byte* items, std::size_t item_bytes,
                    std::size_t n_slots,
                    const std::vector<std::size_t>& dest_counts,
                    const std::uint32_t* slot_src, const std::uint32_t* col_src,
                    CarrySet& carry, std::vector<std::byte>& out_items);

}  // namespace sortlib
