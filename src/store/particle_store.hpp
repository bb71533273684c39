// Columnar (SoA) particle store: positions, velocities, accelerations,
// Morton keys and registered extra fields live in separate contiguous,
// grow-only byte columns (pumi-pic / FDPS style).
//
// Layout and ownership:
//   - Every field is one column; all columns share the store's row count.
//   - Column buffers are grow-only: shrinking the row count keeps the
//     allocated capacity, so steady-state resize cycles allocate nothing.
//   - Column objects have stable addresses (the store hands out raw views
//     and CarryColumn callbacks that must survive column registration and
//     resizes; only the buffer contents move).
//
// Zero-copy seams:
//   - exchange_columns() exposes the payload columns (everything except
//     positions and Morton keys, which travel inside the solver's particle
//     records) as a sortlib::CarrySet, so a solver redistribution ships
//     them inside its own alltoallv (no separate resort round).
//   - ExchangePlan/FusedBatch consume columns through add_raw() views
//     (src/redist) - the store never re-packs into typed staging vectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "domain/vec3.hpp"
#include "redist/exchange_plan.hpp"
#include "sortlib/carry.hpp"
#include "store/field_registry.hpp"

namespace store {

class ParticleStore {
 public:
  /// Builtin field ids, registered by the constructor in this order.
  static constexpr std::size_t kPos = 0;
  static constexpr std::size_t kVel = 1;
  static constexpr std::size_t kAcc = 2;
  static constexpr std::size_t kKey = 3;

  ParticleStore();

  /// Register an extra field. Only allowed while the store is empty: fields
  /// register once per run, before particles are loaded.
  std::size_t register_field(std::string_view name, FieldType type,
                             std::size_t components = 1);

  const FieldRegistry& registry() const { return registry_; }
  std::size_t field_count() const { return registry_.size(); }
  std::size_t size() const { return n_rows_; }

  /// Resize every column to n rows. Grow-only allocation: shrinking keeps
  /// the capacity. New rows are zero-initialized.
  void resize(std::size_t n);

  /// Allocated bytes of a column's buffer (diagnostics / the fuzz driver's
  /// grow-only capacity assertions).
  std::size_t capacity_bytes(std::size_t id) const;

  std::size_t item_bytes(std::size_t id) const;
  std::byte* raw(std::size_t id);
  const std::byte* raw(std::size_t id) const;

  /// Typed column view; the element width must match the field's component
  /// width (e.g. view<double> on a kF64 field, view<Vec3> on a kVec3 one).
  template <class T>
  T* view(std::size_t id) {
    check_view(id, sizeof(T));
    return reinterpret_cast<T*>(raw(id));
  }
  template <class T>
  const T* view(std::size_t id) const {
    check_view(id, sizeof(T));
    return reinterpret_cast<const T*>(raw(id));
  }

  domain::Vec3* pos() { return view<domain::Vec3>(kPos); }
  domain::Vec3* vel() { return view<domain::Vec3>(kVel); }
  domain::Vec3* acc() { return view<domain::Vec3>(kAcc); }
  std::uint64_t* keys() { return view<std::uint64_t>(kKey); }
  const domain::Vec3* pos() const { return view<domain::Vec3>(kPos); }
  const domain::Vec3* vel() const { return view<domain::Vec3>(kVel); }
  const domain::Vec3* acc() const { return view<domain::Vec3>(kAcc); }
  const std::uint64_t* keys() const { return view<std::uint64_t>(kKey); }

  /// Reorder every column by `order` (new row k = old row order[k]); n must
  /// equal the current row count.
  void permute(const std::uint32_t* order, std::size_t n);

  /// Carried-exchange view of every column EXCEPT positions and Morton keys
  /// (those travel inside the solver's particle records). The returned set
  /// stays valid until the next resize/registration; its scratch buffer is
  /// the store's (grow-only).
  sortlib::CarrySet& exchange_columns();

  /// Number of columns exchange_columns() exposes (every field except the
  /// built-in position and Morton-key columns).
  std::size_t payload_fields() const { return registry_.size() - 2; }

  /// Queue every payload column into a fused resort batch as a zero-copy
  /// raw segment (redist::FusedBatch::add_raw); the batch's execute/async
  /// cycle then reshapes the columns in place.
  void stage_into(redist::FusedBatch& batch);

  /// Undo a carried exchange (capacity fallback after the solver already
  /// shipped the columns): send every payload row back to its origin
  /// (rank, position) with one redist::resort_rows exchange per column.
  /// `origin` has one entry per current row.
  void restore_payload(const mpi::Comm& comm,
                       const std::vector<std::uint64_t>& origin,
                       std::size_t n_original, redist::ExchangeKind kind);

 private:
  struct Column {
    std::vector<std::byte> buf;
    std::size_t item_bytes = 0;
  };
  static std::byte* column_resize(void* ctx, std::size_t n_rows);
  static std::byte* column_resize_bytes(void* ctx, std::size_t n_bytes);
  void check_view(std::size_t id, std::size_t elem_bytes) const;

  FieldRegistry registry_;
  std::vector<std::unique_ptr<Column>> cols_;
  std::size_t n_rows_ = 0;
  sortlib::CarrySet carry_;
  std::vector<std::byte> scratch_;
};

}  // namespace store
