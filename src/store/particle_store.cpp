#include "store/particle_store.hpp"

#include "redist/resort.hpp"
#include "support/error.hpp"

namespace store {

ParticleStore::ParticleStore() {
  register_field("pos", FieldType::kVec3);
  register_field("vel", FieldType::kVec3);
  register_field("acc", FieldType::kVec3);
  register_field("key", FieldType::kU64);
}

std::size_t ParticleStore::register_field(std::string_view name,
                                          FieldType type,
                                          std::size_t components) {
  FCS_CHECK(n_rows_ == 0, "field '" << std::string(name)
                << "' registered while the store holds " << n_rows_
                << " rows (fields register once per run, before loading)");
  const std::size_t id = registry_.add(name, type, components);
  auto col = std::make_unique<Column>();
  col->item_bytes = registry_.spec(id).item_bytes;
  cols_.push_back(std::move(col));
  return id;
}

void ParticleStore::resize(std::size_t n) {
  FCS_CHECK(n <= 0xffffffffULL, "particle store limited to 2^32 rows");
  for (auto& col : cols_) col->buf.resize(n * col->item_bytes);
  n_rows_ = n;
}

std::size_t ParticleStore::capacity_bytes(std::size_t id) const {
  registry_.spec(id);
  return cols_[id]->buf.capacity();
}

std::size_t ParticleStore::item_bytes(std::size_t id) const {
  return registry_.spec(id).item_bytes;
}

std::byte* ParticleStore::raw(std::size_t id) {
  registry_.spec(id);
  return cols_[id]->buf.data();
}

const std::byte* ParticleStore::raw(std::size_t id) const {
  registry_.spec(id);
  return cols_[id]->buf.data();
}

void ParticleStore::check_view(std::size_t id, std::size_t elem_bytes) const {
  const FieldSpec& spec = registry_.spec(id);
  FCS_CHECK(field_type_bytes(spec.type) == elem_bytes,
            "typed view of field '" << spec.name << "' ("
                << field_type_name(spec.type) << ", "
                << field_type_bytes(spec.type) << "-byte components) with a "
                << elem_bytes << "-byte element type");
}

void ParticleStore::permute(const std::uint32_t* order, std::size_t n) {
  FCS_CHECK(n == n_rows_, "permutation of " << n << " rows on a store of "
                << n_rows_ << " rows");
  sortlib::CarrySet all;
  all.scratch = &scratch_;
  for (auto& col : cols_)
    all.cols.push_back(sortlib::CarryColumn{col->buf.data(), col->item_bytes,
                                            col.get(), &column_resize});
  all.permute(order, n);
}

std::byte* ParticleStore::column_resize(void* ctx, std::size_t n_rows) {
  auto* col = static_cast<Column*>(ctx);
  col->buf.resize(n_rows * col->item_bytes);
  return col->buf.data();
}

std::byte* ParticleStore::column_resize_bytes(void* ctx, std::size_t n_bytes) {
  auto* col = static_cast<Column*>(ctx);
  col->buf.resize(n_bytes);
  return col->buf.data();
}

void ParticleStore::stage_into(redist::FusedBatch& batch) {
  for (std::size_t id = 0; id < cols_.size(); ++id) {
    if (id == kPos || id == kKey) continue;
    batch.add_raw(cols_[id]->buf.data(), cols_[id]->item_bytes,
                  cols_[id].get(), &column_resize_bytes);
  }
}

void ParticleStore::restore_payload(const mpi::Comm& comm,
                                    const std::vector<std::uint64_t>& origin,
                                    std::size_t n_original,
                                    redist::ExchangeKind kind) {
  std::vector<std::byte> out;
  for (std::size_t id = 0; id < cols_.size(); ++id) {
    if (id == kPos || id == kKey) continue;
    out.resize(n_original * cols_[id]->item_bytes);
    redist::resort_rows(comm, origin, cols_[id]->buf.data(),
                        cols_[id]->item_bytes, n_original, kind, out.data());
    cols_[id]->buf.swap(out);
  }
}

sortlib::CarrySet& ParticleStore::exchange_columns() {
  carry_.cols.clear();
  carry_.scratch = &scratch_;
  for (std::size_t id = 0; id < cols_.size(); ++id) {
    if (id == kPos || id == kKey) continue;
    carry_.cols.push_back(sortlib::CarryColumn{cols_[id]->buf.data(),
                                               cols_[id]->item_bytes,
                                               cols_[id].get(),
                                               &column_resize});
  }
  return carry_;
}

}  // namespace store
