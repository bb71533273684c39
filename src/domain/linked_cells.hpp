// Linked-cell neighbor search for short-range (cutoff) interactions.
//
// Positions (owned particles followed by ghosts) are binned into cells of at
// least the cutoff radius; all pairs within the cutoff are then found by
// scanning each cell against its 26 neighbors. Used by the particle-mesh
// solver's real-space part and by test oracles.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "domain/box.hpp"
#include "support/error.hpp"

namespace domain {

class LinkedCells {
 public:
  /// Bins `positions` into cells over the axis-aligned region [lo, hi).
  /// Positions may lie slightly outside (ghosts); they are clamped into the
  /// boundary cells.
  LinkedCells(const Vec3& lo, const Vec3& hi, double cell_size,
              const std::vector<Vec3>& positions);

  /// Visit every unordered pair (i, j), i < j, whose distance is below
  /// `cutoff` (plain Euclidean distance; periodic wrapping is the caller's
  /// business via ghost particles). f(i, j, delta = pos[i] - pos[j], r2).
  template <class F>
  void for_each_pair_within(double cutoff, F f) const {
    FCS_CHECK(cutoff <= cell_size_ + 1e-12,
              "cutoff " << cutoff << " exceeds the cell size " << cell_size_);
    const double cutoff2 = cutoff * cutoff;
    std::array<int, 3> c{};
    for (c[0] = 0; c[0] < ncells_[0]; ++c[0])
      for (c[1] = 0; c[1] < ncells_[1]; ++c[1])
        for (c[2] = 0; c[2] < ncells_[2]; ++c[2]) {
          const int base = cell_index(c);
          // Pairs within the cell.
          for (int i = cell_start_[base]; i >= 0; i = next_[i])
            for (int j = next_[i]; j >= 0; j = next_[j])
              emit_pair(i, j, cutoff2, f);
          // Pairs against forward half of the neighbor stencil (each cell
          // pair visited once).
          for (const auto& off : kForwardStencil) {
            std::array<int, 3> n = {c[0] + off[0], c[1] + off[1],
                                    c[2] + off[2]};
            if (n[0] < 0 || n[0] >= ncells_[0] || n[1] < 0 ||
                n[1] >= ncells_[1] || n[2] < 0 || n[2] >= ncells_[2])
              continue;
            const int other = cell_index(n);
            for (int i = cell_start_[base]; i >= 0; i = next_[i])
              for (int j = cell_start_[other]; j >= 0; j = next_[j])
                emit_pair(i, j, cutoff2, f);
          }
        }
  }

  /// Visit every j != i with |pos[j] - pos[i]| < cutoff.
  template <class F>
  void for_each_neighbor_of(std::size_t i, double cutoff, F f) const {
    const double cutoff2 = cutoff * cutoff;
    const std::array<int, 3> c = cell_of(positions_[i]);
    for (int dx = -1; dx <= 1; ++dx)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dz = -1; dz <= 1; ++dz) {
          std::array<int, 3> n = {c[0] + dx, c[1] + dy, c[2] + dz};
          if (n[0] < 0 || n[0] >= ncells_[0] || n[1] < 0 ||
              n[1] >= ncells_[1] || n[2] < 0 || n[2] >= ncells_[2])
            continue;
          for (int j = cell_start_[cell_index(n)]; j >= 0; j = next_[j]) {
            if (static_cast<std::size_t>(j) == i) continue;
            const Vec3 d = positions_[j] - positions_[i];
            const double r2 = d.norm2();
            if (r2 < cutoff2) f(static_cast<std::size_t>(j), d, r2);
          }
        }
  }

  double cell_size() const { return cell_size_; }

 private:
  static constexpr std::array<std::array<int, 3>, 13> kForwardStencil = {{
      // Half of the 26 neighbors; lexicographically positive offsets.
      {{0, 0, 1}},
      {{0, 1, -1}},
      {{0, 1, 0}},
      {{0, 1, 1}},
      {{1, -1, -1}},
      {{1, -1, 0}},
      {{1, -1, 1}},
      {{1, 0, -1}},
      {{1, 0, 0}},
      {{1, 0, 1}},
      {{1, 1, -1}},
      {{1, 1, 0}},
      {{1, 1, 1}},
  }};

  template <class F>
  void emit_pair(int i, int j, double cutoff2, F& f) const {
    const Vec3 d = positions_[static_cast<std::size_t>(i)] -
                   positions_[static_cast<std::size_t>(j)];
    const double r2 = d.norm2();
    if (r2 < cutoff2)
      f(static_cast<std::size_t>(i), static_cast<std::size_t>(j), d, r2);
  }

  int cell_index(const std::array<int, 3>& c) const {
    return (c[0] * ncells_[1] + c[1]) * ncells_[2] + c[2];
  }

  std::array<int, 3> cell_of(const Vec3& p) const;

  Vec3 lo_, hi_;
  double cell_size_ = 0.0;
  std::array<int, 3> ncells_{1, 1, 1};
  std::vector<Vec3> positions_;
  std::vector<int> cell_start_;  // head of per-cell singly linked list
  std::vector<int> next_;        // next particle in the same cell, or -1
};

}  // namespace domain
