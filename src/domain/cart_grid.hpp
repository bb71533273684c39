// Cartesian grid decomposition of the simulation box.
//
// The P2NFFT-style solver distributes the particle system over a grid of
// processes (paper Figure 2, right); the target rank of a particle is a
// pure function of its position. The grid also computes which neighboring
// subdomains a particle near a boundary must be duplicated into as a ghost,
// given the solver's cutoff radius.
//
// By default the grid is uniform. The load-balancing layer (src/lb) can
// instead supply per-axis interior cut fractions, turning the grid into a
// rectilinear decomposition with cost-balanced plane positions; the uniform
// case keeps its original arithmetic bit-for-bit.
#pragma once

#include <algorithm>
#include <vector>

#include "domain/box.hpp"
#include "support/error.hpp"

namespace domain {

class CartGrid {
 public:
  CartGrid() = default;

  CartGrid(Box box, std::array<int, 3> dims) : box_(box), dims_(dims) {
    for (int d = 0; d < 3; ++d)
      FCS_CHECK(dims_[d] >= 1, "grid dimension must be >= 1");
  }

  /// Rectilinear grid: cuts[d] holds dims[d]-1 ascending interior cell
  /// boundaries as fractions of the box extent, each in (0, 1). An empty
  /// cuts vector selects the uniform spacing for that axis.
  CartGrid(Box box, std::array<int, 3> dims,
           std::array<std::vector<double>, 3> cuts)
      : box_(box), dims_(dims), cuts_(std::move(cuts)) {
    for (int d = 0; d < 3; ++d) {
      FCS_CHECK(dims_[d] >= 1, "grid dimension must be >= 1");
      const auto& c = cuts_[static_cast<std::size_t>(d)];
      if (c.empty()) continue;
      FCS_CHECK(static_cast<int>(c.size()) == dims_[d] - 1,
                "need dims-1 interior cuts per axis, got " << c.size());
      double prev = 0.0;
      for (double f : c) {
        FCS_CHECK(f > prev && f < 1.0,
                  "cuts must be strictly increasing inside (0, 1)");
        prev = f;
      }
    }
  }

  const Box& box() const { return box_; }
  const std::array<int, 3>& dims() const { return dims_; }
  int nranks() const { return dims_[0] * dims_[1] * dims_[2]; }

  std::array<int, 3> coords_of_rank(int rank) const {
    FCS_CHECK(rank >= 0 && rank < nranks(), "rank out of range");
    std::array<int, 3> c{};
    c[2] = rank % dims_[2];
    rank /= dims_[2];
    c[1] = rank % dims_[1];
    c[0] = rank / dims_[1];
    return c;
  }

  int rank_of_coords(std::array<int, 3> c) const {
    for (int d = 0; d < 3; ++d) {
      if (c[d] < 0 || c[d] >= dims_[d]) {
        if (!box_.periodic()[d]) return -1;
        c[d] = ((c[d] % dims_[d]) + dims_[d]) % dims_[d];
      }
    }
    return (c[0] * dims_[1] + c[1]) * dims_[2] + c[2];
  }

  /// Normalized lower face of cell c along axis d (c == dims yields 1).
  double cell_begin(int d, int c) const {
    if (c <= 0) return 0.0;
    if (c >= dims_[d]) return 1.0;
    const auto& cuts = cuts_[static_cast<std::size_t>(d)];
    return cuts.empty()
               ? static_cast<double>(c) / static_cast<double>(dims_[d])
               : cuts[static_cast<std::size_t>(c) - 1];
  }

  std::array<int, 3> cell_of_position(const Vec3& p) const {
    const Vec3 t = box_.normalized(p);
    std::array<int, 3> c{};
    for (int d = 0; d < 3; ++d) {
      const auto& cuts = cuts_[static_cast<std::size_t>(d)];
      if (cuts.empty()) {
        c[d] = static_cast<int>(t[d] * dims_[d]);
        if (c[d] >= dims_[d]) c[d] = dims_[d] - 1;
      } else {
        c[d] = static_cast<int>(
            std::upper_bound(cuts.begin(), cuts.end(), t[d]) - cuts.begin());
      }
    }
    return c;
  }

  int rank_of_position(const Vec3& p) const {
    return rank_of_coords(cell_of_position(p));
  }

  /// Lower and upper corner of a rank's subdomain.
  void subdomain(int rank, Vec3& lo, Vec3& hi) const {
    const auto c = coords_of_rank(rank);
    for (int d = 0; d < 3; ++d) {
      if (cuts_[static_cast<std::size_t>(d)].empty()) {
        const double w = box_.extent()[d] / dims_[d];
        lo[d] = box_.offset()[d] + c[d] * w;
        hi[d] = box_.offset()[d] + (c[d] + 1) * w;
      } else {
        lo[d] = box_.offset()[d] + cell_begin(d, c[d]) * box_.extent()[d];
        hi[d] = box_.offset()[d] + cell_begin(d, c[d] + 1) * box_.extent()[d];
      }
    }
  }

  /// Smallest cell side length per axis - the halo bound for ghost lookups.
  Vec3 min_cell_extent() const {
    Vec3 e;
    for (int d = 0; d < 3; ++d) {
      if (cuts_[static_cast<std::size_t>(d)].empty()) {
        e[d] = box_.extent()[d] / dims_[d];
      } else {
        double mn = 1.0;
        for (int c = 0; c < dims_[d]; ++c)
          mn = std::min(mn, cell_begin(d, c + 1) - cell_begin(d, c));
        e[d] = mn * box_.extent()[d];
      }
    }
    return e;
  }

  /// Ranks (other than the owner) whose subdomain, grown by `halo`, contains
  /// the position - i.e. the ranks that need a ghost copy of the particle.
  /// Only ranks within one grid cell of the owner are considered, so `halo`
  /// must not exceed the smallest cell extent (checked).
  std::vector<int> ghost_targets(const Vec3& p, double halo) const;

  /// One ghost copy the redistribution must create: target rank plus the
  /// periodic image shift to add to the particle position so it sits in the
  /// correct image relative to the target's subdomain.
  struct GhostImage {
    int rank;
    Vec3 shift;
  };

  /// All ghost copies of a particle (position must be wrapped into the box).
  /// Unlike ghost_targets(), each wrapped offset direction produces its own
  /// image, so a target (including the owner itself, for small grids) can
  /// legitimately appear multiple times with different shifts.
  std::vector<GhostImage> ghost_images(const Vec3& p, double halo) const;

 private:
  /// Distance of the (normalized) position to its cell's faces along axis
  /// d, in box units: sets `local` (offset above the lower face) and `w`
  /// (cell width). Uniform axes keep the original arithmetic bit-for-bit.
  void face_distances(int d, int cell, double t, double& local,
                      double& w) const;

  Box box_;
  std::array<int, 3> dims_{1, 1, 1};
  std::array<std::vector<double>, 3> cuts_;
};

}  // namespace domain
