// Host-time probes of the layers that run inside fcs_run. A probe calls one
// layer's public functions on inputs shaped like the workload (same rank
// count, same items per rank, the workload's positions and mover fraction),
// either outside any engine or in a bare engine that runs nothing else.
#include <algorithm>
#include <numeric>

#include "bench_common.hpp"
#include "domain/cart_grid.hpp"
#include "domain/morton.hpp"
#include "perfbench.hpp"
#include "redist/resort.hpp"
#include "sortlib/partition_sort.hpp"
#include "support/rng.hpp"

namespace perfbench {

using domain::Vec3;

namespace {

/// Repeats `fn` until at least `min_s` host seconds (and 3 calls) have
/// passed; returns the median seconds per call.
template <class Fn>
double time_loop(double min_s, Fn&& fn) {
  std::vector<double> samples;
  const double start = host_now();
  while (samples.size() < 3 || host_now() - start < min_s) {
    const double t = host_now();
    fn();
    samples.push_back(host_now() - t);
  }
  return median(samples);
}

/// Bare-engine timing: every rank runs `reps` repetitions of an operation,
/// separated by untimed barriers. A repetition lasts from the first rank's
/// start to the last rank's end (one OS thread runs all ranks).
class BareEngine {
 public:
  BareEngine(const Workload& w, int reps)
      : w_(w),
        first_(static_cast<std::size_t>(reps), 1e300),
        last_(static_cast<std::size_t>(reps), -1e300) {}

  /// `make_op(comm)` builds the rank's inputs and returns the operation.
  template <class MakeOp>
  double median_s(MakeOp&& make_op) {
    sim::Engine engine(engine_config(w_));
    engine.run([&](sim::RankCtx& ctx) {
      const mpi::Comm comm = mpi::Comm::world(ctx);
      auto op = make_op(comm);
      for (std::size_t k = 0; k < first_.size(); ++k) {
        comm.barrier();
        first_[k] = std::min(first_[k], host_now());
        op();
        last_[k] = std::max(last_[k], host_now());
      }
    });
    std::vector<double> spans(first_.size());
    for (std::size_t k = 0; k < spans.size(); ++k)
      spans[k] = last_[k] - first_[k];
    return median(spans);
  }

 private:
  const Workload& w_;
  std::vector<double> first_, last_;
};

struct Item {  // a particle-sized record, like the solvers exchange
  std::uint64_t key;
  Vec3 pos;
  double q;
};

std::vector<int> grid_neighbors(const domain::CartGrid& grid, int rank) {
  const auto c = grid.coords_of_rank(rank);
  std::vector<int> out;
  for (int d = 0; d < 3; ++d)
    for (int s : {-1, 1}) {
      auto n = c;
      n[d] += s;
      const int nb = grid.rank_of_coords(n);
      if (nb != rank && std::find(out.begin(), out.end(), nb) == out.end())
        out.push_back(nb);
    }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<Metric> run_probes(
    const Workload& w, const std::vector<Vec3>& positions,
    const std::vector<std::size_t>& rank_offsets, double mover_frac,
    std::uint64_t seed) {
  std::vector<Metric> m;
  const int p = w.nranks;
  const domain::Box box = bench::paper_system(w.n, w.dist).box;
  auto local_count = [&](int r) {
    return rank_offsets[static_cast<std::size_t>(r) + 1] -
           rank_offsets[static_cast<std::size_t>(r)];
  };
  const std::vector<int> dims = mpi::dims_create(p, 3);
  const domain::CartGrid grid(box, {dims[0], dims[1], dims[2]});
  const int reps = 5;
  constexpr int kCalls = 20;

  // --- domain: Morton keys and PM ghost images over all positions ----------
  std::vector<std::uint64_t> keys(positions.size());
  const double morton_s = time_loop(0.1, [&] {
    domain::morton_keys_batch(box, domain::kMaxMortonLevel, positions.data(),
                              positions.size(), keys.data());
  });
  m.push_back({"domain.morton.keys_per_s",
               static_cast<double>(positions.size()) / morton_s, "1/s"});
  const double cutoff =
      std::min(4.8, 0.9 * box.extent().x / static_cast<double>(dims[0]));
  std::size_t ghosts = 0;
  const double ghost_s = time_loop(0.1, [&] {
    ghosts = 0;
    for (const Vec3& x : positions)
      ghosts += grid.ghost_images(x, cutoff).size();
  });
  m.push_back({"domain.ghost.ns_per_particle",
               1e9 * ghost_s / static_cast<double>(positions.size()), "ns"});

  // --- sortlib: local radix sort of each rank's keys, partition sort ------
  const double radix_s = time_loop(0.1, [&] {
    for (int r = 0; r < p; ++r) {
      const std::vector<std::uint64_t> rk(
          keys.begin() + static_cast<std::ptrdiff_t>(
                             rank_offsets[static_cast<std::size_t>(r)]),
          keys.begin() + static_cast<std::ptrdiff_t>(
                             rank_offsets[static_cast<std::size_t>(r) + 1]));
      sortlib::radix_sort_permutation(rk);
    }
  });
  m.push_back({"sortlib.radix.keys_per_s",
               static_cast<double>(keys.size()) / radix_s, "1/s"});
  const double partition_s =
      BareEngine(w, reps).median_s([&](const mpi::Comm& comm) {
        std::vector<Item> items;
        const std::size_t off =
            rank_offsets[static_cast<std::size_t>(comm.rank())];
        for (std::size_t i = 0; i < local_count(comm.rank()); ++i)
          items.push_back({keys[off + i], positions[off + i], 1.0});
        return [&comm, items]() {
          std::vector<Item> work = items;
          sortlib::parallel_sort_partition(
              comm, work, [](const Item& it) { return it.key; });
        };
      });
  m.push_back({"sortlib.partition.host_s", partition_s, "s"});

  // --- redist: restore to random origins, resort with the mover fraction --
  // A global random permutation names every element's origin.
  std::vector<std::uint64_t> origin(positions.size());
  {
    std::vector<std::uint64_t> perm(positions.size());
    std::iota(perm.begin(), perm.end(), 0);
    fcs::Rng rng(seed ^ 0x5eed0f0e1ULL);
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
    for (std::size_t i = 0; i < perm.size(); ++i) {
      const std::uint64_t g = perm[i];
      const int r = static_cast<int>(
          std::upper_bound(rank_offsets.begin(), rank_offsets.end(), g) -
          rank_offsets.begin() - 1);
      origin[i] = redist::make_index(
          r, g - rank_offsets[static_cast<std::size_t>(r)]);
    }
  }
  struct Restored {
    std::uint64_t origin;
    double phi;
    Vec3 field;
  };
  const double restore_s =
      BareEngine(w, reps).median_s([&](const mpi::Comm& comm) {
        std::vector<Restored> items;
        const std::size_t off =
            rank_offsets[static_cast<std::size_t>(comm.rank())];
        for (std::size_t i = 0; i < local_count(comm.rank()); ++i)
          items.push_back({origin[off + i], 1.0, positions[off + i]});
        const std::size_t n_original = local_count(comm.rank());
        return [&comm, items, n_original]() {
          redist::restore_to_origin(
              comm, items, [](const Restored& x) { return x.origin; },
              n_original, redist::ExchangeKind::kDense);
        };
      });
  m.push_back({"redist.restore.host_s", restore_s, "s"});

  // Resort: a mover fraction f of each rank's particles moves to the next
  // rank, 6 Vec3 fields per particle. Without a measured fraction (the
  // workload never resorts) every particle but 1/P moves, as under a random
  // distribution.
  const double f = mover_frac >= 0.0 ? mover_frac
                                     : 1.0 - 1.0 / static_cast<double>(p);
  auto movers_of = [&](int r) {
    return static_cast<std::size_t>(
        std::llround(f * static_cast<double>(local_count(r))));
  };
  const redist::ExchangeKind kind =
      w.max_move ? redist::ExchangeKind::kSparse : redist::ExchangeKind::kDense;
  const double resort_s =
      BareEngine(w, reps).median_s([&](const mpi::Comm& comm) {
        const int r = comm.rank();
        const int next = (r + 1) % p;
        const std::size_t n = local_count(r);
        const std::size_t mv = movers_of(r);
        const std::size_t n_changed = n - mv + movers_of((r + p - 1) % p);
        // Movers are a seeded random subset; stayers keep their order.
        std::vector<char> moves(n, 0);
        fcs::Rng rng = fcs::Rng(seed ^ 0x4e5027ULL).stream(
            static_cast<std::uint64_t>(r));
        for (std::size_t placed = 0; placed < mv;) {
          const std::size_t i = rng.uniform_index(n);
          if (!moves[i]) {
            moves[i] = 1;
            ++placed;
          }
        }
        std::vector<std::uint64_t> idx(n);
        const std::size_t next_base = local_count(next) - movers_of(next);
        std::size_t stay = 0, out = 0;
        for (std::size_t i = 0; i < n; ++i)
          idx[i] = moves[i] ? redist::make_index(next, next_base + out++)
                            : redist::make_index(r, stay++);
        std::vector<double> data(n * 18, 0.5);
        return [&comm, idx, data, n_changed, kind]() {
          redist::resort_values(comm, idx, data, 18, n_changed, kind);
        };
      });
  m.push_back({"redist.resort.host_s", resort_s, "s"});
  m.push_back({"redist.mover_frac", f, "frac"});

  // --- minimpi: dense alltoallv, allreduce, sparse neighbour exchange ------
  const double alltoallv_s =
      BareEngine(w, reps).median_s([&](const mpi::Comm& comm) {
        const std::size_t n = local_count(comm.rank());
        std::vector<std::size_t> counts(static_cast<std::size_t>(p),
                                        n / static_cast<std::size_t>(p));
        for (std::size_t i = 0; i < n % static_cast<std::size_t>(p); ++i)
          ++counts[i];
        std::vector<Item> items(n);
        return [&comm, counts, items]() {
          std::vector<std::size_t> recv;
          comm.alltoallv(items.data(), counts, recv);
        };
      });
  m.push_back({"mpi.alltoallv.host_s", alltoallv_s, "s"});
  const double allreduce_s =
      BareEngine(w, reps).median_s([&](const mpi::Comm& comm) {
        return [&comm]() {
          double v = comm.rank();
          for (int i = 0; i < kCalls; ++i) v = comm.allreduce(v, mpi::OpMax{});
        };
      });
  m.push_back({"mpi.allreduce.host_s", allreduce_s / kCalls, "s"});
  const double sparse_s =
      BareEngine(w, reps).median_s([&](const mpi::Comm& comm) {
        const std::vector<int> nb = grid_neighbors(grid, comm.rank());
        const std::size_t per = std::max<std::size_t>(
            1, movers_of(comm.rank()) / std::max<std::size_t>(1, nb.size()));
        std::vector<std::size_t> counts(static_cast<std::size_t>(p), 0);
        for (int n : nb) counts[static_cast<std::size_t>(n)] = per;
        std::vector<Item> items(per * nb.size());
        return [&comm, counts, items]() {
          std::vector<std::size_t> recv;
          comm.sparse_alltoallv(items.data(), counts, recv);
        };
      });
  m.push_back({"mpi.sparse.host_s", sparse_s, "s"});

  // --- sim: message ring, engine construction -----------------------------
  const double ring_s =
      BareEngine(w, reps).median_s([&](const mpi::Comm& comm) {
        return [&comm, p]() {
          const int r = comm.rank();
          double v = r;
          for (int i = 0; i < kCalls; ++i) {
            comm.send(&v, 1, (r + 1) % p, 7);
            comm.recv(&v, 1, (r + p - 1) % p, 7);
          }
        };
      });
  m.push_back({"sim.msg.host_ns",
               1e9 * ring_s / (static_cast<double>(p) * kCalls), "ns"});
  std::vector<double> ctor;
  for (int k = 0; k < 3; ++k) {
    const double t = host_now();
    sim::Engine engine(engine_config(w));
    engine.run([](sim::RankCtx&) {});
    ctor.push_back(host_now() - t);
  }
  m.push_back({"sim.engine_ctor.host_s", median(ctor), "s"});
  return m;
}

}  // namespace perfbench
