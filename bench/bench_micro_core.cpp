// google-benchmark micro benchmarks of the performance-critical kernels
// (real wall-clock time of the library code, not virtual machine-model
// time): Morton encoding, the radix sort permutation, the serial FFT, CIC
// stencils, and the solid-harmonics evaluation.
//
// The binary is self-asserting on one target: the carried-column
// permute+pack path (key-carrying radix + width-specialized column gathers,
// src/sortlib) must be at least 2x faster than the pre-refactor kernels
// (indirect radix + 72-byte AoS permutation + runtime-width per-field pack)
// at 1M keys. The comparison runs after the google-benchmark suite, writes
// BENCH_micro.json when BENCH_JSON names a directory, and makes the process
// exit nonzero when the ratio falls below 2.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "domain/morton.hpp"
#include "fmm/harmonics.hpp"
#include "pm/charge_grid.hpp"
#include "pm/fft.hpp"
#include "sortlib/carry.hpp"
#include "sortlib/local_sort.hpp"
#include "support/rng.hpp"

namespace {

void BM_MortonEncode(benchmark::State& state) {
  fcs::Rng rng(1);
  std::vector<std::uint32_t> xs(4096);
  for (auto& x : xs) x = static_cast<std::uint32_t>(rng() & 0x1fffff);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i + 2 < xs.size(); i += 3)
      acc ^= domain::morton_encode(xs[i], xs[i + 1], xs[i + 2]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(xs.size() / 3));
}
BENCHMARK(BM_MortonEncode);

void BM_RadixPermutation(benchmark::State& state) {
  fcs::Rng rng(2);
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(state.range(0)));
  for (auto& k : keys) k = rng() & 0xffffffffULL;
  for (auto _ : state) {
    auto order = sortlib::radix_sort_permutation(keys);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_RadixPermutation)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_Fft1d(benchmark::State& state) {
  fcs::Rng rng(3);
  std::vector<pm::Complex> data(static_cast<std::size_t>(state.range(0)));
  for (auto& c : data) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto _ : state) {
    pm::fft(data, -1);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Fft1d)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_Fft3d(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  fcs::Rng rng(4);
  std::vector<pm::Complex> mesh(m * m * m);
  for (auto& c : mesh) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto _ : state) {
    pm::fft3d(mesh, m, m, m, -1);
    benchmark::DoNotOptimize(mesh.data());
  }
}
BENCHMARK(BM_Fft3d)->Arg(16)->Arg(32)->Arg(64);

void BM_CicStencil(benchmark::State& state) {
  domain::Box box({0, 0, 0}, {64, 64, 64}, {true, true, true});
  const std::array<std::size_t, 3> mesh{64, 64, 64};
  fcs::Rng rng(5);
  std::vector<domain::Vec3> pos(1024);
  for (auto& p : pos)
    p = {rng.uniform(0, 64), rng.uniform(0, 64), rng.uniform(0, 64)};
  for (auto _ : state) {
    double acc = 0;
    for (const auto& p : pos)
      for (const auto& pt : pm::cic_stencil(box, mesh, p)) acc += pt.weight;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pos.size()));
}
BENCHMARK(BM_CicStencil);

void BM_SolidHarmonics(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  std::vector<fmm::Complex> out;
  const domain::Vec3 r{0.3, -0.7, 0.55};
  for (auto _ : state) {
    fmm::regular_harmonics(r, p, out);
    benchmark::DoNotOptimize(out.data());
    fmm::irregular_harmonics(r, p, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SolidHarmonics)->Arg(4)->Arg(10)->Arg(16);

// ---------------------------------------------------------------------------
// Carried-column permute+pack vs the pre-refactor payload-resort kernels.
//
// Measured: the LOCAL kernel work of moving three Vec3 payload fields
// (velocities, accelerations, one extra column) through one method-B resort
// at 1M particles. The legacy side reproduces what the seed tree executed
// every step: ResortPlan::build sorts the (origin index, position) pairs
// with std::sort to derive the receive placement, then every field pays a
// pack gather (runtime-width per-row memcpy, the old ExchangePlan loop) plus
// a placement scatter on receive. The carried side is what a solver that
// carries the staged fields (src/sortlib) executes instead: the resort
// permute is composed into the pack - ONE width-specialized gather per
// column - and on receive the columns follow the solver's merge permutation
// (already known from the item merge, so no plan build at all) via
// CarrySet::permute.
// Both sides exclude the solver's own key sort and the wire exchange: those
// are identical in the two modes.

// Pre-refactor pack/placement loops: one runtime-width memcpy per row, the
// compiler cannot specialize the width (noinline keeps item_bytes runtime).
__attribute__((noinline)) void legacy_pack_rows(const std::byte* src,
                                                std::byte* dst,
                                                const std::uint32_t* idx,
                                                std::size_t n,
                                                std::size_t item_bytes) {
  for (std::size_t k = 0; k < n; ++k)
    std::memcpy(dst + k * item_bytes, src + idx[k] * item_bytes, item_bytes);
}

__attribute__((noinline)) void legacy_place_rows(const std::byte* src,
                                                 std::byte* dst,
                                                 const std::uint32_t* idx,
                                                 std::size_t n,
                                                 std::size_t item_bytes) {
  for (std::size_t k = 0; k < n; ++k)
    std::memcpy(dst + idx[k] * item_bytes, src + k * item_bytes, item_bytes);
}

struct PermutePackInput {
  std::vector<std::uint64_t> origin;      // origin index of current row k
  std::vector<std::uint32_t> resort_idx;  // pack slot k reads source row ...
  std::vector<std::uint32_t> placement;   // receive slot k lands at row ...
  std::vector<std::byte> cols[3];         // three Vec3 columns, 24 B rows
};

PermutePackInput make_permute_pack_input(std::size_t n) {
  PermutePackInput in;
  fcs::Rng rng(11);
  // A random permutation models the fine-grained redistribution: current
  // row k holds the particle that was originally at position resort_idx[k].
  in.resort_idx.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    in.resort_idx[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng() % i);
    std::swap(in.resort_idx[i - 1], in.resort_idx[j]);
  }
  in.origin.resize(n);
  for (std::size_t k = 0; k < n; ++k) in.origin[k] = in.resort_idx[k];
  // The merge permutation the carried columns follow (in production it is a
  // by-product of the item merge): the inverse of the resort permutation.
  in.placement.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    in.placement[in.resort_idx[k]] = static_cast<std::uint32_t>(k);
  for (auto& col : in.cols) {
    col.resize(n * sizeof(domain::Vec3));
    for (std::size_t i = 0; i < n; ++i) {
      const domain::Vec3 v{rng.uniform(-1, 1), rng.uniform(-1, 1),
                           rng.uniform(-1, 1)};
      std::memcpy(col.data() + i * 24, &v, 24);
    }
  }
  return in;
}

// One legacy payload resort: plan build (std::sort of the origin pairs, the
// seed ResortPlan::build receive side) + per-field pack gather + placement
// scatter, both with the runtime-width per-row memcpy of the old stack.
std::uint64_t legacy_permute_pack(const PermutePackInput& in,
                                  std::vector<std::byte>& packed,
                                  std::vector<std::byte>& out) {
  const std::size_t n = in.origin.size();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(n);
  for (std::size_t j = 0; j < n; ++j)
    order.emplace_back(in.origin[j], static_cast<std::uint32_t>(j));
  std::sort(order.begin(), order.end());
  std::vector<std::uint32_t> placement(n);
  for (std::size_t k = 0; k < n; ++k) placement[k] = order[k].second;
  packed.resize(n * 24);
  out.resize(n * 3 * 24);
  for (int f = 0; f < 3; ++f) {
    legacy_pack_rows(in.cols[f].data(), packed.data(), in.resort_idx.data(),
                     n, 24);
    legacy_place_rows(packed.data(), out.data() + static_cast<std::size_t>(f) * n * 24,
                      placement.data(), n, 24);
  }
  return placement[0] + static_cast<std::uint64_t>(out[8]);
}

// One carried payload resort: the fused gather-permute pack (the resort order
// composed into the pack, one width-specialized gather per column, see
// parallel_sort_partition_carry) + CarrySet::permute along the solver's
// merge order on receive. No plan build, no per-field passes.
std::uint64_t store_permute_pack(const PermutePackInput& in,
                                 std::vector<std::byte>& packed,
                                 std::vector<std::byte>& scratch) {
  const std::size_t n = in.origin.size();
  packed.resize(n * 3 * 24);
  sortlib::CarrySet carry;
  carry.scratch = &scratch;
  for (int c = 0; c < 3; ++c) {
    sortlib::gather_rows(in.cols[c].data(),
                         packed.data() + static_cast<std::size_t>(c) * n * 24,
                         in.resort_idx.data(), n, 24);
    sortlib::CarryColumn col;
    col.data = packed.data() + static_cast<std::size_t>(c) * n * 24;
    col.item_bytes = 24;
    carry.cols.push_back(col);
  }
  carry.permute(in.placement.data(), n);
  return static_cast<std::uint64_t>(packed[8]);
}

void BM_PermutePackLegacy(benchmark::State& state) {
  const auto in = make_permute_pack_input(static_cast<std::size_t>(state.range(0)));
  std::vector<std::byte> packed, out;
  for (auto _ : state)
    benchmark::DoNotOptimize(legacy_permute_pack(in, packed, out));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PermutePackLegacy)->Arg(1 << 16)->Arg(1 << 20);

void BM_PermutePackStore(benchmark::State& state) {
  const auto in = make_permute_pack_input(static_cast<std::size_t>(state.range(0)));
  std::vector<std::byte> packed, scratch;
  for (auto _ : state)
    benchmark::DoNotOptimize(store_permute_pack(in, packed, scratch));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PermutePackStore)->Arg(1 << 16)->Arg(1 << 20);

// The self-asserting check: best-of-reps wall time at 1M keys, ratio >= 2.
int run_permute_pack_check() {
  const std::size_t n = 1 << 20;
  const int reps = 5;
  const auto in = make_permute_pack_input(n);

  std::vector<std::byte> packed, out, store_packed, scratch;
  std::uint64_t sink = 0;

  using clock = std::chrono::steady_clock;
  double legacy_ms = 1e300, store_ms = 1e300;
  // One untimed warm-up each so both sides pay their allocations up front.
  sink += legacy_permute_pack(in, packed, out);
  sink += store_permute_pack(in, store_packed, scratch);
  for (int r = 0; r < reps; ++r) {
    auto t0 = clock::now();
    sink += legacy_permute_pack(in, packed, out);
    auto t1 = clock::now();
    sink += store_permute_pack(in, store_packed, scratch);
    auto t2 = clock::now();
    legacy_ms = std::min(
        legacy_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
    store_ms = std::min(
        store_ms, std::chrono::duration<double, std::milli>(t2 - t1).count());
  }
  benchmark::DoNotOptimize(sink);

  const double ratio = legacy_ms / store_ms;
  const bool pass = ratio >= 2.0;
  std::printf("\npermute+pack @ %zu keys (best of %d): legacy %.3f ms, "
              "store %.3f ms, speedup %.2fx (target 2.00x) -> %s\n",
              n, reps, legacy_ms, store_ms, ratio, pass ? "PASS" : "FAIL");

  if (const char* dir = std::getenv("BENCH_JSON"); dir != nullptr && *dir) {
    const std::string path = std::string(dir) + "/BENCH_micro.json";
    std::ofstream out(path);
    out << "{\n  \"figure\": \"micro\",\n  \"permute_pack\": {\n"
        << "    \"keys\": " << n << ",\n"
        << "    \"legacy_ms\": " << legacy_ms << ",\n"
        << "    \"store_ms\": " << store_ms << ",\n"
        << "    \"speedup\": " << ratio << ",\n"
        << "    \"target\": 2.0,\n"
        << "    \"pass\": " << (pass ? "true" : "false") << "\n  }\n}\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_permute_pack_check();
}
