#include "fmm/fmm_solver.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "fmm/octree.hpp"
#include "lb/incremental.hpp"
#include "lb/lb.hpp"
#include "lb/weighted_split.hpp"
#include "redist/resort.hpp"
#include "sortlib/merge_sort.hpp"
#include "sortlib/partition_sort.hpp"

namespace fmm {

using domain::Vec3;

void FmmSolver::set_level(int level) {
  FCS_CHECK(level >= 0 && level <= domain::kMaxMortonLevel, "bad level");
  level_override_ = level;
  tuned_ = false;
}

void FmmSolver::set_order(int order) {
  FCS_CHECK(order >= 0 && order <= 20, "bad expansion order");
  order_override_ = order;
  tuned_ = false;
}

void FmmSolver::tune(const mpi::Comm& comm,
                     const std::vector<domain::Vec3>& positions,
                     const std::vector<double>& charges) {
  FCS_CHECK(positions.size() == charges.size(), "positions/charges mismatch");
  const std::uint64_t n_total = comm.allreduce(
      static_cast<std::uint64_t>(positions.size()), mpi::OpSum{});

  // Expansion order from the accuracy target: the M2L convergence factor of
  // the minimal-separation criterion is ~0.55, so error ~ 0.55^p.
  int order = 2;
  while (order < 18 && std::pow(0.55, order) > accuracy_) ++order;
  order_ = order_override_ ? order_override_ : order;

  // Leaf level: aim for ~8 particles per leaf box, capped so the replicated
  // level arrays stay small (8^L * ncoef complex per rank).
  int level = 1;
  while (level < 7 &&
         static_cast<double>(n_total) / std::pow(8.0, level + 1) > 8.0)
    ++level;
  while (level > 1 &&
         std::pow(8.0, level) * static_cast<double>(ncoef(order_)) * 16.0 >
             8.0 * 1024 * 1024)
    --level;
  level_ = level_override_ ? level_override_ : level;
  tuned_ = true;
}

fcs::SolveStage FmmSolver::begin_solve(const mpi::Comm& comm,
                                       const std::vector<domain::Vec3>& positions,
                                       const std::vector<double>& charges,
                                       const fcs::SolveOptions& options) {
  FCS_CHECK(tuned_, "fmm solver: call tune() before solve()");
  FCS_CHECK(positions.size() == charges.size(), "positions/charges mismatch");
  if (!options.modeled_compute)
    FCS_CHECK(!box_.periodic()[0] && !box_.periodic()[1] && !box_.periodic()[2],
              "the fmm solver computes open-boundary interactions; periodic "
              "boxes are only supported with modeled compute (see DESIGN.md)");
  sim::RankCtx& ctx = comm.ctx();
  fcs::SolveStage stage;
  auto st = std::make_shared<StageState>();
  fcs::SolveResult& result = stage.partial;
  const double t0 = ctx.now();

  // --- Sort phase: place particles into Z-Morton boxes ----------------------
  fcs::PhaseScope sort_phase(ctx, result.times, &fcs::PhaseTimes::sort,
                             "fmm.sort");
  std::vector<FmmParticle>& items = st->items;
  items.resize(positions.size());
  std::vector<std::uint64_t> keys(positions.size());
  domain::morton_keys_batch(box_, level_, positions.data(), positions.size(),
                            keys.data());
  for (std::size_t i = 0; i < positions.size(); ++i)
    items[i] = FmmParticle{positions[i], charges[i], keys[i],
                           redist::make_index(comm.rank(), i)};

  lb::Balancer* const bal =
      options.balancer != nullptr && options.balancer->active()
          ? options.balancer
          : nullptr;
  // Paper heuristic: merge-based sorting when the maximum movement is below
  // the side length of a volume/P cube. With load balancing the segment
  // boundaries are cost-driven instead of count-driven, so the balancer
  // path below replaces this choice entirely.
  const double cube_side =
      std::cbrt(box_.volume() / static_cast<double>(comm.size()));
  bool use_merge = bal == nullptr && options.input_in_solver_order &&
                   options.max_particle_move >= 0.0 &&
                   options.max_particle_move < cube_side;
  // Plan override (src/plan): an explicit sort choice replaces the movement
  // heuristic. The balancer path still wins - its cost-weighted splitters
  // are incompatible with either count-balanced algorithm.
  if (bal == nullptr && options.plan != nullptr &&
      options.plan->sort != plan::SortAlgo::kAuto)
    use_merge = options.plan->sort == plan::SortAlgo::kMerge;
  last_used_merge_sort_ = use_merge;
  auto key_fn = [](const FmmParticle& pt) { return pt.key; };
  bool sparse_regime = use_merge;
  if (bal != nullptr) {
    // The balancer partitions on FULL-RESOLUTION Morton codes, not leaf-box
    // keys: the leaf key is a prefix of the fine code, so fine-sorted items
    // are automatically leaf-sorted, but segment boundaries can now cut
    // INSIDE a crowded leaf box (a clustered hotspot can put thousands of
    // particles into one box - splitting only between boxes would pin that
    // whole load to a single rank). The compute path already handles boxes
    // that span rank boundaries (multipole allreduce + ghost exchange).
    auto fine_fn = [this](const FmmParticle& pt) {
      return domain::morton_key(box_, domain::kMaxMortonLevel, pt.pos);
    };
    sortlib::sort_by_key(items, fine_fn);
    if (!bal->has_splitters() || bal->should_rebalance()) {
      std::vector<std::uint64_t> keys(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) keys[i] = fine_fn(items[i]);
      // Per-PARTICLE weights, mirroring the compute-phase cost model on the
      // LOCAL leaf-box occupancy (items are fine-sorted, so equal leaf keys
      // are adjacent): a particle in a crowded box costs O(c) near-field
      // work, one in a lone box amortizes its box's whole M2L share. Local
      // occupancy approximates global occupancy because each rank holds a
      // contiguous key range (only the two ranks sharing a boundary box
      // underestimate). The raw shape is then calibrated so this rank's
      // total stays n * bal->weight() - the balancer's OBSERVED per-rank
      // cost sets how much total weight the rank carries, the model only
      // distributes it across the rank's own key range.
      std::vector<double> item_w(items.size(), 0.0);
      const double nc = static_cast<double>(ncoef(order_));
      double raw_sum = 0.0;
      for (std::size_t i = 0; i < items.size();) {
        std::size_t j = i;
        while (j < items.size() && items[j].key == items[i].key) ++j;
        const double c = static_cast<double>(j - i);
        const double per_particle =
            6.0 * 27.0 * std::max(1.0, c) + 189.0 * nc * nc / 4.0 / c +
            10.0 * nc;
        for (std::size_t k = i; k < j; ++k) item_w[k] = per_particle;
        raw_sum += per_particle * c;
        i = j;
      }
      if (raw_sum > 0.0) {
        const double scale =
            bal->weight() * static_cast<double>(items.size()) / raw_sum;
        for (double& w : item_w) w *= scale;
      }
      bal->set_splitters(
          lb::weighted_splitter_keys(comm, keys, item_w, comm.size()));
      bal->note_rebalanced();
      obs::count(ctx.obs(), "lb.plans", 1.0);
    }
    // Incremental path: when the input is already in solver order, only the
    // particles in the shifted boundary strips (plus this step's movement)
    // target other ranks - ship just those point-to-point. Falls back to
    // the full weighted repartition when the mover fraction is too high or
    // the input distribution is unrelated to the plan.
    bool incremental = false;
    if (options.input_in_solver_order)
      incremental =
          lb::incremental_migrate(comm, items, fine_fn, bal->splitters(),
                                  bal->config().incremental_max_fraction);
    if (!incremental) {
      std::vector<std::uint64_t> keys(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) keys[i] = fine_fn(items[i]);
      const std::vector<std::uint64_t> targets =
          lb::segment_target_counts(comm, keys, bal->splitters());
      sortlib::parallel_sort_partition(comm, items, fine_fn, &targets);
      obs::count(ctx.obs(), "lb.migrate.full", 1.0);
    }
    sparse_regime = incremental;
  } else if (use_merge) {
    sortlib::parallel_sort_merge(comm, items, key_fn);
  } else if (options.carry != nullptr && !options.carry->empty()) {
    // Staged fields: ship their columns inside the partition sort's own
    // alltoallv (one exchange) instead of a separate resort round. The item
    // result is bit-identical to the plain partition sort.
    sortlib::parallel_sort_partition_carry(comm, items, key_fn,
                                           *options.carry);
    result.fields_carried = true;
  } else {
    sortlib::parallel_sort_partition(comm, items, key_fn);
  }
  if (bal == nullptr)
    result.sort_used =
        use_merge ? plan::SortAlgo::kMerge : plan::SortAlgo::kPartition;
  sort_phase.stop();

  // Everything the fcs layer needs BEFORE the compute phase: the origin
  // indices (resort machinery) and the communication regime.
  st->sparse_regime = sparse_regime;
  result.origin.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    result.origin[i] = items[i].origin;
  result.resort_kind = sparse_regime ? redist::ExchangeKind::kSparse
                                     : redist::ExchangeKind::kDense;
  result.times.total += ctx.now() - t0;
  stage.state = std::move(st);
  return stage;
}

fcs::SolveResult FmmSolver::finish_solve(const mpi::Comm& comm,
                                         fcs::SolveStage&& stage,
                                         const fcs::SolveOptions& options) {
  auto st = std::static_pointer_cast<StageState>(stage.state);
  FCS_CHECK(st != nullptr, "finish_solve: stage missing fmm state");
  sim::RankCtx& ctx = comm.ctx();
  fcs::SolveResult result = std::move(stage.partial);
  std::vector<FmmParticle>& items = st->items;
  const double t0 = ctx.now();

  // --- Compute phase ---------------------------------------------------------
  fcs::PhaseScope compute_phase(ctx, result.times, &fcs::PhaseTimes::compute,
                                "fmm.compute");
  std::vector<double> potentials(items.size(), 0.0);
  std::vector<Vec3> field(items.size(), Vec3{});
  if (options.modeled_compute) {
    // Near field: per leaf box, occupancy * 27 equally-occupied partner
    // boxes - summed over the ACTUAL local occupancies, so clustered
    // distributions charge their genuine O(c^2)-per-box near-field cost and
    // the load balancer has a real signal. For uniform occupancy this
    // reduces exactly to the previous global-occupancy formula (items are
    // key-sorted here, so equal keys are adjacent). Far field ~ M2L work
    // share of the locally held boxes.
    const double nc = static_cast<double>(ncoef(order_));
    double near = 0.0;
    double my_boxes = 0.0;
    for (std::size_t i = 0; i < items.size();) {
      std::size_t j = i;
      while (j < items.size() && items[j].key == items[i].key) ++j;
      const double c = static_cast<double>(j - i);
      near += 6.0 * c * 27.0 * std::max(1.0, c);
      my_boxes += 1.0;
      i = j;
    }
    // Calibrated so the redistribution phases form a paper-like share of
    // the step total (Fig. 8: up to ~50% under method A).
    ctx.charge_ops(near + 189.0 * my_boxes * nc * nc / 4.0 +
                   10.0 * static_cast<double>(items.size()) * nc);
  } else {
    compute_fields(comm, items, potentials, field);
  }
  compute_phase.stop();

  // --- Output in solver (Z-curve) order --------------------------------------
  const std::size_t n = items.size();
  result.positions.resize(n);
  result.charges.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.positions[i] = items[i].pos;
    result.charges[i] = items[i].charge;
  }
  result.potentials = std::move(potentials);
  result.field = std::move(field);
  result.times.total += ctx.now() - t0;
  return result;
}

void FmmSolver::compute_fields(const mpi::Comm& comm,
                               const std::vector<FmmParticle>& particles,
                               std::vector<double>& potentials,
                               std::vector<Vec3>& field) const {
  sim::RankCtx& ctx = comm.ctx();
  const int p = comm.size();
  const int L = level_;

  // Group my (sorted) particles by leaf box.
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> my_boxes;
  for (std::size_t i = 0; i < particles.size();) {
    std::size_t j = i;
    while (j < particles.size() && particles[j].key == particles[i].key) ++j;
    my_boxes.emplace(particles[i].key, std::make_pair(i, j));
    i = j;
  }

  // --- Near-field ghost exchange --------------------------------------------
  // Segment key ranges of all ranks (empty ranks get an empty range).
  struct KeyRange {
    std::uint64_t lo, hi;
  };
  const KeyRange mine = particles.empty()
                            ? KeyRange{~std::uint64_t{0}, 0}
                            : KeyRange{particles.front().key,
                                       particles.back().key};
  std::vector<KeyRange> ranges(static_cast<std::size_t>(p));
  comm.allgather(&mine, 1, ranges.data());
  auto owners_of_key = [&](std::uint64_t key, std::vector<int>& out) {
    for (int r = 0; r < p; ++r)
      if (ranges[static_cast<std::size_t>(r)].lo <= key &&
          key <= ranges[static_cast<std::size_t>(r)].hi)
        out.push_back(r);
  };

  // For each of my boxes: ranks owning any neighbor box get my particles.
  std::vector<std::vector<int>> box_targets;
  std::vector<std::pair<std::uint64_t, std::size_t>> box_list;  // key, index
  {
    std::vector<std::uint64_t> nbrs;
    std::vector<int> owners;
    for (const auto& [key, range] : my_boxes) {
      (void)range;
      box_neighbors(L, key, nbrs);
      nbrs.push_back(key);  // the box itself may span a rank boundary
      owners.clear();
      for (std::uint64_t nb : nbrs) owners_of_key(nb, owners);
      std::sort(owners.begin(), owners.end());
      owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
      owners.erase(std::remove(owners.begin(), owners.end(), comm.rank()),
                   owners.end());
      box_list.emplace_back(key, box_targets.size());
      box_targets.push_back(owners);
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> box_target_of;
  for (const auto& [key, idx] : box_list) box_target_of.emplace(key, idx);

  std::vector<GhostParticle> ghost_out(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i)
    ghost_out[i] = GhostParticle{particles[i].pos, particles[i].charge,
                                 particles[i].key};
  std::vector<GhostParticle> ghosts = redist::fine_grained_redistribute(
      comm, ghost_out,
      [&](const GhostParticle& g, std::size_t, std::vector<int>& t) {
        const auto it = box_target_of.find(g.key);
        if (it != box_target_of.end())
          t.insert(t.end(), box_targets[it->second].begin(),
                   box_targets[it->second].end());
      },
      redist::ExchangeKind::kSparse);
  // Keep only ghosts in boxes adjacent to one of mine (a rank may own a key
  // range overlapping several senders) and group them by box.
  std::sort(ghosts.begin(), ghosts.end(),
            [](const GhostParticle& a, const GhostParticle& b) {
              return a.key < b.key;
            });
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> ghost_boxes;
  for (std::size_t i = 0; i < ghosts.size();) {
    std::size_t j = i;
    while (j < ghosts.size() && ghosts[j].key == ghosts[i].key) ++j;
    ghost_boxes.emplace(ghosts[i].key, std::make_pair(i, j));
    i = j;
  }

  // --- Upward pass: replicated level multipoles ------------------------------
  const int nc = static_cast<int>(ncoef(order_));
  std::vector<std::vector<Complex>> level_multipoles(
      static_cast<std::size_t>(L + 1));
  for (int l = 0; l <= L; ++l)
    level_multipoles[static_cast<std::size_t>(l)].assign(
        (std::size_t{1} << (3 * l)) * static_cast<std::size_t>(nc),
        Complex{0, 0});

  // P2M into my leaf boxes.
  {
    Expansion w(order_);
    for (const auto& [key, range] : my_boxes) {
      w.clear();
      const Vec3 center = box_center(box_, L, key);
      for (std::size_t i = range.first; i < range.second; ++i)
        p2m(particles[i].pos, particles[i].charge, center, w);
      Complex* dst = level_multipoles[static_cast<std::size_t>(L)].data() +
                     key * static_cast<std::size_t>(nc);
      for (int c = 0; c < nc; ++c) dst[c] += w.coeffs[static_cast<std::size_t>(c)];
      ctx.charge_ops(static_cast<double>(range.second - range.first) * nc);
    }
  }

  // M2M up (only boxes I contributed to - the allreduce merges the rest).
  {
    std::vector<std::uint64_t> level_keys;
    for (const auto& [key, range] : my_boxes) {
      (void)range;
      level_keys.push_back(key);
    }
    for (int l = L; l > 2; --l) {
      std::vector<std::uint64_t> parent_keys;
      Expansion src(order_), dstw(order_);
      for (std::uint64_t key : level_keys) {
        const std::uint64_t parent = domain::morton_parent(key);
        if (parent_keys.empty() || parent_keys.back() != parent)
          parent_keys.push_back(parent);
        const Complex* s =
            level_multipoles[static_cast<std::size_t>(l)].data() +
            key * static_cast<std::size_t>(nc);
        std::copy(s, s + nc, src.coeffs.begin());
        dstw.clear();
        m2m(src, box_center(box_, l, key), box_center(box_, l - 1, parent),
            dstw);
        Complex* d = level_multipoles[static_cast<std::size_t>(l - 1)].data() +
                     parent * static_cast<std::size_t>(nc);
        for (int c = 0; c < nc; ++c)
          d[c] += dstw.coeffs[static_cast<std::size_t>(c)];
        ctx.charge_ops(static_cast<double>(nc) * nc);
      }
      level_keys = std::move(parent_keys);
    }
  }

  // Merge contributions across ranks (boxes can span rank boundaries and
  // remote multipoles are needed for M2L).
  for (int l = 2; l <= L; ++l) {
    auto& arr = level_multipoles[static_cast<std::size_t>(l)];
    std::vector<Complex> global(arr.size());
    comm.allreduce(arr.data(), global.data(), arr.size(), mpi::OpSum{});
    arr = std::move(global);
  }

  // --- Downward pass: locals along the paths to my leaf boxes ----------------
  std::unordered_map<std::uint64_t, Expansion> locals;  // keys at level `l`
  std::unordered_map<std::uint64_t, Expansion> parent_locals;
  for (int l = 2; l <= L; ++l) {
    // Boxes of interest at this level: ancestors of my leaves.
    std::vector<std::uint64_t> interest;
    for (const auto& [key, range] : my_boxes) {
      (void)range;
      interest.push_back(key >> (3 * (L - l)));
    }
    std::sort(interest.begin(), interest.end());
    interest.erase(std::unique(interest.begin(), interest.end()),
                   interest.end());

    locals.clear();
    std::vector<std::uint64_t> ilist;
    Expansion w(order_);
    for (std::uint64_t key : interest) {
      Expansion local(order_);
      // Inherit the parent's local expansion.
      if (l > 2) {
        const std::uint64_t parent = domain::morton_parent(key);
        auto it = parent_locals.find(parent);
        if (it != parent_locals.end())
          l2l(it->second, box_center(box_, l - 1, parent),
              box_center(box_, l, key), local);
      }
      // M2L from the interaction list.
      interaction_list(l, key, ilist);
      const Vec3 center = box_center(box_, l, key);
      for (std::uint64_t src_key : ilist) {
        const Complex* s =
            level_multipoles[static_cast<std::size_t>(l)].data() +
            src_key * static_cast<std::size_t>(nc);
        bool empty = true;
        for (int c = 0; c < nc && empty; ++c)
          if (s[c] != Complex{0, 0}) empty = false;
        if (empty) continue;
        std::copy(s, s + nc, w.coeffs.begin());
        m2l(w, box_center(box_, l, src_key), center, local);
        ctx.charge_ops(static_cast<double>(nc) * nc);
      }
      locals.emplace(key, std::move(local));
    }
    parent_locals = std::move(locals);
  }

  // --- L2P + near-field P2P ---------------------------------------------------
  for (const auto& [key, range] : my_boxes) {
    const Vec3 center = box_center(box_, L, key);
    // At leaf level < 2 every box is adjacent to every other: the near field
    // covers everything and no local expansion exists.
    const auto local_it = parent_locals.find(key);
    if (local_it != parent_locals.end()) {
      for (std::size_t i = range.first; i < range.second; ++i)
        l2p(local_it->second, center, particles[i].pos, potentials[i],
            field[i]);
      ctx.charge_ops(static_cast<double>(range.second - range.first) * nc);
    }

    // Direct interactions with the box itself and its neighbors.
    std::vector<std::uint64_t> nbrs;
    box_neighbors(L, key, nbrs);
    nbrs.push_back(key);
    double pair_ops = 0;
    for (std::uint64_t nb : nbrs) {
      // Sources among my particles.
      auto mit = my_boxes.find(nb);
      if (mit != my_boxes.end()) {
        for (std::size_t i = range.first; i < range.second; ++i)
          for (std::size_t j = mit->second.first; j < mit->second.second; ++j) {
            if (i == j) continue;
            const Vec3 d = particles[i].pos - particles[j].pos;
            const double r2 = d.norm2();
            FCS_CHECK(r2 > 0, "coincident particles in FMM near field");
            const double inv_r = 1.0 / std::sqrt(r2);
            potentials[i] += particles[j].charge * inv_r;
            field[i] += d * (particles[j].charge * inv_r * inv_r * inv_r);
            pair_ops += 1;
          }
      }
      // Sources among the ghosts.
      auto git = ghost_boxes.find(nb);
      if (git != ghost_boxes.end()) {
        for (std::size_t i = range.first; i < range.second; ++i)
          for (std::size_t j = git->second.first; j < git->second.second; ++j) {
            const Vec3 d = particles[i].pos - ghosts[j].pos;
            const double r2 = d.norm2();
            FCS_CHECK(r2 > 0, "coincident ghost in FMM near field");
            const double inv_r = 1.0 / std::sqrt(r2);
            potentials[i] += ghosts[j].charge * inv_r;
            field[i] += d * (ghosts[j].charge * inv_r * inv_r * inv_r);
            pair_ops += 1;
          }
      }
    }
    ctx.charge_ops(20.0 * pair_ops);
  }
}

}  // namespace fmm
