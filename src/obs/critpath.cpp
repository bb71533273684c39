#include "obs/critpath.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/error.hpp"

namespace obs {

namespace {

/// Send endpoint of one flow: who injected it and when.
struct SendRef {
  int rank = 0;
  double time = 0.0;
};

/// Per-rank views into the recorder, precomputed once per report.
struct RankView {
  const std::vector<SpanEvent>* spans = nullptr;  // end-time ordered
  std::vector<FlowEvent> recvs;                   // time ordered
  std::vector<std::pair<double, double>> steps;   // step (begin, end), by begin
  double last = 0.0;  // latest recorded activity on this rank
};

/// Accumulates one step's walk; merges name-id keyed phase seconds into the
/// string-keyed CritStep at the end so the walk itself never touches strings.
class StepWalk {
 public:
  StepWalk(const Recorder& rec, const std::vector<RankView>& ranks,
           const std::unordered_map<std::uint64_t, SendRef>& sends,
           double window_begin)
      : rec_(rec), ranks_(ranks), sends_(sends), begin_(window_begin) {}

  /// Walk backwards from (rank, t) to the window begin.
  void run(int rank, double t) {
    // Generous guard: each iteration consumes at least one flow edge, so the
    // total flow count bounds any well-formed walk.
    std::size_t guard = sends_.size() + 16;
    while (t > begin_ && guard-- > 0) {
      const FlowEvent* gate = latest_gating_recv(rank, t);
      if (gate == nullptr) {
        local(rank, begin_, t);
        return;
      }
      // Everything from the gating message's arrival to t happened locally
      // on this rank (receive overhead, payload copy, later work).
      local(rank, std::max(gate->arrival, begin_), t);
      const auto sit = sends_.find(gate->id);
      if (sit == sends_.end()) return;  // unmatched flow: stop conservatively
      const double sent = sit->second.time;
      const double flight_begin = std::max(sent, begin_);
      if (gate->arrival > flight_begin)
        flight(sit->second.rank, rank, gate->arrival - flight_begin);
      if (sent >= t) return;  // defensive: zero-cost cycle, cannot progress
      t = sent;
      rank = sit->second.rank;
    }
  }

  void finish(CritStep& out) const {
    for (const auto& [id, secs] : phase_secs_) out.phases[rec_.name_of(id)] = secs;
    out.ranks = rank_secs_;
    out.path = path_;
    out.comm = comm_;
    out.links.reserve(link_secs_.size());
    for (const auto& [key, acc] : link_secs_)
      out.links.push_back(CritLink{key.first, key.second, acc.first, acc.second});
  }

 private:
  /// Latest receive on `rank` that matched at or before `t`, inside the
  /// window, and actually waited for the wire (arrival > post).
  const FlowEvent* latest_gating_recv(int rank, double t) const {
    const auto& recvs = ranks_[static_cast<std::size_t>(rank)].recvs;
    auto it = std::upper_bound(
        recvs.begin(), recvs.end(), t,
        [](double v, const FlowEvent& ev) { return v < ev.time; });
    while (it != recvs.begin()) {
      --it;
      if (it->time <= begin_) return nullptr;
      if (it->arrival > it->post) return &*it;
    }
    return nullptr;
  }

  /// Attribute [t0, t1] as local time on `rank`, split per overlapping span.
  ///
  /// Hierarchical spans (fcs.run > fcs.sort) nest, and attributing the
  /// interval to EVERY overlapping span is exactly the per-level phase
  /// accounting the reports want. Task-graph spans break that assumption:
  /// the overlapped fcs_run records "task." compute spans CONCURRENT with
  /// retroactive exchange-flight windows, so the same wall second is inside
  /// two task spans that are siblings, not ancestor/descendant. Those are
  /// split exclusively instead: the interval is cut at task-span boundaries
  /// and each elementary piece goes to the latest-begun covering task span
  /// (the activity that was actually dispatched last), keeping the task
  /// phase seconds tiling the local time - coverage stays 1 - while
  /// non-task spans keep the nested semantics.
  void local(int rank, double t0, double t1) {
    if (t1 <= t0) return;
    path_ += t1 - t0;
    rank_secs_[rank] += t1 - t0;
    const auto& spans = *ranks_[static_cast<std::size_t>(rank)].spans;
    // spans is end-time ordered: skip everything that ended before t0, then
    // scan the rest (begins are not ordered, so no early exit on begin).
    auto it = std::lower_bound(
        spans.begin(), spans.end(), t0,
        [](const SpanEvent& ev, double v) { return ev.end < v; });
    task_cover_.clear();
    for (; it != spans.end(); ++it) {
      const double ov = std::min(it->end, t1) - std::max(it->begin, t0);
      if (ov <= 0.0) continue;
      if (is_task_span(it->name_id))
        task_cover_.push_back(&*it);
      else
        phase_secs_[it->name_id] += ov;
    }
    if (task_cover_.empty()) return;
    if (task_cover_.size() == 1) {
      const SpanEvent& ev = *task_cover_.front();
      phase_secs_[ev.name_id] +=
          std::min(ev.end, t1) - std::max(ev.begin, t0);
      return;
    }
    // Elementary intervals between consecutive task-span boundaries.
    cuts_.clear();
    cuts_.push_back(t0);
    cuts_.push_back(t1);
    for (const SpanEvent* ev : task_cover_) {
      if (ev->begin > t0 && ev->begin < t1) cuts_.push_back(ev->begin);
      if (ev->end > t0 && ev->end < t1) cuts_.push_back(ev->end);
    }
    std::sort(cuts_.begin(), cuts_.end());
    for (std::size_t i = 0; i + 1 < cuts_.size(); ++i) {
      const double a = cuts_[i];
      const double b = cuts_[i + 1];
      if (b <= a) continue;
      const SpanEvent* winner = nullptr;
      for (const SpanEvent* ev : task_cover_)
        if (ev->begin <= a && ev->end >= b &&
            (winner == nullptr || ev->begin > winner->begin))
          winner = ev;
      if (winner != nullptr) phase_secs_[winner->name_id] += b - a;
    }
  }

  /// Is this span name "task."-prefixed? Cached per name id.
  bool is_task_span(int id) {
    const auto [it, inserted] = task_ids_.try_emplace(id, false);
    if (inserted) it->second = rec_.name_of(id).rfind("task.", 0) == 0;
    return it->second;
  }

  void flight(int src, int dst, double seconds) {
    path_ += seconds;
    comm_ += seconds;
    auto& acc = link_secs_[{src, dst}];
    acc.first += seconds;
    ++acc.second;
  }

  const Recorder& rec_;
  const std::vector<RankView>& ranks_;
  const std::unordered_map<std::uint64_t, SendRef>& sends_;
  double begin_;
  double path_ = 0.0;
  double comm_ = 0.0;
  std::map<int, double> phase_secs_;  // name id -> seconds
  std::map<int, double> rank_secs_;
  std::map<std::pair<int, int>, std::pair<double, std::uint64_t>> link_secs_;
  std::unordered_map<int, bool> task_ids_;      // name id -> "task." prefix
  std::vector<const SpanEvent*> task_cover_;    // scratch, reused per local()
  std::vector<double> cuts_;                    // scratch, reused per local()
};

void merge_into(CritStep& total, const CritStep& step) {
  total.makespan += step.makespan;
  total.path += step.path;
  total.comm += step.comm;
  for (const auto& [name, secs] : step.phases) total.phases[name] += secs;
  for (const auto& [rank, secs] : step.ranks) total.ranks[rank] += secs;
  for (const CritLink& link : step.links) {
    auto it = std::find_if(total.links.begin(), total.links.end(),
                           [&](const CritLink& l) {
                             return l.src == link.src && l.dst == link.dst;
                           });
    if (it == total.links.end()) {
      total.links.push_back(link);
    } else {
      it->seconds += link.seconds;
      it->msgs += link.msgs;
    }
  }
  total.slack.merge(step.slack);
}

}  // namespace

CritPathReport build_critpath(const Recorder& rec,
                              const CritPathOptions& opts) {
  FCS_CHECK(rec.record_spans(),
            "critpath needs a recorder with spans enabled");
  FCS_CHECK(rec.leaked_spans().empty(),
            "critpath on a recorder with unbalanced spans");
  const int nranks = rec.nranks();
  FCS_CHECK(nranks >= 1, "critpath on an unattached recorder");

  // Precompute per-rank views and the global flow-id -> send endpoint map.
  const int step_id = rec.find_name(opts.step_span);
  std::vector<RankView> views(static_cast<std::size_t>(nranks));
  std::unordered_map<std::uint64_t, SendRef> sends;
  std::size_t min_steps = static_cast<std::size_t>(-1);
  for (int r = 0; r < nranks; ++r) {
    RankView& view = views[static_cast<std::size_t>(r)];
    const RankObs& rank = rec.rank(r);
    view.spans = &rank.spans();
    for (const SpanEvent& ev : rank.spans()) {
      if (ev.name_id == step_id) view.steps.emplace_back(ev.begin, ev.end);
      view.last = std::max(view.last, ev.end);
    }
    std::sort(view.steps.begin(), view.steps.end());
    for (const FlowEvent& ev : rank.flows()) {
      if (ev.is_send)
        sends.emplace(ev.id, SendRef{r, ev.time});
      else
        view.recvs.push_back(ev);
      view.last = std::max(view.last, ev.time);
    }
    min_steps = std::min(min_steps, view.steps.size());
  }
  if (step_id < 0) min_steps = 0;

  CritPathReport report;
  report.total.step = -1;

  auto analyse = [&](CritStep& out) {
    // Window endpoints: out.begin/end and per-rank ends (in out.slack's
    // source) must already be set by the caller via the lambda's inputs.
    StepWalk walk(rec, views, sends, out.begin);
    walk.run(out.critical_rank, out.end);
    walk.finish(out);
    out.makespan = out.end - out.begin;
    out.coverage = out.makespan > 0.0 ? out.path / out.makespan : 0.0;
  };

  if (min_steps == 0) {
    // No common step structure: analyse the whole run as one window.
    CritStep& whole = report.total;
    whole.begin = 0.0;
    for (int r = 0; r < nranks; ++r) {
      const double e = views[static_cast<std::size_t>(r)].last;
      if (e > whole.end) {
        whole.end = e;
        whole.critical_rank = r;
      }
    }
    for (int r = 0; r < nranks; ++r)
      whole.slack.add(whole.end - views[static_cast<std::size_t>(r)].last);
    analyse(whole);
    return report;
  }

  report.steps.reserve(min_steps);
  for (std::size_t s = 0; s < min_steps; ++s) {
    CritStep step;
    step.step = static_cast<int>(s);
    step.begin = std::numeric_limits<double>::infinity();
    for (int r = 0; r < nranks; ++r) {
      const auto& [b, e] = views[static_cast<std::size_t>(r)].steps[s];
      step.begin = std::min(step.begin, b);
      if (e > step.end) {
        step.end = e;
        step.critical_rank = r;
      }
    }
    for (int r = 0; r < nranks; ++r)
      step.slack.add(step.end - views[static_cast<std::size_t>(r)].steps[s].second);
    analyse(step);
    report.steps.push_back(std::move(step));
  }

  CritStep& total = report.total;
  total.begin = report.steps.front().begin;
  total.end = report.steps.back().end;
  double worst = -1.0;
  for (const CritStep& step : report.steps) {
    merge_into(total, step);
    if (step.makespan > worst) {
      worst = step.makespan;
      total.critical_rank = step.critical_rank;
    }
  }
  std::sort(total.links.begin(), total.links.end(),
            [](const CritLink& a, const CritLink& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  total.coverage = total.makespan > 0.0 ? total.path / total.makespan : 0.0;
  return report;
}

}  // namespace obs
