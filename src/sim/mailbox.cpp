#include "sim/mailbox.hpp"

#include <iterator>

#include "support/error.hpp"

namespace sim {

Mailbox::Mailbox(int nranks) : queues_(static_cast<std::size_t>(nranks)) {}

void Mailbox::deliver(int dst, Message m) {
  FCS_ASSERT(dst >= 0 && static_cast<std::size_t>(dst) < queues_.size());
  queues_[static_cast<std::size_t>(dst)][m.src].push_back(std::move(m));
}

std::size_t Mailbox::find_in_source(const std::deque<Message>& q,
                                    std::int64_t tag) {
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (tag == kAnyTag || q[i].tag == static_cast<std::uint64_t>(tag))
      return i;
  }
  return npos;
}

std::optional<Message> Mailbox::try_match(int dst, int src, std::int64_t tag) {
  auto& by_source = queues_[static_cast<std::size_t>(dst)];
  SourceQueues::iterator chosen = by_source.end();
  std::size_t chosen_index = npos;
  if (src != kAnySource) {
    auto it = by_source.find(src);
    if (it == by_source.end()) return std::nullopt;
    chosen_index = find_in_source(it->second, tag);
    if (chosen_index == npos) return std::nullopt;
    chosen = it;
  } else {
    // Wildcard: among every source's earliest matching message, take the one
    // with the smallest (arrival, src, seq).
    for (auto it = by_source.begin(); it != by_source.end(); ++it) {
      const std::size_t i = find_in_source(it->second, tag);
      if (i == npos) continue;
      const Message& m = it->second[i];
      if (chosen == by_source.end()) {
        chosen = it;
        chosen_index = i;
        continue;
      }
      const Message& best = chosen->second[chosen_index];
      if (m.arrival < best.arrival ||
          (m.arrival == best.arrival &&
           (m.src < best.src || (m.src == best.src && m.seq < best.seq)))) {
        chosen = it;
        chosen_index = i;
      }
    }
    if (chosen == by_source.end()) return std::nullopt;
  }
  Message out = std::move(chosen->second[chosen_index]);
  chosen->second.erase(chosen->second.begin() +
                       static_cast<std::ptrdiff_t>(chosen_index));
  if (chosen->second.empty()) by_source.erase(chosen);
  return out;
}

std::optional<Message> Mailbox::try_match_arrived(int dst, int src,
                                                  std::int64_t tag,
                                                  double now) {
  auto& by_source = queues_[static_cast<std::size_t>(dst)];
  SourceQueues::iterator chosen = by_source.end();
  std::size_t chosen_index = npos;
  if (src != kAnySource) {
    auto it = by_source.find(src);
    if (it == by_source.end()) return std::nullopt;
    chosen_index = find_in_source(it->second, tag);
    if (chosen_index == npos) return std::nullopt;
    if (it->second[chosen_index].arrival > now) return std::nullopt;
    chosen = it;
  } else {
    for (auto it = by_source.begin(); it != by_source.end(); ++it) {
      const std::size_t i = find_in_source(it->second, tag);
      if (i == npos) continue;
      const Message& m = it->second[i];
      if (m.arrival > now) continue;  // in flight: this source yields nothing
      if (chosen == by_source.end()) {
        chosen = it;
        chosen_index = i;
        continue;
      }
      const Message& best = chosen->second[chosen_index];
      if (m.arrival < best.arrival ||
          (m.arrival == best.arrival &&
           (m.src < best.src || (m.src == best.src && m.seq < best.seq)))) {
        chosen = it;
        chosen_index = i;
      }
    }
    if (chosen == by_source.end()) return std::nullopt;
  }
  Message out = std::move(chosen->second[chosen_index]);
  chosen->second.erase(chosen->second.begin() +
                       static_cast<std::ptrdiff_t>(chosen_index));
  if (chosen->second.empty()) by_source.erase(chosen);
  return out;
}

bool Mailbox::has_match(int dst, int src, std::int64_t tag) const {
  const auto& by_source = queues_[static_cast<std::size_t>(dst)];
  if (src != kAnySource) {
    auto it = by_source.find(src);
    return it != by_source.end() && find_in_source(it->second, tag) != npos;
  }
  for (const auto& [s, q] : by_source) {
    (void)s;
    if (find_in_source(q, tag) != npos) return true;
  }
  return false;
}

std::size_t Mailbox::purge(int dst,
                           const std::function<bool(const Message&)>& keep) {
  auto& by_source = queues_[static_cast<std::size_t>(dst)];
  std::size_t dropped_bytes = 0;
  for (auto it = by_source.begin(); it != by_source.end();) {
    std::deque<Message>& q = it->second;
    for (std::size_t i = 0; i < q.size();) {
      if (keep != nullptr && keep(q[i])) {
        ++i;
        continue;
      }
      dropped_bytes += q[i].payload.size();
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
    }
    it = q.empty() ? by_source.erase(it) : std::next(it);
  }
  return dropped_bytes;
}

}  // namespace sim
