// Message transport between simulated ranks.
//
// Sends are eager: the payload is copied into a Message that sits in the
// destination rank's mailbox until a matching receive consumes it. Matching
// follows MPI semantics: a receive names a (source, tag) pair, either of
// which may be a wildcard; messages between one (src, dst) pair are
// non-overtaking (matched in send order); wildcard-source receives pick the
// matching message with the earliest virtual arrival time.
//
// Storage is a per-destination map keyed by source rank so that matching a
// named source is O(messages from that source) and wildcard matching is
// O(active sources) - both stay cheap even with tens of thousands of ranks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

namespace sim {

inline constexpr int kAnySource = -1;
inline constexpr std::int64_t kAnyTag = -1;

struct Message {
  int src = 0;
  std::uint64_t tag = 0;
  std::uint64_t seq = 0;      // global send order, for deterministic ties
  std::uint64_t flow = 0;     // causal flow id: the seq of the first
                              // transmission; retransmits and duplicates keep
                              // it, so a matched recv names its logical send
  std::uint64_t chan_seq = 0; // per-(src,dst) sequence under fault injection;
                              // 0 = outside the reliable-channel protocol
  double arrival = 0.0;       // virtual time the last byte reaches dst
  std::vector<std::byte> payload;
};

class Mailbox {
 public:
  explicit Mailbox(int nranks);

  void deliver(int dst, Message m);

  /// Remove and return the message matching (src, tag) for rank dst, or
  /// nullopt if none has been delivered yet.
  std::optional<Message> try_match(int dst, int src, std::int64_t tag);

  /// Like try_match, but only consumes a message whose last byte has ARRIVED
  /// (arrival <= now). Non-overtaking is preserved per source: if the first
  /// tag match from a source is still in flight, that source yields nothing
  /// rather than a later message. This is the polling primitive of the async
  /// progress engine - the CPU checks the wire without blocking.
  std::optional<Message> try_match_arrived(int dst, int src, std::int64_t tag,
                                           double now);

  /// True if some message for dst matches (src, tag) - used by probe.
  bool has_match(int dst, int src, std::int64_t tag) const;

  /// Drop every pending message of `dst` for which `keep` returns false
  /// (keep == nullptr drops everything). Returns the number of payload
  /// bytes discarded. Used by the recovery path to flush traffic of aborted
  /// collectives after a rank failure.
  std::size_t purge(int dst, const std::function<bool(const Message&)>& keep);

  std::uint64_t next_seq() { return seq_counter_++; }

 private:
  using SourceQueues = std::unordered_map<int, std::deque<Message>>;

  /// First message from `q` matching `tag` (per-source queues are already in
  /// send order, so the first tag match is the legal one). Returns index or
  /// npos.
  static std::size_t find_in_source(const std::deque<Message>& q,
                                    std::int64_t tag);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::vector<SourceQueues> queues_;  // one map per destination rank
  std::uint64_t seq_counter_ = 0;
};

}  // namespace sim
