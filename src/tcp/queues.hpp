// The two server-side queues that state-exhaustion attacks target (§2.1):
// the listen queue of half-open connections (SYN floods fill this) and the
// accept queue of established-but-not-yet-accepted connections (connection
// floods fill this). Both are bounded by a backlog; the whole point of
// cookies and puzzles is what happens when they are full.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tcp/segment.hpp"
#include "util/time.hpp"

namespace tcpz::tcp {

/// How a connection came to be established; the metrics split on this.
enum class EstablishPath : std::uint8_t {
  kQueue,   ///< normal three-way handshake through the listen queue
  kCookie,  ///< reconstructed from a valid SYN cookie
  kPuzzle,  ///< admitted by a verified puzzle solution
};

/// State for one half-open connection (one listen-queue slot). This is the
/// per-SYN memory cost an attacker forces the server to pay — the paper's
/// protections exist to avoid allocating it blindly.
struct HalfOpenEntry {
  FlowKey flow;
  std::uint32_t client_isn = 0;
  std::uint32_t iss = 0;  ///< our initial sequence number
  std::uint16_t peer_mss = 536;
  std::uint8_t peer_wscale = 0;
  bool peer_ts_ok = false;
  std::uint32_t peer_tsval = 0;
  SimTime next_retx;
  int retx_count = 0;
  /// The final ACK arrived but the accept queue was full; the entry is kept
  /// (as Linux does) and promoted when room appears, until it expires.
  bool acked = false;
};

/// A fully established connection waiting for (or delivered by) accept().
struct AcceptedConnection {
  FlowKey flow;
  std::uint32_t client_isn = 0;
  std::uint32_t iss = 0;
  std::uint16_t peer_mss = 536;
  std::uint8_t peer_wscale = 0;
  EstablishPath path = EstablishPath::kQueue;
  SimTime established_at;
};

/// Bounded hash map of half-open connections. Iteration follows the hash
/// table, not arrival order; the expiry tick is kept cheap instead by a
/// conservative bound on the earliest retransmit deadline.
class ListenQueue {
 public:
  explicit ListenQueue(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }

  /// False if full or the flow is already present.
  bool insert(const HalfOpenEntry& entry);
  [[nodiscard]] HalfOpenEntry* find(const FlowKey& flow);
  void erase(const FlowKey& flow);

  /// No entry's next_retx is earlier than this. insert() lowers it and
  /// retain() recomputes it from the survivors; erase() leaves it alone, so
  /// a stale bound costs at most one sweep that finds nothing due.
  [[nodiscard]] SimTime next_deadline() const { return next_deadline_; }

  /// Applies `fn` to every entry; if it returns false the entry is removed.
  /// `fn` may move an entry's next_retx. Used by the expiry/retransmit tick.
  template <typename Fn>
  void retain(Fn&& fn) {
    SimTime earliest = SimTime::max();
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (fn(it->second)) {
        earliest = std::min(earliest, it->second.next_retx);
        ++it;
      } else {
        it = entries_.erase(it);
      }
    }
    next_deadline_ = earliest;
  }

 private:
  std::size_t capacity_;
  std::unordered_map<FlowKey, HalfOpenEntry, FlowKeyHash> entries_;
  SimTime next_deadline_ = SimTime::max();
};

/// Bounded FIFO of established connections awaiting accept(), with an O(1)
/// membership index (the replay defence checks membership per solution-ACK,
/// which arrive thousands of times per second under attack).
class AcceptQueue {
 public:
  explicit AcceptQueue(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool full() const { return queue_.size() >= capacity_; }

  /// False if full.
  bool push(const AcceptedConnection& conn);
  [[nodiscard]] std::optional<AcceptedConnection> pop();
  /// True if a connection for this flow is still waiting in the queue.
  [[nodiscard]] bool contains(const FlowKey& flow) const {
    return members_.contains(flow);
  }

 private:
  std::size_t capacity_;
  std::deque<AcceptedConnection> queue_;
  std::unordered_set<FlowKey, FlowKeyHash> members_;
};

}  // namespace tcpz::tcp
