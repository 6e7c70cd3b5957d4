// The two server-side queues that state-exhaustion attacks target (§2.1):
// the listen queue of half-open connections (SYN floods fill this) and the
// accept queue of established-but-not-yet-accepted connections (connection
// floods fill this). Both are bounded by a backlog; the whole point of
// cookies and puzzles is what happens when they are full.
#pragma once

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

/// Bounded map of half-open connections, FIFO-iterable for expiry scans.
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

  /// Applies `fn` to every entry; if it returns false the entry is removed.
  /// Used by the expiry/retransmit tick.
  template <typename Fn>
  void retain(Fn&& fn) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (fn(it->second)) {
        ++it;
      } else {
        it = entries_.erase(it);
      }
    }
  }

 private:
  std::size_t capacity_;
  std::unordered_map<FlowKey, HalfOpenEntry, FlowKeyHash> entries_;
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
