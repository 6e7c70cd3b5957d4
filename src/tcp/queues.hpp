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
#include <vector>

#include "tcp/segment.hpp"
#include "util/flat_table.hpp"
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

/// Bounded set of half-open connections. The entries live in a dense
/// array, and erase swaps the last entry into the hole. A flat index of
/// 8-byte {hash, position} slots finds them, so a lookup miss (the common
/// case for a SYN) touches only the index. Iteration follows the dense
/// array: arrival order until an erase moves the last entry forward. The
/// expiry tick is kept cheap by a conservative bound on the earliest
/// retransmit deadline.
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

  /// Applies `fn` to every entry in dense-array order; if it returns false
  /// the entry is removed and the last entry, moved into its place, is
  /// visited next. `fn` may move an entry's next_retx. Used by the
  /// expiry/retransmit tick.
  template <typename Fn>
  void retain(Fn&& fn) {
    SimTime earliest = SimTime::max();
    for (std::size_t i = 0; i < entries_.size();) {
      if (fn(entries_[i])) {
        earliest = std::min(earliest, entries_[i].next_retx);
        ++i;
      } else {
        remove(index_.find(tag(entries_[i].flow), at(i)));
      }
    }
    next_deadline_ = earliest;
  }

 private:
  struct IndexSlot {
    std::uint32_t hash = 0;
    std::uint32_t pos = 0;  ///< index into entries_
  };

  [[nodiscard]] static std::uint32_t tag(const FlowKey& flow) {
    return slot_hash(FlowKeyHash{}(flow));
  }
  [[nodiscard]] auto holds(const FlowKey& flow) const {
    return [this, &flow](const IndexSlot& s) {
      return entries_[s.pos].flow == flow;
    };
  }
  [[nodiscard]] static auto at(std::size_t pos) {
    return [pos](const IndexSlot& s) { return s.pos == pos; };
  }
  /// Drops the slot's entry: swap-remove in entries_, index repointed.
  void remove(IndexSlot* slot);

  std::size_t capacity_;
  std::vector<HalfOpenEntry> entries_;
  FlatTable<IndexSlot> index_;
  SimTime next_deadline_ = SimTime::max();
};

/// Bounded FIFO of established connections awaiting accept().
class AcceptQueue {
 public:
  explicit AcceptQueue(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool full() const { return queue_.size() >= capacity_; }

  /// False if full.
  bool push(const AcceptedConnection& conn);
  [[nodiscard]] std::optional<AcceptedConnection> pop();

 private:
  std::size_t capacity_;
  std::deque<AcceptedConnection> queue_;
};

/// What the listener remembers about an admitted flow: established (until
/// closed or reset) and how many of its connections wait in the accept
/// queue. A flow with neither has no record, so one probe answers "is this
/// flow already admitted?" for the replay defence, which asks it per
/// solution-ACK (thousands per second under attack).
struct AdmittedFlow {
  bool established = false;
  std::uint32_t queued = 0;
};
using AdmittedFlows = FlatMap<FlowKey, AdmittedFlow, FlowKeyHash>;

}  // namespace tcpz::tcp
