#include "tcp/queues.hpp"

namespace tcpz::tcp {

bool ListenQueue::insert(const HalfOpenEntry& entry) {
  if (full()) return false;
  const auto [slot, added] =
      index_.find_or_claim(tag(entry.flow), holds(entry.flow));
  if (!added) return false;
  slot->pos = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(entry);
  next_deadline_ = std::min(next_deadline_, entry.next_retx);
  return true;
}

HalfOpenEntry* ListenQueue::find(const FlowKey& flow) {
  const IndexSlot* slot = index_.find(tag(flow), holds(flow));
  return slot == nullptr ? nullptr : &entries_[slot->pos];
}

void ListenQueue::erase(const FlowKey& flow) {
  if (IndexSlot* slot = index_.find(tag(flow), holds(flow))) remove(slot);
}

void ListenQueue::remove(IndexSlot* slot) {
  const std::size_t pos = slot->pos;
  index_.erase(slot);
  const std::size_t last = entries_.size() - 1;
  if (pos != last) {
    index_.find(tag(entries_[last].flow), at(last))->pos =
        static_cast<std::uint32_t>(pos);
    entries_[pos] = entries_[last];
  }
  entries_.pop_back();
}

bool AcceptQueue::push(const AcceptedConnection& conn) {
  if (full()) return false;
  queue_.push_back(conn);
  return true;
}

std::optional<AcceptedConnection> AcceptQueue::pop() {
  if (queue_.empty()) return std::nullopt;
  AcceptedConnection front = queue_.front();
  queue_.pop_front();
  return front;
}

}  // namespace tcpz::tcp
