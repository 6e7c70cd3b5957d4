#include "tcp/queues.hpp"

namespace tcpz::tcp {

bool ListenQueue::insert(const HalfOpenEntry& entry) {
  if (full() || !entries_.emplace(entry.flow, entry).second) return false;
  next_deadline_ = std::min(next_deadline_, entry.next_retx);
  return true;
}

HalfOpenEntry* ListenQueue::find(const FlowKey& flow) {
  const auto it = entries_.find(flow);
  return it == entries_.end() ? nullptr : &it->second;
}

void ListenQueue::erase(const FlowKey& flow) { entries_.erase(flow); }

bool AcceptQueue::push(const AcceptedConnection& conn) {
  if (full()) return false;
  queue_.push_back(conn);
  members_.insert(conn.flow);
  return true;
}

std::optional<AcceptedConnection> AcceptQueue::pop() {
  if (queue_.empty()) return std::nullopt;
  AcceptedConnection front = queue_.front();
  queue_.pop_front();
  members_.erase(front.flow);
  return front;
}

}  // namespace tcpz::tcp
