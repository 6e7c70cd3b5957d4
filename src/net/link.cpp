#include "net/link.hpp"

#include <algorithm>
#include <type_traits>

#include "net/node.hpp"
#include "net/simulator.hpp"
#include "obs/trace.hpp"

namespace tcpz::net {

Link::Link(Simulator& sim, Node& dst, double bandwidth_bps, SimTime delay,
           std::size_t queue_cap_bytes)
    : sim_(sim),
      dst_(dst),
      bandwidth_bps_(bandwidth_bps),
      delay_(delay),
      queue_cap_bytes_(queue_cap_bytes) {}

std::size_t Link::backlog_bytes() const {
  const SimTime now = sim_.now();
  if (busy_until_ <= now) return 0;
  const double busy_sec = (busy_until_ - now).to_seconds();
  return static_cast<std::size_t>(busy_sec * bandwidth_bps_ / 8.0);
}

void Link::transmit(const tcp::Segment& seg) {
  const std::uint32_t bytes = seg.wire_size();
  if (backlog_bytes() + bytes > queue_cap_bytes_) {
    ++stats_.drops;
    TCPZ_TRACE(sim_.now(), obs::Code::kLinkDrop, /*track=*/0, seg, bytes);
    return;
  }
  const SimTime now = sim_.now();
  const SimTime start = std::max(now, busy_until_);
  const SimTime ser = SimTime::from_seconds(bytes * 8.0 / bandwidth_bps_);
  busy_until_ = start + ser;
  const SimTime arrival = busy_until_ + delay_;
  TCPZ_TRACE(now, obs::Code::kLinkTx, /*track=*/0, seg, bytes,
             static_cast<std::uint64_t>(arrival.nanos()));

  ++stats_.tx_packets;
  stats_.tx_bytes += bytes;

  // The segment is copied into the closure: the wire owns its packet. This
  // is the hottest event in any scenario, so the closure must fit the event
  // core's inline buffer AND the copy itself must be a plain memcpy —
  // per-packet heap allocation would cap fleet-scale runs (see
  // net/event_core.hpp). The option payloads live inline in the Segment
  // (util/inline_bytes.hpp), which is what makes both asserts hold.
  static_assert(std::is_trivially_copyable_v<tcp::Segment>,
                "segment copies must be memcpys, not allocator calls");
  auto deliver = [this, seg] { dst_.deliver(seg); };
  static_assert(sizeof(deliver) <= detail::kInlineActionBytes,
                "segment delivery closure must stay allocation-free");
  sim_.schedule_at(arrival, std::move(deliver));
}

}  // namespace tcpz::net
