#include "src/pebble/stats.hpp"

namespace upn {

ProtocolStats protocol_stats(const Protocol& protocol) {
  ProtocolStats stats;
  std::vector<std::uint64_t> per_proc(protocol.num_hosts(), 0);
  for (std::uint32_t s = 0; s < protocol.host_steps(); ++s) {
    for (const Op& op : protocol.step(s)) {
      switch (op.kind) {
        case OpKind::kGenerate:
          ++stats.generates;
          break;
        case OpKind::kSend:
          ++stats.sends;
          break;
        case OpKind::kReceive:
          ++stats.receives;
          break;
      }
      ++per_proc[op.proc];
    }
  }
  const std::uint64_t ops = stats.generates + stats.sends + stats.receives;
  const std::uint64_t slots =
      static_cast<std::uint64_t>(protocol.host_steps()) * protocol.num_hosts();
  stats.idle_slots = slots - ops;
  stats.utilization = slots == 0 ? 0.0 : static_cast<double>(ops) / static_cast<double>(slots);
  stats.comm_fraction =
      ops == 0 ? 0.0 : static_cast<double>(stats.sends + stats.receives) /
                           static_cast<double>(ops);
  stats.busiest_proc_ops = 0;
  stats.laziest_proc_ops = slots;  // larger than any possible count
  for (std::uint32_t q = 0; q < per_proc.size(); ++q) {
    if (per_proc[q] > stats.busiest_proc_ops) {
      stats.busiest_proc_ops = per_proc[q];
      stats.busiest_proc = q;
    }
    if (per_proc[q] < stats.laziest_proc_ops) {
      stats.laziest_proc_ops = per_proc[q];
      stats.laziest_proc = q;
    }
  }
  return stats;
}

}  // namespace upn
