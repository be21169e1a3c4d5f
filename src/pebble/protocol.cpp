#include "src/pebble/protocol.hpp"

namespace upn {

Protocol::Protocol(std::uint32_t num_guests, std::uint32_t num_hosts,
                   std::uint32_t guest_steps)
    : num_guests_(num_guests), num_hosts_(num_hosts), guest_steps_(guest_steps) {
  UPN_REQUIRE(num_hosts <= kMaxProtocolHosts,
              "Protocol: host count exceeds the 30-bit processor field of Op");
  proc_used_step_.assign(num_hosts, 0);
}

void Protocol::add(OpKind kind, std::uint32_t proc, PebbleType pebble, std::uint32_t partner) {
  UPN_REQUIRE(host_steps() > 0, "Protocol::add: begin_step() first");
  if (proc >= num_hosts_) {
    throw std::out_of_range{"Protocol::add: host processor out of range"};
  }
  if (pebble.node >= num_guests_ || pebble.time > guest_steps_) {
    throw std::out_of_range{"Protocol::add: pebble type out of range"};
  }
  if (kind != OpKind::kGenerate && partner >= num_hosts_) {
    throw std::out_of_range{"Protocol::add: partner out of range"};
  }
  const std::uint32_t current = host_steps();
  UPN_REQUIRE(proc_used_step_[proc] != current,
              "Protocol::add: processor already acted this step (pebble-game legality: "
              "at most one operation per processor per host step)");
  proc_used_step_[proc] = current;
  ops_.push_back(Op{kind, proc, pebble, partner});
  ++step_offsets_.back();
}

void Protocol::reserve(std::uint64_t total_ops, std::uint64_t total_steps) {
  UPN_REQUIRE(total_ops <= ops_.max_size() && total_steps < step_offsets_.max_size(),
              "Protocol::reserve: size exceeds the address space");
  ops_.reserve(static_cast<std::size_t>(total_ops));
  step_offsets_.reserve(static_cast<std::size_t>(total_steps) + 1);
}

}  // namespace upn
