#include "src/pebble/protocol.hpp"

namespace upn {

Protocol::Protocol(std::uint32_t num_guests, std::uint32_t num_hosts,
                   std::uint32_t guest_steps)
    : num_guests_(num_guests), num_hosts_(num_hosts), guest_steps_(guest_steps) {
  UPN_REQUIRE(num_hosts <= kMaxProtocolHosts,
              "Protocol: host count exceeds the 30-bit processor field of Op");
  proc_used_step_.assign(num_hosts, 0);
}

Protocol::OpFault Protocol::fault_of(OpKind kind, std::uint32_t proc, PebbleType pebble,
                                     std::uint32_t partner,
                                     std::uint32_t current) const noexcept {
  if (proc >= num_hosts_) return OpFault::kProc;
  if (pebble.node >= num_guests_ || pebble.time > guest_steps_) return OpFault::kPebble;
  if (kind != OpKind::kGenerate && partner >= num_hosts_) return OpFault::kPartner;
  if (proc_used_step_[proc] == current) return OpFault::kProcBusy;
  return OpFault::kNone;
}

void Protocol::require_legal(std::uint32_t current, OpFault fault) {
  UPN_REQUIRE(current > 0, "Protocol::add: begin_step() first");
  if (fault == OpFault::kProc) {
    throw std::out_of_range{"Protocol::add: host processor out of range"};
  }
  if (fault == OpFault::kPebble) {
    throw std::out_of_range{"Protocol::add: pebble type out of range"};
  }
  if (fault == OpFault::kPartner) {
    throw std::out_of_range{"Protocol::add: partner out of range"};
  }
  UPN_REQUIRE(fault != OpFault::kProcBusy,
              "Protocol::add: processor already acted this step (pebble-game legality: "
              "at most one operation per processor per host step)");
}

void Protocol::add(OpKind kind, std::uint32_t proc, PebbleType pebble, std::uint32_t partner) {
  const std::uint32_t current = host_steps();
  require_legal(current, fault_of(kind, proc, pebble, partner, current));
  proc_used_step_[proc] = current;
  ops_.push_back(Op{kind, proc, pebble, partner});
  ++step_offsets_.back();
}

void Protocol::add_step(std::span<const Op> ops) {
  const std::uint32_t current = host_steps();
  std::size_t admitted = 0;
  OpFault fault = OpFault::kNone;
  // With no open step (current == 0) every processor reads as busy, so
  // nothing is admitted and require_legal throws add()'s begin_step error.
  for (; admitted < ops.size(); ++admitted) {
    const Op& op = ops[admitted];
    fault = fault_of(op.kind, op.proc, op.pebble, op.partner, current);
    if (fault != OpFault::kNone) break;
    proc_used_step_[op.proc] = current;
  }
  const std::span<const Op> legal = ops.first(admitted);
  ops_.insert(ops_.end(), legal.begin(), legal.end());
  step_offsets_.back() += admitted;
  if (admitted < ops.size()) require_legal(current, fault);
}

void Protocol::reserve(std::uint64_t total_ops, std::uint64_t total_steps) {
  UPN_REQUIRE(total_ops <= ops_.max_size() && total_steps < step_offsets_.max_size(),
              "Protocol::reserve: size exceeds the address space");
  ops_.reserve(static_cast<std::size_t>(total_ops));
  step_offsets_.reserve(static_cast<std::size_t>(total_steps) + 1);
}

}  // namespace upn
