#include "src/pebble/protocol.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace upn {

namespace {

/// ceil(log2 count): the bits that hold every value below `count`.
unsigned bits_below(std::uint64_t count) noexcept {
  return count <= 1 ? 0u : static_cast<unsigned>(std::bit_width(count - 1));
}

std::uint64_t low_mask(unsigned bits) noexcept { return (std::uint64_t{1} << bits) - 1; }

}  // namespace

ProtocolHeaderTooWide::ProtocolHeaderTooWide(std::uint32_t num_guests, std::uint32_t num_hosts,
                                             std::uint32_t guest_steps, unsigned bits)
    : std::length_error{"Protocol: header n=" + std::to_string(num_guests) +
                        " m=" + std::to_string(num_hosts) + " T=" +
                        std::to_string(guest_steps) + " needs " + std::to_string(bits) +
                        " bits per op, more than one 64-bit word"} {}

OpCodec::OpCodec(std::uint32_t num_guests, std::uint32_t num_hosts,
                 std::uint32_t guest_steps) {
  const unsigned node_bits = bits_below(num_guests);
  const unsigned time_bits = bits_below(std::uint64_t{guest_steps} + 1);
  const unsigned host_bits = bits_below(num_hosts);
  const unsigned bits = 2 + 2 * host_bits + time_bits + node_bits;
  if (bits > 64) throw ProtocolHeaderTooWide{num_guests, num_hosts, guest_steps, bits};
  host_mask_ = low_mask(host_bits);
  time_mask_ = low_mask(time_bits);
  node_mask_ = low_mask(node_bits);
  unsigned offset = kProcShift + host_bits;
  auto place = [&offset](unsigned field_bits) {
    const unsigned shift = field_bits == 0 ? 0 : offset;
    offset += field_bits;
    return shift;
  };
  partner_shift_ = place(host_bits);
  time_shift_ = place(time_bits);
  node_shift_ = place(node_bits);
}

Protocol::Protocol(std::uint32_t num_guests, std::uint32_t num_hosts,
                   std::uint32_t guest_steps)
    : num_guests_(num_guests),
      num_hosts_(num_hosts),
      guest_steps_(guest_steps),
      codec_(num_guests, num_hosts, guest_steps) {}

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

void Protocol::add(const Op& op) {
  const std::uint32_t current = host_steps();
  require_legal(current, fault_of(op, current));
  mark_acted(op.proc, current);
  ops_.push_back(codec_.encode(op));
  ++step_offsets_.back();
}

void Protocol::add_step(std::span<const Op> ops) {
  const std::uint32_t current = host_steps();
  // A local copy: stores to the op array cannot alias its fields.
  const OpCodec codec = codec_;
  const std::size_t base = ops_.size();
  ops_.resize(base + ops.size());
  std::uint64_t* out = ops_.data() + base;
  std::size_t admitted = 0;
  OpFault fault = OpFault::kNone;
  for (; admitted < ops.size(); ++admitted) {
    const Op& op = ops[admitted];
    fault = fault_of(op, current);
    if (fault != OpFault::kNone) break;
    mark_acted(op.proc, current);
    out[admitted] = codec.encode(op);
  }
  ops_.resize(base + admitted);
  step_offsets_.back() += admitted;
  if (admitted < ops.size()) require_legal(current, fault);
}

void Protocol::repeat_steps(std::uint32_t first, std::uint32_t last, std::uint32_t time_delta) {
  UPN_REQUIRE(first <= last && last <= host_steps(),
              "Protocol::repeat_steps: step range outside the protocol");
  const std::uint32_t count = last - first;
  UPN_REQUIRE(count <= std::numeric_limits<std::uint32_t>::max() - host_steps(),
              "Protocol::repeat_steps: host step count overflows uint32");
  if (count == 0) return;
  const OpCodec codec = codec_;
  const std::size_t source = step_offsets_[first];
  const std::size_t size = step_offsets_[last] - source;
  const std::size_t base = ops_.size();
  ops_.resize(base + size);
  // The source lies wholly before `base`, so the two ranges never overlap.
  const std::uint64_t* in = ops_.data() + source;
  std::uint64_t* out = ops_.data() + base;
  const std::uint64_t raise = codec.time_raise(time_delta);
  std::uint32_t latest = 0;
  for (std::size_t k = 0; k < size; ++k) {
    out[k] = in[k] + raise;
    latest = std::max(latest, codec.time_of(in[k]));
  }
  if (size > 0 && std::uint64_t{latest} + time_delta > guest_steps_) {
    ops_.resize(base);
    require_legal(host_steps(), OpFault::kPebble);
  }
  const std::size_t steps = step_offsets_.size();
  step_offsets_.resize(steps + count);
  for (std::uint32_t k = 0; k < count; ++k) {
    step_offsets_[steps + k] = step_offsets_[first + k + 1] - source + base;
  }
  const std::uint32_t current = host_steps();
  for (std::size_t k = step_offsets_[current - 1]; k < ops_.size(); ++k) {
    mark_acted(codec.proc_of(ops_[k]), current);
  }
}

void Protocol::reserve(std::uint64_t total_ops, std::uint64_t total_steps) {
  UPN_REQUIRE(total_ops <= ops_.max_size() && total_steps < step_offsets_.max_size(),
              "Protocol::reserve: size exceeds the address space");
  ops_.reserve(static_cast<std::size_t>(total_ops));
  step_offsets_.reserve(static_cast<std::size_t>(total_steps) + 1);
}

}  // namespace upn
