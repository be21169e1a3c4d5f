#include "src/pebble/protocol.hpp"

#include <algorithm>
#include <bit>
#include <limits>
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

Protocol::Protocol(const Protocol& other)
    : num_guests_(other.num_guests_),
      num_hosts_(other.num_hosts_),
      guest_steps_(other.guest_steps_),
      codec_(other.codec_),
      chunks_(other.chunks_),
      stored_(other.stored_),
      steps_(other.steps_),
      num_ops_(other.num_ops_) {
  // Each stored step reads the same words of this protocol's copy of its
  // chunk.
  for (StoredStep& step : stored_) {
    if (step.words == nullptr) continue;
    const std::uint64_t* from = other.chunks_[step.chunk].words.get();
    step.words = chunks_[step.chunk].words.get() + (step.words - from);
  }
}

Protocol::Chunk::Chunk(std::size_t capacity_words)
    : words(std::make_unique_for_overwrite<std::uint64_t[]>(capacity_words)),
      capacity(capacity_words) {}

Protocol::Chunk::Chunk(const Chunk& other) : Chunk(other.capacity) {
  std::copy_n(other.words.get(), other.size, words.get());
  size = other.size;
}

void Protocol::open_chunk(std::size_t count) {
  std::size_t stored_so_far = 0;
  for (const Chunk& chunk : chunks_) stored_so_far += chunk.size;
  chunks_.emplace_back(
      std::max(count, std::clamp(stored_so_far, kFirstChunkWords, kMaxChunkWords)));
}

void Protocol::require_legal(OpFault fault) {
  if (fault == OpFault::kProc) {
    throw std::out_of_range{"Protocol::add: host processor out of range"};
  }
  if (fault == OpFault::kPebble) {
    throw std::out_of_range{"Protocol::add: pebble type out of range"};
  }
  if (fault == OpFault::kPartner) {
    throw std::out_of_range{"Protocol::add: partner out of range"};
  }
}

void Protocol::add_step(std::span<const Op> ops) {
  UPN_REQUIRE(host_steps() < std::numeric_limits<std::uint32_t>::max(),
              "Protocol::add_step: host step count overflows uint32");
  steps_.push_back({static_cast<std::uint32_t>(stored_.size()), 0});
  StoredStep& stored = stored_.emplace_back();
  if (ops.empty()) return;
  if (chunks_.empty() || ops.size() > chunks_.back().capacity - chunks_.back().size) {
    open_chunk(ops.size());
  }
  Chunk& chunk = chunks_.back();
  UPN_INVARIANT(ops.size() <= chunk.capacity - chunk.size,
                "Protocol::add_step: the step does not fit its chunk");
  // A local copy: stores to the chunk cannot alias its fields.
  const OpCodec codec = codec_;
  std::uint64_t* out = chunk.words.get() + chunk.size;
  stored.words = out;
  stored.chunk = static_cast<std::uint32_t>(chunks_.size() - 1);
  std::uint32_t latest = 0;
  std::size_t admitted = 0;
  OpFault fault = OpFault::kNone;
  for (; admitted < ops.size(); ++admitted) {
    const Op& op = ops[admitted];
    fault = fault_of(op);
    if (fault != OpFault::kNone) break;
    out[admitted] = codec.encode(op);
    latest = std::max(latest, op.pebble.time);
  }
  chunk.size += admitted;
  stored.size = admitted;
  stored.latest = latest;
  num_ops_ += admitted;
  require_legal(fault);
}

void Protocol::repeat_steps(std::uint32_t first, std::uint32_t last, std::uint32_t time_delta) {
  UPN_REQUIRE(first <= last && last <= host_steps(),
              "Protocol::repeat_steps: step range outside the protocol");
  const std::uint32_t count = last - first;
  UPN_REQUIRE(count <= std::numeric_limits<std::uint32_t>::max() - host_steps(),
              "Protocol::repeat_steps: host step count overflows uint32");
  std::uint64_t ops = 0;
  for (std::uint32_t s = first; s < last; ++s) {
    const StepRecord record = steps_[s];
    const std::size_t size = stored_words(record.stored).size();
    if (size > 0 &&
        std::uint64_t{stored_[record.stored].latest} + record.delta + time_delta > guest_steps_) {
      require_legal(OpFault::kPebble);
    }
    ops += size;
  }
  for (std::uint32_t s = first; s < last; ++s) {
    StepRecord record = steps_[s];
    // A step without ops carries no time, so its delta stays 0.
    if (!stored_words(record.stored).empty()) record.delta += time_delta;
    steps_.push_back(record);
  }
  num_ops_ += ops;
}

}  // namespace upn
