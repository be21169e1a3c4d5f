// The pebble-game simulation model of Section 3.1.
//
// A pebble of type (P_i, t) stands for the configuration of guest processor
// P_i at guest time t.  Initially every host processor holds all pebbles
// (P_1, 0), ..., (P_n, 0).  In every host time step every processor performs
// at most ONE of:
//
//   * GENERATE a pebble (P_i, t): allowed only if the processor holds
//     (P_i, t-1) and (P_j, t-1) for every guest neighbor P_j of P_i;
//   * SEND a copy of one held pebble to a neighboring host processor
//     (pebbles are never lost -- the sender keeps its copy);
//   * RECEIVE a pebble from a neighbor (at most one per step).
//
// After T' host steps, every final pebble (P_i, T) must have been generated
// somewhere.  A Protocol is the full listing of operations; the validator
// (validator.hpp) replays it against the guest and host graphs.
//
// Layout: one flat array of 16-byte ops plus a CSR `step_offsets` array
// (host step s owns ops [step_offsets[s], step_offsets[s+1])), so emitting,
// replaying and indexing a protocol are single passes over contiguous memory.
// An emitter that builds a whole host step first hands it over with
// add_step(): the ops are checked one by one exactly as add() checks them,
// then appended to the flat array in one insert (up to the first illegal op,
// which throws what add() throws).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/topology/graph.hpp"
#include "src/util/contracts.hpp"
#include "src/util/mapped_allocator.hpp"

namespace upn {

/// Pebble type (P_i, t).
struct PebbleType {
  NodeId node = 0;      ///< i: guest processor index
  std::uint32_t time = 0;  ///< t: guest time step

  friend bool operator==(const PebbleType&, const PebbleType&) = default;
};

enum class OpKind : std::uint8_t { kGenerate, kSend, kReceive };

/// Host processors a Protocol can address: Op packs the processor id into
/// the 30 bits next to its 2-bit kind.
inline constexpr std::uint32_t kMaxProtocolHosts = 1u << 30;

/// One operation, packed to 16 bytes: kind and processor share a word.
struct Op {
  OpKind kind : 2;
  std::uint32_t proc : 30;  ///< host processor performing the operation
  PebbleType pebble;        ///< the pebble generated / sent / received
  std::uint32_t partner;    ///< send: receiver; receive: sender; else unused

  constexpr Op() noexcept : kind(OpKind::kGenerate), proc(0), partner(0) {}
  /// `op_proc` must be below kMaxProtocolHosts; higher bits are dropped.
  /// Protocol::add's unpacked overload range-checks untrusted ids first.
  constexpr Op(OpKind op_kind, std::uint32_t op_proc, PebbleType op_pebble,
               std::uint32_t op_partner) noexcept
      : kind(op_kind),
        proc(op_proc & (kMaxProtocolHosts - 1)),
        pebble(op_pebble),
        partner(op_partner) {}
};
static_assert(sizeof(Op) <= 16, "Op must stay packed: a protocol is an array of them");

/// A simulation protocol S: host steps, each a list of operations (at most
/// one per processor -- enforced at insertion and again by the validator).
class Protocol {
 public:
  Protocol(std::uint32_t num_guests, std::uint32_t num_hosts, std::uint32_t guest_steps);

  /// Opens a new host time step.
  void begin_step() {
    UPN_REQUIRE(host_steps() < std::numeric_limits<std::uint32_t>::max(),
                "Protocol::begin_step: host step count overflows uint32");
    step_offsets_.push_back(step_offsets_.back());
  }

  /// Adds an operation to the current host step.
  void add(const Op& op) { add(op.kind, op.proc, op.pebble, op.partner); }

  /// add(Op) on unpacked fields: the full 32-bit processor id is
  /// range-checked before it is packed (read_protocol's entry point).
  void add(OpKind kind, std::uint32_t proc, PebbleType pebble, std::uint32_t partner);

  /// add(op) for every op of `ops` in order, appended in one insert.  An
  /// illegal op throws what add() throws, with the ops before it kept.
  /// `ops` must not view this protocol's own storage.
  void add_step(std::span<const Op> ops);

  /// Pre-sizes the flat arrays to hold `total_ops` operations in
  /// `total_steps` host steps, so an emitter that knows its size appends
  /// without reallocating (and never holds two copies of a large array).
  void reserve(std::uint64_t total_ops, std::uint64_t total_steps);

  [[nodiscard]] std::uint32_t num_guests() const noexcept { return num_guests_; }
  [[nodiscard]] std::uint32_t num_hosts() const noexcept { return num_hosts_; }
  [[nodiscard]] std::uint32_t guest_steps() const noexcept { return guest_steps_; }
  /// T': number of host steps.
  [[nodiscard]] std::uint32_t host_steps() const noexcept {
    return static_cast<std::uint32_t>(step_offsets_.size() - 1);
  }

  /// Every operation, in step order.
  [[nodiscard]] std::span<const Op> ops() const {
    UPN_ENSURE(step_offsets_.back() == ops_.size(), "Protocol: step offsets must close on ops");
    return ops_;
  }

  /// The operations of host step `s`.
  [[nodiscard]] std::span<const Op> step(std::uint32_t s) const {
    UPN_REQUIRE(s < host_steps(), "Protocol::step: host step out of range");
    return std::span<const Op>{ops_}.subspan(step_offsets_[s],
                                             step_offsets_[s + 1] - step_offsets_[s]);
  }

  [[nodiscard]] std::uint64_t num_ops() const noexcept { return ops_.size(); }

  /// Slowdown s = T' / T.
  [[nodiscard]] double slowdown() const noexcept {
    return guest_steps_ == 0 ? 0.0
                             : static_cast<double>(host_steps()) / guest_steps_;
  }

  /// Inefficiency k = s * m / n = T' m / (T n), Section 3.1.
  [[nodiscard]] double inefficiency() const noexcept {
    return num_guests_ == 0 ? 0.0 : slowdown() * num_hosts_ / num_guests_;
  }

 private:
  /// Why an op may not join host step `current`, in add()'s check order.
  enum class OpFault : std::uint8_t { kNone, kProc, kPebble, kPartner, kProcBusy };
  [[nodiscard]] OpFault fault_of(OpKind kind, std::uint32_t proc, PebbleType pebble,
                                 std::uint32_t partner, std::uint32_t current) const noexcept;
  /// Throws what add() throws for an op with `fault` in host step `current`
  /// (current == 0: no open step); returns for a legal op.
  static void require_legal(std::uint32_t current, OpFault fault);

  std::uint32_t num_guests_;
  std::uint32_t num_hosts_;
  std::uint32_t guest_steps_;
  std::vector<Op, MappedAllocator<Op>> ops_;
  std::vector<std::uint64_t, MappedAllocator<std::uint64_t>> step_offsets_{0};
  std::vector<std::uint32_t> proc_used_step_;  ///< proc -> last step index + 1
};

}  // namespace upn
