#include "src/pebble/validator.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"

namespace upn {

namespace {

std::string describe(const Op& op) {
  const char* kind = op.kind == OpKind::kGenerate ? "generate"
                     : op.kind == OpKind::kSend   ? "send"
                                                  : "receive";
  return std::string{kind} + "(P" + std::to_string(op.pebble.node) + "," +
         std::to_string(op.pebble.time) + ") at proc " + std::to_string(op.proc);
}

/// The pebbles every host processor holds: one n-bit row per (processor,
/// guest time t >= 1), allocated the first time that processor places a
/// pebble of time t.  Time-0 pebbles are initial -- held by everyone -- and
/// need no row.  Rows live in fixed-size chunks that never move, so both the
/// open-addressing table keyed by (processor, time) and the per-processor
/// memo of the last time looked up (a routing phase moves pebbles of a
/// single time) hold row pointers: a memo hit is one compare and no index
/// arithmetic.  Memory follows the rows the protocol touches: about
/// m * n * T bits when every pair is touched, never that much up front.
class Holdings {
 public:
  Holdings(std::uint32_t num_guests, std::uint32_t num_hosts)
      : words_per_row_((std::size_t{num_guests} + 63) / 64),
        rows_per_chunk_(
            std::max<std::size_t>(1, kChunkWords / std::max<std::size_t>(1, words_per_row_))),
        memo_(num_hosts),
        keys_(kInitialSlots, kEmpty),
        rows_(kInitialSlots, nullptr) {}

  /// The row of (proc, time >= 1); nullptr when proc holds no such pebble.
  [[nodiscard]] const std::uint64_t* find(std::uint32_t proc, std::uint32_t time) {
    UPN_REQUIRE(time >= 1 && proc < memo_.size(), "Holdings::find: no row for this pebble");
    return lookup(proc, time);
  }

  [[nodiscard]] static bool test(const std::uint64_t* row, NodeId node) noexcept {
    return ((row[node / 64] >> (node % 64)) & 1u) != 0;
  }

  [[nodiscard]] bool holds(std::uint32_t proc, const PebbleType& p) {
    if (p.time == 0) return true;
    const std::uint64_t* row = lookup(proc, p.time);
    return row != nullptr && test(row, p.node);
  }

  void place(std::uint32_t proc, const PebbleType& p) {
    if (p.time == 0) return;
    std::uint64_t* row = lookup(proc, p.time);
    if (row == nullptr) row = insert(proc, p.time);
    row[p.node / 64] |= std::uint64_t{1} << (p.node % 64);
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;
  /// Words per chunk (32 KiB), or one row when a row is larger.
  static constexpr std::size_t kChunkWords = 4096;
  /// Key 0 is (processor 0, time 0), which never gets a row.
  static constexpr std::uint64_t kEmpty = 0;

  struct Memo {
    std::uint32_t time = 0;  ///< last time found (0: none)
    std::uint64_t* row = nullptr;
  };

  static std::uint64_t key_of(std::uint32_t proc, std::uint32_t time) noexcept {
    return (std::uint64_t{proc} << 32) | time;
  }

  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & (keys_.size() - 1);
  }

  [[nodiscard]] std::uint64_t* lookup(std::uint32_t proc, std::uint32_t time) {
    Memo& memo = memo_[proc];
    if (memo.time == time) return memo.row;
    const std::uint64_t key = key_of(proc, time);
    for (std::size_t slot = slot_of(key); keys_[slot] != kEmpty;
         slot = (slot + 1) & (keys_.size() - 1)) {
      if (keys_[slot] == key) {
        memo = Memo{time, rows_[slot]};
        return rows_[slot];
      }
    }
    return nullptr;
  }

  std::uint64_t* insert(std::uint32_t proc, std::uint32_t time) {
    if (2 * (num_rows_ + 1) > keys_.size()) grow();
    if (num_rows_ % rows_per_chunk_ == 0) {
      chunks_.push_back(std::make_unique<std::uint64_t[]>(rows_per_chunk_ * words_per_row_));
    }
    std::uint64_t* row = chunks_.back().get() + (num_rows_ % rows_per_chunk_) * words_per_row_;
    ++num_rows_;
    put(key_of(proc, time), row);
    memo_[proc] = Memo{time, row};
    return row;
  }

  void put(std::uint64_t key, std::uint64_t* row) {
    std::size_t slot = slot_of(key);
    while (keys_[slot] != kEmpty) slot = (slot + 1) & (keys_.size() - 1);
    keys_[slot] = key;
    rows_[slot] = row;
  }

  void grow() {
    const std::vector<std::uint64_t> old_keys = std::move(keys_);
    const std::vector<std::uint64_t*> old_rows = std::move(rows_);
    keys_.assign(2 * old_keys.size(), kEmpty);
    rows_.assign(keys_.size(), nullptr);
    for (std::size_t slot = 0; slot < old_keys.size(); ++slot) {
      if (old_keys[slot] != kEmpty) put(old_keys[slot], old_rows[slot]);
    }
  }

  std::size_t words_per_row_;
  std::size_t rows_per_chunk_;
  std::size_t num_rows_ = 0;
  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;  ///< zeroed, never moved
  std::vector<Memo> memo_;                  ///< proc -> its last row found
  std::vector<std::uint64_t> keys_;         ///< open addressing, power-of-two size
  std::vector<std::uint64_t*> rows_;        ///< slot -> row
};

}  // namespace

ValidationResult validate_protocol(const Protocol& protocol, const Graph& guest,
                                   const Graph& host) {
  UPN_OBS_SPAN("pebble.validator.replay");
  UPN_OBS_COUNT("pebble.validator.validations", 1);
  ValidationResult result;
  // Every rejection funnels through here so the span/step context lands in
  // the message and the violation counter stays exact.
  auto fail = [&result](std::string why) -> ValidationResult& {
    UPN_OBS_COUNT("pebble.validator.violations", 1);
    result.error = std::move(why) + obs::context_suffix();
    return result;
  };
  if (guest.num_nodes() != protocol.num_guests() || host.num_nodes() != protocol.num_hosts()) {
    return fail("graph sizes do not match protocol header");
  }
  const std::uint32_t T = protocol.guest_steps();

  Holdings holdings{protocol.num_guests(), protocol.num_hosts()};
  std::vector<char> final_generated(protocol.num_guests(), 0);
  // acted_in[q]: 1 + the last host step in which q acted; acted_op[q]: the
  // index of that op within its step.  A receive finds its send in O(1).
  std::vector<std::uint32_t> acted_in(protocol.num_hosts(), 0);
  std::vector<std::uint32_t> acted_op(protocol.num_hosts(), 0);
  // Host links straight from the CSR: Protocol::add_step keeps procs and
  // partners below num_hosts, which the size check above ties to the host.
  const std::uint32_t* host_off = host.offsets().data();
  const NodeId* host_adj = host.adjacency().data();
  // A branch-free lower bound over u's sorted neighbors: sends pair random
  // (proc, partner) links, on which a branching search mispredicts.
  auto adjacent = [&](std::uint32_t u, std::uint32_t v) {
    const NodeId* base = host_adj + host_off[u];
    std::size_t len = host_off[u + 1] - host_off[u];
    while (len > 1) {
      const std::size_t half = len / 2;
      base += static_cast<std::size_t>(base[half - 1] < v) * half;
      len -= half;
    }
    return len == 1 && *base == v;
  };

  // The current step's ops, decoded once by the first pass for the second
  // pass and the receives' lookups.  The view is a local, so stores to the
  // buffer cannot alias its codec: the shifts and masks stay in registers.
  std::vector<Op> decoded;
  for (std::uint32_t step = 0; step < protocol.host_steps(); ++step) {
    UPN_OBS_STEP(step);
    const OpView stored = protocol.step(step);
    if (decoded.size() < stored.size()) decoded.resize(stored.size());
    const std::span<const Op> ops{decoded.data(), stored.size()};
    const std::uint32_t stamp = step + 1;
    // First pass: one operation per processor (checked here alone:
    // Protocol::add_step stores what it is given), and sends -- whose
    // content must already be held at the start of the step.
    for (std::size_t k = 0; k < ops.size(); ++k) {
      decoded[k] = stored[k];
      const Op& op = ops[k];
      if (acted_in[op.proc] == stamp) {
        return fail("step " + std::to_string(step) + ": " + describe(op) +
                    ": processor already acted this step (at most one operation per "
                    "processor per host step)");
      }
      acted_in[op.proc] = stamp;
      acted_op[op.proc] = static_cast<std::uint32_t>(k);
      if (op.kind != OpKind::kSend) continue;
      if (!adjacent(op.proc, op.partner)) {
        return fail("step " + std::to_string(step) + ": " + describe(op) +
                    ": partner is not a host neighbor");
      }
      if (!holdings.holds(op.proc, op.pebble)) {
        return fail("step " + std::to_string(step) + ": " + describe(op) +
                    ": sender does not hold the pebble");
      }
      ++result.pebbles_sent;
    }
    // Second pass: receives and generates.  Each processor acts once, so
    // a placement never changes what another op of this step may use.
    for (const Op& op : ops) {
      switch (op.kind) {
        case OpKind::kSend:
          break;
        case OpKind::kReceive: {
          bool matched = false;
          if (acted_in[op.partner] == stamp) {
            const Op& send = ops[acted_op[op.partner]];
            matched = send.kind == OpKind::kSend && send.partner == op.proc &&
                      send.pebble == op.pebble;
          }
          // A matched send already passed the neighbor check on this
          // (undirected) link; only a failed match needs the lookup.
          if (!matched && !adjacent(op.proc, op.partner)) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        ": partner is not a host neighbor");
          }
          if (!matched) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        ": no matching send from partner");
          }
          holdings.place(op.proc, op.pebble);
          ++result.pebbles_received;
          break;
        }
        case OpKind::kGenerate: {
          const std::uint32_t t = op.pebble.time;
          if (t == 0 || t > T) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        ": generated time out of range");
          }
          // Every predecessor is a time t-1 pebble of this processor: one row.
          const std::uint64_t* prev = t == 1 ? nullptr : holdings.find(op.proc, t - 1);
          auto held = [&](NodeId node) {
            return t == 1 || (prev != nullptr && Holdings::test(prev, node));
          };
          if (!held(op.pebble.node)) {
            return fail("step " + std::to_string(step) + ": " + describe(op) +
                        ": missing own predecessor");
          }
          for (const NodeId j : guest.neighbors(op.pebble.node)) {
            if (!held(j)) {
              return fail("step " + std::to_string(step) + ": " + describe(op) +
                          ": missing neighbor predecessor P" + std::to_string(j));
            }
          }
          holdings.place(op.proc, op.pebble);
          if (t == T) final_generated[op.pebble.node] = 1;
          ++result.pebbles_generated;
          break;
        }
      }
    }
  }

  // For T = 0 the final pebbles ARE the initial pebbles, present by fiat.
  for (NodeId i = 0; T > 0 && i < protocol.num_guests(); ++i) {
    if (!final_generated[i]) {
      return fail("final pebble (P" + std::to_string(i) + "," + std::to_string(T) +
                  ") was never generated");
    }
  }
  result.ok = true;
  UPN_OBS_COUNT("pebble.validator.sends", result.pebbles_sent);
  UPN_OBS_COUNT("pebble.validator.receives", result.pebbles_received);
  UPN_OBS_COUNT("pebble.validator.generates", result.pebbles_generated);
  return result;
}

}  // namespace upn
