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
// Layout: the distinct host steps' ops are stored once, as words in chunks
// that never move.  A stored step's words are one contiguous run inside one
// chunk; a step that does not fit the rest of the current chunk opens the
// next.  Each new chunk holds as many words as the protocol has stored so
// far, from kFirstChunkWords up to kMaxChunkWords, and a step larger than
// that gets a chunk of its own size.  So growing never copies words or
// holds two blocks for one, and a chunk's unwritten tail is not zeroed.
// Every host step is a record of the stored step it reads and a time delta:
// its ops are that stored step's ops with every pebble time raised by the
// delta.  Each op is one 64-bit word (OpCodec)
// whose field widths the header fixes: 36 bits at n=4356, m=192, T=16.
// Emitters write and readers see the plain `Op` struct; step(s) returns a
// view that adds the step's time raise to each word and decodes on access,
// and a reader that visits a step's ops more than once (the validator)
// decodes the step into a reused buffer.  There are two writers, each of
// whole host steps: add_step() appends one host step with its own stored
// step (delta 0), checking and encoding its ops in order; an emitter whose
// later steps repeat earlier ones at a later guest time (Theorem 2.1's
// guest steps all route the same relation) appends them with
// repeat_steps(), which adds records and stores no words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/topology/graph.hpp"
#include "src/util/contracts.hpp"

namespace upn {

/// Pebble type (P_i, t).
struct PebbleType {
  NodeId node = 0;      ///< i: guest processor index
  std::uint32_t time = 0;  ///< t: guest time step

  friend bool operator==(const PebbleType&, const PebbleType&) = default;
};

enum class OpKind : std::uint8_t { kGenerate, kSend, kReceive };

/// One operation: what emitters write and readers see.  A generate's
/// partner is not stored and reads back 0, as .upnp never carries it.
struct Op {
  OpKind kind = OpKind::kGenerate;
  std::uint32_t proc = 0;     ///< host processor performing the operation
  PebbleType pebble;          ///< the pebble generated / sent / received
  std::uint32_t partner = 0;  ///< send: receiver; receive: sender; generate: 0
};

/// A header (n, m, T) whose ops do not fit one 64-bit word.
class ProtocolHeaderTooWide : public std::length_error {
 public:
  ProtocolHeaderTooWide(std::uint32_t num_guests, std::uint32_t num_hosts,
                        std::uint32_t guest_steps, unsigned bits);
};

/// Packs an Op into one 64-bit word, laid out from the low bits up as
/// kind | proc | partner | time | node.  Each field is as wide as the
/// header's range needs: 2 bits of kind, ceil(log2 m) bits each for proc
/// and partner, ceil(log2 (T+1)) for time and ceil(log2 n) for node.  Kind
/// and proc sit at fixed offsets, so decoding takes three shifts by a
/// header-set count.
class OpCodec {
 public:
  /// Throws ProtocolHeaderTooWide when the fields need more than 64 bits.
  OpCodec(std::uint32_t num_guests, std::uint32_t num_hosts, std::uint32_t guest_steps);

  /// `op`'s fields must lie in the header's ranges (Protocol::add_step
  /// checks them); a generate's partner is dropped.
  [[nodiscard]] std::uint64_t encode(const Op& op) const noexcept {
    const std::uint64_t partner = op.kind == OpKind::kGenerate ? 0 : op.partner;
    return static_cast<std::uint64_t>(op.kind) | (std::uint64_t{op.proc} << kProcShift) |
           (partner << partner_shift_) | (std::uint64_t{op.pebble.time} << time_shift_) |
           (std::uint64_t{op.pebble.node} << node_shift_);
  }

  /// The pebble time and the processor `word` holds: decode(word)'s fields.
  [[nodiscard]] std::uint32_t time_of(std::uint64_t word) const noexcept {
    return static_cast<std::uint32_t>((word >> time_shift_) & time_mask_);
  }
  [[nodiscard]] std::uint32_t proc_of(std::uint64_t word) const noexcept {
    return static_cast<std::uint32_t>((word >> kProcShift) & host_mask_);
  }

  /// What to add to a word to raise its pebble time by `delta`.  The sum
  /// changes no other field as long as time_of(word) + delta fits the
  /// header's T (so a zero-width time field takes only delta = 0).
  [[nodiscard]] std::uint64_t time_raise(std::uint64_t delta) const noexcept {
    return delta << time_shift_;
  }

  [[nodiscard]] Op decode(std::uint64_t word) const noexcept {
    Op op;
    op.kind = static_cast<OpKind>(word & kKindMask);
    op.proc = proc_of(word);
    op.pebble.node = static_cast<NodeId>((word >> node_shift_) & node_mask_);
    op.pebble.time = time_of(word);
    op.partner = static_cast<std::uint32_t>((word >> partner_shift_) & host_mask_);
    return op;
  }

 private:
  static constexpr std::uint64_t kKindMask = 3;
  static constexpr unsigned kProcShift = 2;

  // A field of width 0 has mask 0 and shift 0: it reads back 0, and no
  // shift reaches 64.
  std::uint64_t host_mask_ = 0;
  std::uint64_t time_mask_ = 0;
  std::uint64_t node_mask_ = 0;
  unsigned partner_shift_ = 0;
  unsigned time_shift_ = 0;
  unsigned node_shift_ = 0;
};

/// A run of stored ops with their pebble times raised, decoded on access:
/// what Protocol::step() returns.  Valid while its protocol lives and does
/// not grow.
class OpView {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Op;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Op;

    iterator(const OpCodec& codec, const std::uint64_t* word, std::uint64_t raise) noexcept
        : codec_(codec), word_(word), raise_(raise) {}
    Op operator*() const noexcept { return codec_.decode(*word_ + raise_); }
    iterator& operator++() noexcept {
      ++word_;
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.word_ == b.word_;
    }

   private:
    OpCodec codec_;
    const std::uint64_t* word_;
    std::uint64_t raise_;
  };

  /// `raise` is OpCodec::time_raise of the view's time delta.
  OpView(const OpCodec& codec, std::span<const std::uint64_t> words, std::uint64_t raise) noexcept
      : codec_(codec), words_(words), raise_(raise) {}

  [[nodiscard]] std::size_t size() const noexcept { return words_.size(); }
  [[nodiscard]] Op operator[](std::size_t k) const noexcept {
    return codec_.decode(words_[k] + raise_);
  }
  [[nodiscard]] iterator begin() const noexcept { return {codec_, words_.data(), raise_}; }
  [[nodiscard]] iterator end() const noexcept {
    return {codec_, words_.data() + words_.size(), raise_};
  }

 private:
  OpCodec codec_;
  std::span<const std::uint64_t> words_;
  std::uint64_t raise_;
};

/// A simulation protocol S: host steps, each a list of operations.  It is
/// a store: it checks only that each op's fields fit the header's ranges,
/// which its encoding needs.  Every pebble-game rule, one operation per
/// processor per step included, is the validator's.
class Protocol {
 public:
  /// The smallest and the largest chunk a step's words are stored in, in
  /// words; a step larger than kMaxChunkWords gets a chunk of its own size.
  static constexpr std::size_t kFirstChunkWords = 512;
  static constexpr std::size_t kMaxChunkWords = std::size_t{1} << 21;

  Protocol(std::uint32_t num_guests, std::uint32_t num_hosts, std::uint32_t guest_steps);
  /// A copy stores its words in chunks of its own.
  Protocol(const Protocol& other);
  Protocol(Protocol&&) noexcept = default;
  Protocol& operator=(const Protocol& other) { return *this = Protocol{other}; }
  Protocol& operator=(Protocol&&) noexcept = default;

  /// Appends a new host step holding `ops` (none: an empty step), each
  /// checked and encoded in order.  An op whose processor, pebble or partner
  /// is out of range throws std::out_of_range, and the step keeps the ops
  /// before it.  A processor may appear more than once: validate_protocol
  /// rejects that.
  void add_step(std::span<const Op> ops);

  /// Appends host steps [first, last) again with every op's pebble time
  /// raised by `time_delta`: one record per step, naming the stored step it
  /// reads and the summed delta, and no stored words.  The only check is the
  /// raised times: one past T throws what add_step() throws for it and
  /// leaves the protocol unchanged.
  void repeat_steps(std::uint32_t first, std::uint32_t last, std::uint32_t time_delta);

  [[nodiscard]] std::uint32_t num_guests() const noexcept { return num_guests_; }
  [[nodiscard]] std::uint32_t num_hosts() const noexcept { return num_hosts_; }
  [[nodiscard]] std::uint32_t guest_steps() const noexcept { return guest_steps_; }
  /// T': number of host steps.
  [[nodiscard]] std::uint32_t host_steps() const noexcept {
    return static_cast<std::uint32_t>(steps_.size());
  }

  /// The operations of host step `s`.
  [[nodiscard]] OpView step(std::uint32_t s) const {
    UPN_REQUIRE(s < host_steps(), "Protocol::step: host step out of range");
    const StepRecord record = steps_[s];
    return {codec_, stored_words(record.stored), codec_.time_raise(record.delta)};
  }

  [[nodiscard]] std::uint64_t num_ops() const noexcept { return num_ops_; }

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
  /// Why an op may not join a host step, in add_step()'s check order.
  enum class OpFault : std::uint8_t { kNone, kProc, kPebble, kPartner };
  [[nodiscard]] OpFault fault_of(const Op& op) const noexcept {
    if (op.proc >= num_hosts_) return OpFault::kProc;
    if (op.pebble.node >= num_guests_ || op.pebble.time > guest_steps_) return OpFault::kPebble;
    if (op.kind != OpKind::kGenerate && op.partner >= num_hosts_) return OpFault::kPartner;
    return OpFault::kNone;
  }
  /// Throws what add_step() throws for an op with `fault`; returns for a
  /// legal op.
  static void require_legal(OpFault fault);
  [[nodiscard]] std::span<const std::uint64_t> stored_words(std::uint32_t stored) const {
    const StoredStep& step = stored_[stored];
    return {step.words, step.size};
  }
  /// Appends a chunk with room for at least `count` words.
  void open_chunk(std::size_t count);

  /// A block of OpCodec words that never moves; words from `size` on are
  /// not written yet.  A copy gets a block of its own.
  struct Chunk {
    explicit Chunk(std::size_t capacity_words);
    Chunk(const Chunk& other);
    Chunk(Chunk&&) noexcept = default;

    std::unique_ptr<std::uint64_t[]> words;
    std::size_t capacity;
    std::size_t size = 0;
  };

  /// A stored step's words: `size` of them from `words`, inside chunk
  /// `chunk`.  `words` is null for a step that opened no chunk.
  struct StoredStep {
    const std::uint64_t* words = nullptr;
    std::size_t size = 0;
    std::uint32_t chunk = 0;
    std::uint32_t latest = 0;  ///< the largest pebble time of its ops
  };

  /// Host step s reads stored step `stored` with every pebble time raised
  /// by `delta` (0 for a step without ops).
  struct StepRecord {
    std::uint32_t stored;
    std::uint32_t delta;
  };

  std::uint32_t num_guests_;
  std::uint32_t num_hosts_;
  std::uint32_t guest_steps_;
  OpCodec codec_;
  std::vector<Chunk> chunks_;
  std::vector<StoredStep> stored_;
  std::vector<StepRecord> steps_;  ///< host step -> what it reads
  std::uint64_t num_ops_ = 0;
};

}  // namespace upn
