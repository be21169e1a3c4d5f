// Textual (de)serialization of pebble-game protocols.
//
// Format (line-oriented, whitespace-separated):
//   upn-protocol 1 <n> <m> <T>
//   step
//   G <proc> <node> <time>
//   S <proc> <node> <time> <partner>
//   R <proc> <node> <time> <partner>
//   ...
// One `step` line per host time step (possibly with no ops).  Lets
// protocols be stored, diffed, and replayed by external tooling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "src/pebble/protocol.hpp"

namespace upn {

/// Hostile-input caps enforced by read_protocol.  Reading allocates by the
/// ops a file holds, not by its header; the dimension caps bound what a
/// forged header can make a later reader size up front (the validator's
/// per-host arrays, ProtocolMetrics' n * T cells).  A header within the caps
/// is still refused when its ops need more than one 64-bit word
/// (ProtocolHeaderTooWide: n = m = T = 2^26 needs 107 bits).  The length
/// caps bound per-line work.
inline constexpr std::uint32_t kMaxProtocolDimension = 1u << 26;
inline constexpr std::size_t kMaxProtocolTokenLength = 32;
inline constexpr std::size_t kMaxProtocolLineLength = 4096;

void write_protocol(std::ostream& os, const Protocol& protocol);

/// Parses a protocol; throws std::runtime_error with a line number on any
/// malformed input: non-numeric or negative fields, counts overflowing
/// uint32_t, header dimensions above kMaxProtocolDimension or wider than one
/// 64-bit word per op, overlong lines or tokens, missing fields, trailing
/// garbage, and processors, pebbles or partners outside the header's ranges
/// (Protocol::add_step's checks, named by the op's line).  The pebble-game
/// rules, one op per processor per step included, are validate_protocol's.
[[nodiscard]] Protocol read_protocol(std::istream& is);

}  // namespace upn
