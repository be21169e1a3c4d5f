#include "src/pebble/io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace upn {

void write_protocol(std::ostream& os, const Protocol& protocol) {
  os << "upn-protocol 1 " << protocol.num_guests() << ' ' << protocol.num_hosts() << ' '
     << protocol.guest_steps() << '\n';
  for (std::uint32_t s = 0; s < protocol.host_steps(); ++s) {
    os << "step\n";
    for (const Op& op : protocol.step(s)) {
      switch (op.kind) {
        case OpKind::kGenerate:
          os << "G " << op.proc << ' ' << op.pebble.node << ' ' << op.pebble.time << '\n';
          break;
        case OpKind::kSend:
          os << "S " << op.proc << ' ' << op.pebble.node << ' ' << op.pebble.time << ' '
             << op.partner << '\n';
          break;
        case OpKind::kReceive:
          os << "R " << op.proc << ' ' << op.pebble.node << ' ' << op.pebble.time << ' '
             << op.partner << '\n';
          break;
      }
    }
  }
}

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error{"read_protocol: line " + std::to_string(line) + ": " + what};
}

/// Splits a line into whitespace-separated tokens, enforcing the per-token
/// length cap (a hostile input must not smuggle in megabyte "numbers").
std::vector<std::string> tokenize(const std::string& line, std::size_t line_no) {
  std::vector<std::string> tokens;
  std::istringstream stream{line};
  std::string token;
  while (stream >> token) {
    if (token.size() > kMaxProtocolTokenLength) fail(line_no, "token too long");
    tokens.push_back(std::move(token));
  }
  return tokens;
}

/// Strict uint32 parse: digits only (no sign, no hex), no overflow.
std::uint32_t parse_u32(const std::string& token, std::size_t line_no, const char* what) {
  if (token.empty()) fail(line_no, std::string{what} + ": empty field");
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      fail(line_no, std::string{what} + ": not a non-negative integer ('" + token + "')");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > std::numeric_limits<std::uint32_t>::max()) {
      fail(line_no, std::string{what} + ": overflows uint32_t ('" + token + "')");
    }
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

Protocol read_protocol(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(is, line)) fail(1, "empty input");
  ++line_no;
  if (line.size() > kMaxProtocolLineLength) fail(line_no, "line too long");
  const std::vector<std::string> header = tokenize(line, line_no);
  if (header.size() != 5 || header[0] != "upn-protocol" || header[1] != "1") {
    fail(line_no, "bad header (expected 'upn-protocol 1 <n> <m> <T>')");
  }
  const std::uint32_t n = parse_u32(header[2], line_no, "guest count");
  const std::uint32_t m = parse_u32(header[3], line_no, "host count");
  const std::uint32_t T = parse_u32(header[4], line_no, "guest steps");
  if (n > kMaxProtocolDimension || m > kMaxProtocolDimension || T > kMaxProtocolDimension) {
    fail(line_no, "header count exceeds limit");
  }
  Protocol protocol = [&] {
    try {
      return Protocol{n, m, T};
    } catch (const ProtocolHeaderTooWide& e) {
      fail(line_no, e.what());
    }
  }();
  // The open step's ops and the line of each, appended with one add_step
  // at the next `step` line or at end of input.  An illegal op is named by
  // its own line: add_step keeps the ops before it.
  bool in_step = false;
  std::vector<Op> step_ops;
  std::vector<std::size_t> op_lines;
  auto flush_step = [&] {
    if (!in_step) return;
    const std::uint32_t s = protocol.host_steps();
    try {
      protocol.add_step(step_ops);
    } catch (const std::exception& e) {
      fail(op_lines[protocol.step(s).size()], e.what());
    }
    step_ops.clear();
    op_lines.clear();
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (line.size() > kMaxProtocolLineLength) fail(line_no, "line too long");
    if (line.empty()) continue;
    const std::vector<std::string> tokens = tokenize(line, line_no);
    if (tokens.empty()) continue;
    if (tokens[0] == "step") {
      flush_step();
      if (tokens.size() != 1) fail(line_no, "trailing garbage after 'step'");
      in_step = true;
      continue;
    }
    if (!in_step) fail(line_no, "operation before first 'step'");
    if (tokens[0].size() != 1) fail(line_no, "unknown op kind");
    OpKind kind = OpKind::kGenerate;
    std::size_t expected_fields = 0;
    switch (tokens[0][0]) {
      case 'G':
        kind = OpKind::kGenerate;
        expected_fields = 4;
        break;
      case 'S':
        kind = OpKind::kSend;
        expected_fields = 5;
        break;
      case 'R':
        kind = OpKind::kReceive;
        expected_fields = 5;
        break;
      default:
        fail(line_no, "unknown op kind");
    }
    if (tokens.size() < expected_fields) {
      fail(line_no, expected_fields == 4 ? "generate missing fields"
                                         : "send/receive missing partner");
    }
    if (tokens.size() > expected_fields) fail(line_no, "trailing garbage");
    const std::uint32_t proc = parse_u32(tokens[1], line_no, "processor");
    PebbleType pebble;
    pebble.node = parse_u32(tokens[2], line_no, "pebble node");
    pebble.time = parse_u32(tokens[3], line_no, "pebble time");
    std::uint32_t partner = 0;
    if (expected_fields == 5) partner = parse_u32(tokens[4], line_no, "partner");
    step_ops.push_back(Op{kind, proc, pebble, partner});
    op_lines.push_back(line_no);
  }
  flush_step();
  return protocol;
}

}  // namespace upn
