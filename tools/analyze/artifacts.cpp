// Artifact pass: the on-disk protocols (.upnp), embeddings (.upne), path
// schedules (.upns) and fault plans (.upnf) the engine finds among its
// input files.  Each file must parse with its library reader (a parse error
// is `artifact-malformed`, file-scoped), and the declared-bound formats must
// stay within the congestion / dilation / load bounds their headers claim.
// Everything is static: no pebble game is replayed and nothing is routed.
#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/embedding_io.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/pebble/io.hpp"
#include "src/routing/schedule_io.hpp"
#include "tools/analyze/passes.hpp"

namespace upn::analyze {

namespace {

struct OpLine {
  char kind = 0;  ///< 'G', 'S', 'R'
  std::uint32_t proc = 0, node = 0, time = 0, partner = 0;
  std::size_t line_no = 0;
};

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream stream{line};
  std::vector<std::string> tokens;
  std::string token;
  while (stream >> token) tokens.push_back(std::move(token));
  return tokens;
}

/// Protocol static checks beyond read_protocol's well-formedness: every
/// receive pairs with a same-step send, and every final pebble (P_i, T) is
/// generated somewhere.
std::vector<Finding> check_protocol(const std::string& path,
                                    const std::vector<std::string>& lines,
                                    const Protocol& protocol) {
  std::vector<Finding> out;
  std::vector<std::vector<OpLine>> steps;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto tokens = tokens_of(lines[i]);
    if (tokens.empty()) continue;
    if (tokens[0] == "step") {
      steps.emplace_back();
      continue;
    }
    OpLine op;
    op.kind = tokens[0][0];
    op.proc = static_cast<std::uint32_t>(std::stoul(tokens[1]));
    op.node = static_cast<std::uint32_t>(std::stoul(tokens[2]));
    op.time = static_cast<std::uint32_t>(std::stoul(tokens[3]));
    if (tokens.size() > 4) op.partner = static_cast<std::uint32_t>(std::stoul(tokens[4]));
    op.line_no = i + 1;
    steps.back().push_back(op);
  }

  for (const auto& step : steps) {
    for (const OpLine& op : step) {
      if (op.kind != 'R') continue;
      const bool matched =
          std::any_of(step.begin(), step.end(), [&](const OpLine& other) {
            return other.kind == 'S' && other.proc == op.partner &&
                   other.partner == op.proc && other.node == op.node &&
                   other.time == op.time;
          });
      if (!matched) {
        out.push_back(Finding{
            path, op.line_no, "protocol-unmatched-receive",
            "receive of (P" + std::to_string(op.node) + "," + std::to_string(op.time) +
                ") at proc " + std::to_string(op.proc) + " has no matching send from proc " +
                std::to_string(op.partner) + " in the same step"});
      }
    }
  }

  if (protocol.guest_steps() > 0) {
    std::vector<char> generated(protocol.num_guests(), 0);
    for (const auto& step : steps) {
      for (const OpLine& op : step) {
        if (op.kind == 'G' && op.time == protocol.guest_steps() &&
            op.node < generated.size()) {
          generated[op.node] = 1;
        }
      }
    }
    for (std::uint32_t i = 0; i < generated.size(); ++i) {
      if (!generated[i]) {
        out.push_back(Finding{
            path, 1, "protocol-final-coverage",
            "final pebble (P" + std::to_string(i) + "," +
                std::to_string(protocol.guest_steps()) +
                ") is never generated; the protocol does not finish the simulation"});
      }
    }
  }
  return out;
}

std::vector<Finding> check_embedding(const std::string& path, const StoredEmbedding& stored) {
  std::vector<Finding> out;
  std::vector<std::uint32_t> load(stored.num_hosts, 0);
  std::uint32_t actual = 0;
  for (const NodeId q : stored.map) actual = std::max(actual, ++load[q]);
  if (actual > stored.declared_load) {
    out.push_back(Finding{path, 1, "embedding-load-exceeds-declaration",
                          "actual load " + std::to_string(actual) +
                              " exceeds the declared bound " +
                              std::to_string(stored.declared_load)});
  }
  return out;
}

std::vector<Finding> check_schedule(const std::string& path,
                                    const std::vector<std::string>& lines,
                                    const StoredPathSchedule& stored) {
  std::vector<Finding> out;
  std::map<std::uint64_t, std::uint32_t> link_total;  // directed link -> uses
  std::map<std::uint64_t, std::size_t> link_in_step;  // link -> line of use
  std::vector<std::uint32_t> hops(stored.num_packets, 0);
  std::vector<std::pair<bool, std::uint32_t>> at(stored.num_packets, {false, 0});

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto tokens = tokens_of(lines[i]);
    if (tokens.empty()) continue;
    const std::size_t line_no = i + 1;
    if (tokens[0] == "step") {
      link_in_step.clear();
      continue;
    }
    const auto packet = static_cast<std::uint32_t>(std::stoul(tokens[1]));
    const auto from = static_cast<std::uint32_t>(std::stoul(tokens[2]));
    const auto to = static_cast<std::uint32_t>(std::stoul(tokens[3]));
    const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;

    const auto [prev_seen, prev_at] = at[packet];
    if (prev_seen && prev_at != from) {
      out.push_back(Finding{path, line_no, "schedule-broken-path",
                            "packet " + std::to_string(packet) + " moves from " +
                                std::to_string(from) + " but last arrived at " +
                                std::to_string(prev_at)});
    }
    at[packet] = {true, to};

    const auto in_step = link_in_step.find(key);
    if (in_step != link_in_step.end()) {
      out.push_back(Finding{path, line_no, "schedule-link-conflict",
                            "directed link " + std::to_string(from) + "->" +
                                std::to_string(to) + " already used this step (line " +
                                std::to_string(in_step->second) + ")"});
    } else {
      link_in_step.emplace(key, line_no);
    }

    if (++link_total[key] == stored.schedule.congestion + 1) {
      out.push_back(Finding{path, line_no, "schedule-congestion-exceeds-declaration",
                            "directed link " + std::to_string(from) + "->" +
                                std::to_string(to) + " exceeds the declared congestion " +
                                std::to_string(stored.schedule.congestion)});
    }
    if (++hops[packet] == stored.schedule.dilation + 1) {
      out.push_back(Finding{path, line_no, "schedule-dilation-exceeds-declaration",
                            "packet " + std::to_string(packet) +
                                " exceeds the declared dilation " +
                                std::to_string(stored.schedule.dilation)});
    }
  }
  return out;
}

/// Well-formedness is fully enforced by read_fault_plan; what is left is a
/// permanent fault listed twice.
std::vector<Finding> check_fault_plan(const std::string& path,
                                      const std::vector<std::string>& lines) {
  std::vector<Finding> out;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> seen_links;
  std::map<std::uint32_t, std::size_t> seen_nodes;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto tokens = tokens_of(lines[i]);
    if (tokens.empty()) continue;
    const std::size_t line_no = i + 1;
    if (tokens[0] == "L" && tokens.size() >= 3) {
      auto u = static_cast<std::uint32_t>(std::stoul(tokens[1]));
      auto v = static_cast<std::uint32_t>(std::stoul(tokens[2]));
      if (u > v) std::swap(u, v);
      const auto [it, fresh] = seen_links.emplace(std::make_pair(u, v), line_no);
      if (!fresh) {
        out.push_back(Finding{path, line_no, "faultplan-duplicate-fault",
                              "link {" + tokens[1] + "," + tokens[2] +
                                  "} already has a permanent fault (line " +
                                  std::to_string(it->second) + ")"});
      }
    } else if (tokens[0] == "N" && tokens.size() >= 2) {
      const auto v = static_cast<std::uint32_t>(std::stoul(tokens[1]));
      const auto [it, fresh] = seen_nodes.emplace(v, line_no);
      if (!fresh) {
        out.push_back(Finding{path, line_no, "faultplan-duplicate-fault",
                              "node " + tokens[1] + " already has a permanent fault (line " +
                                  std::to_string(it->second) + ")"});
      }
    }
  }
  return out;
}

}  // namespace

bool is_artifact_path(const std::string& path) {
  return path.ends_with(".upnp") || path.ends_with(".upne") ||
         path.ends_with(".upns") || path.ends_with(".upnf");
}

std::vector<Finding> run_artifact_pass(const SourceFile& file) {
  const std::string& path = file.path;
  std::istringstream stream{file.content};
  try {
    if (path.ends_with(".upnp")) {
      return check_protocol(path, split_lines(file.content), read_protocol(stream));
    }
    if (path.ends_with(".upne")) return check_embedding(path, read_embedding(stream));
    if (path.ends_with(".upns")) {
      return check_schedule(path, split_lines(file.content), read_path_schedule(stream));
    }
    if (path.ends_with(".upnf")) {
      static_cast<void>(read_fault_plan(stream));
      return check_fault_plan(path, split_lines(file.content));
    }
  } catch (const std::exception& e) {
    return {Finding{path, 0, "artifact-malformed", e.what()}};
  }
  return {};
}

}  // namespace upn::analyze
