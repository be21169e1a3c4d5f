#include "tests/support/routing_oracles.hpp"

#include <algorithm>
#include <sstream>

#include "src/util/contracts.hpp"

namespace upn {

bool validate_benes_paths(const BenesPaths& paths, const std::vector<std::uint32_t>& perm) {
  const std::uint32_t d = paths.dimension;
  const std::uint32_t n = 1u << d;
  if (paths.rows.size() != n || perm.size() != n) return false;
  std::vector<char> seen(n);
  for (std::uint32_t level = 0; level <= 2 * d; ++level) {
    std::fill(seen.begin(), seen.end(), 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t row = paths.rows[i][level];
      if (row >= n || seen[row]) return false;  // node collision
      seen[row] = 1;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (paths.rows[i][0] != i || paths.rows[i][2 * d] != perm[i]) return false;
    for (std::uint32_t level = 0; level < 2 * d; ++level) {
      const std::uint32_t allowed_bit = level < d ? level : 2 * d - 1 - level;
      const std::uint32_t delta = paths.rows[i][level] ^ paths.rows[i][level + 1];
      if (delta != 0 && delta != (1u << allowed_bit)) return false;
    }
  }
  return true;
}

bool is_partial_permutation(const PermutationRound& round, std::uint32_t num_nodes) {
  std::vector<char> src_seen(num_nodes, 0), dst_seen(num_nodes, 0);
  for (const Demand& d : round) {
    if (d.src >= num_nodes || d.dst >= num_nodes) return false;
    if (src_seen[d.src] || dst_seen[d.dst]) return false;
    src_seen[d.src] = 1;
    dst_seen[d.dst] = 1;
  }
  return true;
}

std::string delivery_verdicts(const std::vector<Packet>& packets) {
  std::vector<const Packet*> ordered;
  ordered.reserve(packets.size());
  for (const Packet& p : packets) ordered.push_back(&p);
  std::sort(ordered.begin(), ordered.end(),
            [](const Packet* a, const Packet* b) { return a->id < b->id; });
  UPN_ENSURE(ordered.size() == packets.size(), "one verdict line per packet");
  std::ostringstream os;
  for (const Packet* p : ordered) {
    os << p->id << ' ' << p->src << "->" << p->dst << ' ' << (p->lost != 0 ? "lost" : "ok")
       << '\n';
  }
  return os.str();
}

}  // namespace upn
