#include "src/routing/benes.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/util/contracts.hpp"
#include "src/util/math.hpp"

namespace upn {

namespace {

/// Waksman switch assignment, processed one depth at a time.  At depth t the
/// packets sit in contiguous segments of size n>>t inside ids/lin/lout; each
/// segment is 2-colored (input partners and output partners must take
/// different subnetworks), the chosen bit recorded in choice[id*d + t], and
/// the segment stably partitioned into its two half-size subnetworks for the
/// next depth.  Identical colors and segment orders to the natural recursion,
/// but every scratch buffer is allocated once and reused across depths.
void solve(std::uint32_t n, std::uint32_t d, std::vector<std::uint32_t>& ids,
           std::vector<std::uint32_t>& lin, std::vector<std::uint32_t>& lout,
           std::vector<std::uint8_t>& choice) {
  std::vector<std::uint32_t> next_ids(n), next_lin(n), next_lout(n);
  std::vector<std::uint32_t> by_lin(n), by_lout(n);
  std::vector<std::int8_t> color(n);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t depth = 0; depth < d; ++depth) {
    const std::uint32_t size = n >> depth;
    if (size == 2) {
      // Base case: one switch per pair; send each packet to its target bit.
      // Masked to one bit before each cast.
      for (std::uint32_t base = 0; base < n; base += 2) {
        choice[ids[base] * d + depth] = static_cast<std::uint8_t>(lout[base] & 1u);          // upn-analyze-waive(narrowing-cast: masked to one bit)
        choice[ids[base + 1] * d + depth] = static_cast<std::uint8_t>(lout[base + 1] & 1u);  // upn-analyze-waive(narrowing-cast: masked to one bit)
      }
      break;
    }
    for (std::uint32_t base = 0; base < n; base += size) {
      // Positions of packets by local input row and by local output row,
      // local to this segment.
      for (std::uint32_t x = 0; x < size; ++x) {
        by_lin[lin[base + x]] = x;
        by_lout[lout[base + x]] = x;
      }
      std::fill(color.begin(), color.begin() + size, std::int8_t{-1});
      for (std::uint32_t seed = 0; seed < size; ++seed) {
        if (color[seed] != -1) continue;
        color[seed] = 0;
        stack.push_back(seed);
        while (!stack.empty()) {
          const std::uint32_t x = stack.back();
          stack.pop_back();
          const std::uint32_t partners[2] = {by_lin[lin[base + x] ^ 1u],
                                             by_lout[lout[base + x] ^ 1u]};
          for (const std::uint32_t y : partners) {
            if (color[y] == -1) {
              UPN_REQUIRE(color[x] == 0 || color[x] == 1);
              color[y] = static_cast<std::int8_t>(1 - color[x]);
              stack.push_back(y);
            } else if (color[y] == color[x]) {
              throw std::logic_error{"benes_route: constraint cycle is not 2-colorable"};
            }
          }
        }
      }
      // Record choices and stably partition into the two half subnetworks.
      std::uint32_t out[2] = {base, base + size / 2};
      for (std::uint32_t x = 0; x < size; ++x) {
        const int s = color[x];
        UPN_REQUIRE(s == 0 || s == 1);
        choice[ids[base + x] * d + depth] = static_cast<std::uint8_t>(s);
        const std::uint32_t at = out[s]++;
        next_ids[at] = ids[base + x];
        next_lin[at] = lin[base + x] >> 1;
        next_lout[at] = lout[base + x] >> 1;
      }
    }
    ids.swap(next_ids);
    lin.swap(next_lin);
    lout.swap(next_lout);
  }
}

}  // namespace

BenesPaths benes_route(const std::vector<std::uint32_t>& perm) {
  const auto n = static_cast<std::uint32_t>(perm.size());
  if (n < 2 || !is_power_of_two(n)) {
    throw std::invalid_argument{"benes_route: size must be a power of two >= 2"};
  }
  const std::uint32_t d = floor_log2(n);
  {
    std::vector<char> seen(n, 0);
    for (const std::uint32_t target : perm) {
      if (target >= n || seen[target]) {
        throw std::invalid_argument{"benes_route: input is not a permutation"};
      }
      seen[target] = 1;
    }
  }

  std::vector<std::uint8_t> choice(static_cast<std::size_t>(n) * d, 0);
  {
    std::vector<std::uint32_t> ids(n), lin(n), lout(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ids[i] = i;
      lin[i] = i;
      lout[i] = perm[i];
    }
    solve(n, d, ids, lin, lout, choice);
  }

  // Reconstruct row positions per wire level.
  // Forward level l (0..d):   bits [0, l) are the chosen subnetwork bits,
  //                           bits [l, d) still come from the input row.
  // Backward level d+u (1..d): bits [d-u, d) already equal the target's,
  //                           bits [0, d-u) are still the chosen bits.
  BenesPaths paths;
  paths.dimension = d;
  paths.rows.assign(n, std::vector<std::uint32_t>(2 * d + 1, 0));
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t chosen = 0;
    for (std::uint32_t j = 0; j < d; ++j) {
      chosen |= static_cast<std::uint32_t>(choice[static_cast<std::size_t>(i) * d + j]) << j;
    }
    for (std::uint32_t level = 0; level <= d; ++level) {
      const std::uint32_t low_mask = (level == 0) ? 0u : ((1u << level) - 1u);
      paths.rows[i][level] = (chosen & low_mask) | (i & ~low_mask);
    }
    for (std::uint32_t u = 1; u <= d; ++u) {
      const std::uint32_t high_mask = ~((1u << (d - u)) - 1u) & (n - 1u);
      paths.rows[i][d + u] = (perm[i] & high_mask) | (chosen & ~high_mask & (n - 1u));
    }
  }
  return paths;
}

}  // namespace upn
