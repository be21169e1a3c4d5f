// Neighbor-scored route tables for the online adaptive routing regime.
//
// Each host node keeps a table of (destination -> next hop) entries learned
// EXCLUSIVELY from link-local announcements (src/routing/online/
// online_router.hpp); no node ever reads the global topology or the fault
// plan.  The update discipline is the BATMAN/DSDV family the serval-dna
// overlay router derives from (SNIPPETS.md): every origin stamps its
// announcements with a monotone sequence number, and a receiver adopts a
// route iff it is fresher (higher sequence) or equally fresh and strictly
// shorter.  Freshness-first acceptance is the loop-suppression argument:
// a route with sequence s can only point toward a node that heard s from
// the origin earlier, so next-hop chains for a fixed sequence number
// strictly descend in metric and cannot cycle.  An entry's staleness timer
// is refreshed ONLY when its next hop re-announces that origin, so an
// entry dies by silence whether the link itself died or the neighbor
// merely stopped claiming the route (corpse routes cascade-expire hop by
// hop instead of vouching for each other forever); the staleness window
// must therefore outlast the announcement-rotation cycle, which
// OnlineRouter folds into its stale_after().  A metric ceiling (no honest
// route exceeds n - 1 hops) is the RIP-style infinity bound that stops
// count-to-infinity: routes toward a dead origin inflate past the ceiling
// and drain instead of circulating forever.  Death is DETECTED by
// silence, never looked up in an oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "src/topology/graph.hpp"

namespace upn {

/// Sentinel for "no route known".
inline constexpr NodeId kNoRoute = 0xffffffffu;

/// One link-local route advertisement: `origin` is reachable through the
/// announcing neighbor in `metric` hops, as of the origin's `seq`-th hello.
struct RouteAnnouncement {
  NodeId origin = 0;
  std::uint32_t seq = 0;
  std::uint32_t metric = 0;

  friend bool operator==(const RouteAnnouncement&, const RouteAnnouncement&) = default;
};

/// One learned route at a node.
struct RouteEntry {
  NodeId dest = 0;
  NodeId next_hop = 0;
  std::uint32_t metric = 0;      ///< hop count through next_hop
  std::uint32_t seq = 0;         ///< origin sequence number backing the entry
  std::uint32_t last_heard = 0;  ///< host step of the last refresh
};

/// Outcome of applying one announcement to a table.
enum class TableUpdate : std::uint8_t {
  kRevised,    ///< a new entry, or next hop / metric / sequence changed
  kRefreshed,  ///< same route re-confirmed; only the staleness timer moved
  kIgnored,    ///< stale or worse than what the table already holds
};

/// The per-node routing state.  Entries are kept sorted by destination so
/// iteration, announcement selection, and serialization are deterministic.
class RouteTable {
 public:
  explicit RouteTable(NodeId self = 0) : self_(self) {}

  [[nodiscard]] NodeId self() const noexcept { return self_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Applies an announcement heard from the adjacent node `via` at host
  /// step `now`.  The incumbent next hop may update its own route freely
  /// (fresher sequence, or equal sequence and metric); a DIFFERENT neighbor
  /// displaces the incumbent only with a strictly better metric backed by
  /// news at most `seq_lag_per_hop * (announced hops)` hellos staler than
  /// the incumbent's (strict metric descent cannot flap; the allowance
  /// absorbs honest rotation lag), or when the incumbent's sequence lags
  /// the announcement by more than `seq_lag_per_hop * (incumbent metric +
  /// 1)` hellos -- the signal that the incumbent's path stopped carrying
  /// the origin's heartbeats and must be presumed broken.  seq_lag_per_hop
  /// must exceed the announcement-rotation cycle (a working route
  /// refreshes its sequence at least once per rotation per hop) or healthy
  /// long routes get convicted and tables flap forever.  kRevised means the ROUTE changed
  /// (next hop or metric); a pure sequence refresh reports kRefreshed, so
  /// convergence detection sees a quiet network even while hellos keep
  /// flowing.  Announcements whose resulting metric exceeds `max_metric`
  /// are dropped (the RIP-style infinity bound; no honest route exceeds
  /// n - 1 hops), which is what drains count-to-infinity inflation toward
  /// dead origins.  Announcements about `self` are ignored.
  TableUpdate apply(const RouteAnnouncement& a, NodeId via, std::uint32_t now,
                    std::uint32_t seq_lag_per_hop = 8,
                    std::uint32_t max_metric = 0xffffffffu);

  /// Removes every entry not refreshed since `now - stale_after` (self is
  /// never stored, so never expired).  Returns the number removed.
  std::size_t expire(std::uint32_t now, std::uint32_t stale_after);

  /// Next hop toward `dest`, or kNoRoute when the table has no entry.
  [[nodiscard]] NodeId next_hop(NodeId dest) const noexcept;

  /// The entry for `dest`, or nullptr.
  [[nodiscard]] const RouteEntry* find(NodeId dest) const noexcept;

  /// The bandwidth-capped announcement set this node sends: itself (with
  /// `own_seq`) first, then at most `cap - 1` known routes.  Routes are
  /// ranked nearest-first by (metric, dest) -- the serval-dna rationale:
  /// close routes change fastest -- and the cap-sized window ROTATES with
  /// `own_seq`, so successive hellos walk the whole table and every route
  /// is eventually announced no matter how small the cap.  `cap` must be
  /// >= 1 so a node always announces its own reachability.
  [[nodiscard]] std::vector<RouteAnnouncement> compose(std::uint32_t own_seq,
                                                      std::uint32_t cap) const;

 private:
  NodeId self_;
  std::vector<RouteEntry> entries_;  ///< sorted by dest
};

}  // namespace upn
