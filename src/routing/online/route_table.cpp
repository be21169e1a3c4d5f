#include "src/routing/online/route_table.hpp"

#include <algorithm>

#include "src/util/contracts.hpp"

namespace upn {

namespace {

bool by_dest(const RouteEntry& e, NodeId dest) noexcept { return e.dest < dest; }

}  // namespace

TableUpdate RouteTable::apply(const RouteAnnouncement& a, NodeId via, std::uint32_t now,
                              std::uint32_t seq_lag_per_hop, std::uint32_t max_metric) {
  UPN_REQUIRE(via != self_, "RouteTable: announcements arrive from a neighbor, not self");
  if (a.origin == self_) return TableUpdate::kIgnored;
  const std::uint32_t metric = a.metric + 1;  // one hop through `via`
  // The infinity bound: no honest route is this long, so the announcement
  // can only be count-to-infinity inflation (corpse routes toward a dead
  // origin re-inserting each other with ever-growing metrics).  Dropping
  // it -- WITHOUT refreshing the staleness timer -- lets the corpse drain.
  if (metric > max_metric) return TableUpdate::kIgnored;
  const auto it = std::lower_bound(entries_.begin(), entries_.end(), a.origin, by_dest);
  if (it == entries_.end() || it->dest != a.origin) {
    entries_.insert(it, RouteEntry{a.origin, via, metric, a.seq, now});
    return TableUpdate::kRevised;
  }

  // News from the incumbent next hop: track it.  The path can honestly
  // worsen (churn upstream) -- refusing the update would freeze a lie.
  if (via == it->next_hop) {
    if (a.seq > it->seq || (a.seq == it->seq && metric <= it->metric)) {
      const bool revised = it->metric != metric;
      it->metric = metric;
      it->seq = a.seq;
      it->last_heard = now;
      return revised ? TableUpdate::kRevised : TableUpdate::kRefreshed;
    }
    return TableUpdate::kIgnored;
  }

  // News from a DIFFERENT neighbor: switch for a strictly better metric
  // backed by reasonably fresh news, or when the incumbent's sequence lags
  // far enough behind that its path must be presumed broken (the origin's
  // heartbeats stopped flowing through it).  Without the lag gate,
  // "fresher always wins" lets two paths of unequal delay steal the route
  // from each other every hello cycle, forever; strict metric descent
  // cannot flap (each adoption lowers a bounded metric).  Both thresholds
  // scale per hop: a working k-hop path legitimately lags up to one
  // announcement-rotation cycle PER HOP, so a shorter route may be up to
  // seq_lag_per_hop * (its hops) hellos stale and still be believed, and
  // only a gap beyond seq_lag_per_hop * (incumbent hops + 1) hellos
  // convicts the incumbent.  Transient loops this staleness allowance can
  // form are drained by the max_metric ceiling, the gate itself (a loop
  // cannot advance the origin's sequence), and staleness expiry.
  const std::uint64_t broken_gap =
      static_cast<std::uint64_t>(seq_lag_per_hop) * (it->metric + 1);
  const std::uint64_t lag_allowance =
      static_cast<std::uint64_t>(seq_lag_per_hop) * metric;
  const bool better = metric < it->metric &&
                      std::uint64_t{a.seq} + lag_allowance >= std::uint64_t{it->seq};
  const bool incumbent_broken = a.seq > it->seq && a.seq - it->seq > broken_gap;
  if (better || incumbent_broken) {
    it->next_hop = via;
    it->metric = metric;
    it->seq = a.seq;
    it->last_heard = now;
    return TableUpdate::kRevised;
  }
  return TableUpdate::kIgnored;
}

std::size_t RouteTable::expire(std::uint32_t now, std::uint32_t stale_after) {
  UPN_REQUIRE(stale_after > 0, "RouteTable: a zero staleness window would expire everything");
  const std::size_t before = entries_.size();
  std::erase_if(entries_, [&](const RouteEntry& e) {
    return now - e.last_heard > stale_after;
  });
  UPN_ENSURE(entries_.size() <= before, "expiry cannot add entries");
  return before - entries_.size();
}

NodeId RouteTable::next_hop(NodeId dest) const noexcept {
  const RouteEntry* entry = find(dest);
  return entry == nullptr ? kNoRoute : entry->next_hop;
}

const RouteEntry* RouteTable::find(NodeId dest) const noexcept {
  const auto it = std::lower_bound(entries_.begin(), entries_.end(), dest, by_dest);
  return it != entries_.end() && it->dest == dest ? &*it : nullptr;
}

std::vector<RouteAnnouncement> RouteTable::compose(std::uint32_t own_seq,
                                                   std::uint32_t cap) const {
  UPN_REQUIRE(cap >= 1, "RouteTable: the announcement cap must admit the self entry");
  std::vector<RouteAnnouncement> out;
  out.reserve(std::min<std::size_t>(cap, entries_.size() + 1));
  out.push_back(RouteAnnouncement{self_, own_seq, 0});
  // Nearest peers first (the serval-dna bandwidth-cap rationale: close
  // routes change fastest and matter most); dest id breaks ties so the
  // ranking is deterministic.
  std::vector<const RouteEntry*> ranked;
  ranked.reserve(entries_.size());
  for (const RouteEntry& e : entries_) ranked.push_back(&e);
  std::sort(ranked.begin(), ranked.end(), [](const RouteEntry* a, const RouteEntry* b) {
    return a->metric != b->metric ? a->metric < b->metric : a->dest < b->dest;
  });
  // The window rotates with the hello sequence so a small cap delays far
  // routes instead of silencing them forever: over ceil(E / (cap - 1))
  // hellos every entry is announced at least once.
  const std::size_t window = cap - 1;
  if (!ranked.empty() && window > 0) {
    const std::size_t start =
        (static_cast<std::size_t>(own_seq) * window) % ranked.size();
    for (std::size_t k = 0; k < ranked.size() && out.size() <= window; ++k) {
      const RouteEntry* e = ranked[(start + k) % ranked.size()];
      out.push_back(RouteAnnouncement{e->dest, e->seq, e->metric});
    }
  }
  UPN_ENSURE(out.size() <= cap, "announcements are bandwidth-capped");
  return out;
}

}  // namespace upn
