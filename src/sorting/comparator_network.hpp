// Comparator networks.
//
// Section 1/2 background: Galil and Paul reduce universality to sorting --
// "each network M of size m that can sort n numbers in time sort(n, m) is
// n-universal with slowdown O(sort(n, m))" -- and the paper's deterministic
// h-h routing alternative applies Leighton's Columnsort to a sorting
// circuit.  This header gives the common representation: a network is a
// sequence of layers, each a set of pairwise-disjoint comparators; one layer
// is one parallel communication step on a host whose edges realize the
// comparator pairs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace upn {

/// Compare-exchange on wires (low, high): after it, value at `low` <= value
/// at `high`.  `low > high` as indices is legal and yields a descending
/// comparator (as bitonic merge stages require).
struct Comparator {
  std::uint32_t low = 0;
  std::uint32_t high = 0;
};

class ComparatorNetwork {
 public:
  explicit ComparatorNetwork(std::uint32_t wires, std::string name = "network");

  /// Starts a new layer; subsequent add() calls land in it.
  void begin_layer();

  /// Adds a comparator to the current layer.  Throws if a wire is already
  /// used in this layer or out of range.
  void add(std::uint32_t a, std::uint32_t b);

  [[nodiscard]] std::uint32_t wires() const noexcept { return wires_; }
  [[nodiscard]] std::uint32_t depth() const noexcept {
    return static_cast<std::uint32_t>(layers_.size());
  }
  [[nodiscard]] std::uint64_t size() const;  ///< total comparator count
  [[nodiscard]] const std::vector<std::vector<Comparator>>& layers() const noexcept {
    return layers_;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Applies the network in place.
  void apply(std::span<std::uint64_t> values) const;

  /// Applies the network to keys, swapping the parallel payloads alongside
  /// (a sorting network moving records, not just keys).
  void apply_with_payload(std::span<std::uint64_t> keys,
                          std::span<std::uint64_t> payloads) const;

 private:
  std::uint32_t wires_;
  std::string name_;
  std::vector<std::vector<Comparator>> layers_;
  std::vector<char> used_in_layer_;  ///< wire -> used in current layer
};

}  // namespace upn
