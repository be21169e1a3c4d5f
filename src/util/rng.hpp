// Deterministic, fast pseudo-random number generation for the whole library.
//
// All randomized algorithms in this repository (random regular graphs, Valiant
// routing, workload generation, ...) take an explicit Rng so that every
// experiment is reproducible from a single 64-bit seed.  The generator is
// xoshiro256** (Blackman & Vigna), seeded through splitmix64 so that even
// low-entropy seeds (0, 1, 2, ...) yield well-mixed state.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace upn {

/// splitmix64 step: used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mixing function (Stafford variant 13).  Used by the
/// synchronous computation model to derive deterministic "computations".
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256**: 256-bit state, period 2^256-1, passes BigCrush.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x5eedULL) noexcept { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) noexcept {
    for (auto& word : state_) word = splitmix64(seed);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  Lemire's multiply-shift with rejection.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Fisher-Yates shuffle of a whole vector.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// A uniformly random permutation of [0, n).
  [[nodiscard]] std::vector<std::uint32_t> permutation(std::uint32_t n) noexcept;

  /// Independent sub-stream for task `task_index` of a parallel region
  /// seeded with `seed`.  Rng state is mutable and unsynchronized, so a
  /// generator must NEVER be shared across ThreadPool tasks; parallel
  /// drivers give each task its own stream(seed, i) instead.  The mapping
  /// is a pure function of (seed, task_index), so results are independent
  /// of thread count and scheduling order -- pinned by determinism_test.
  [[nodiscard]] static constexpr Rng stream(std::uint64_t seed,
                                            std::uint64_t task_index) noexcept {
    return Rng{mix64(mix64(seed ^ 0x7061722d75706eULL) ^
                     mix64(task_index + 0x9e3779b97f4a7c15ULL))};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace upn
