#include "src/obs/span.hpp"

#include <chrono>
#include <cstddef>

#include "src/obs/metrics.hpp"
#include "src/util/contracts.hpp"

namespace upn::obs {

namespace {

constexpr std::size_t kMaxSpanDepth = 64;

struct ThreadSpanState {
  const char* stack[kMaxSpanDepth] = {};
  std::size_t depth = 0;
  std::uint64_t step = 0;
  bool has_step = false;
};

ThreadSpanState& thread_state() noexcept {
  thread_local ThreadSpanState state;
  return state;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- spans ----------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name, Histogram* timing) noexcept : timing_{timing} {
  ThreadSpanState& state = thread_state();
  if (state.depth < kMaxSpanDepth) state.stack[state.depth] = name;
  ++state.depth;
  if (timing_ != nullptr) start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  ThreadSpanState& state = thread_state();
  if (state.depth > 0) --state.depth;
  if (timing_ != nullptr) timing_->record(now_ns() - start_ns_);
}

ScopedStep::ScopedStep(std::uint64_t step) noexcept {
  ThreadSpanState& state = thread_state();
  previous_ = state.step;
  had_previous_ = state.has_step;
  state.step = step;
  state.has_step = true;
}

ScopedStep::~ScopedStep() {
  ThreadSpanState& state = thread_state();
  state.step = previous_;
  state.has_step = had_previous_;
}

void set_current_step(std::uint64_t step) noexcept {
  ThreadSpanState& state = thread_state();
  state.step = step;
  state.has_step = true;
}

std::string context_suffix() {
  const ThreadSpanState& state = thread_state();
  const std::size_t frames = state.depth < kMaxSpanDepth ? state.depth : kMaxSpanDepth;
  std::string suffix;
  if (frames > 0) {
    suffix += "in ";
    suffix += state.stack[frames - 1];
  }
  if (state.has_step) {
    if (!suffix.empty()) suffix += ", ";
    suffix += "step " + std::to_string(state.step);
  }
  if (suffix.empty()) return suffix;
  return " [" + suffix + "]";
}

// Install the span context into the contracts layer so ContractViolation
// messages name the phase/step without util depending on obs.
namespace {
const bool g_context_hook_installed = [] {
  set_contract_context_provider(&context_suffix);
  return true;
}();
}  // namespace

}  // namespace upn::obs
