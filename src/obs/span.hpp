// RAII scoped spans with thread-local span stacks, and step context for
// error messages.
//
// A span marks one phase of work ("sim.universal.route").  Spans nest per
// thread; the stack is thread-local, so spans opened inside pool tasks are
// independent of the caller's stack.  Two consumers:
//
//  * timing   -- with collection on (obs::enabled()), UPN_OBS_SPAN records
//                each span's duration in ns into the kTiming histogram of
//                the same name (src/obs/obs.hpp), so a snapshot gives every
//                phase's count, total and power-of-two duration buckets; the
//                bench harness writes the per-section delta as
//                results[i].timing;
//  * context  -- context_suffix() names the innermost span and the current
//                step; src/util/contracts appends it to ContractViolation
//                diagnostics, and the router/validator error paths append
//                it to their messages, so a failure names the phase and
//                step it died in.
//
// Overhead: with collection off, a span is a thread-local push/pop plus one
// relaxed atomic load -- no clock is read.  context helpers use only the
// innermost frame so error text is identical whether the work ran inline or
// on a pool worker (the differential tests depend on this).
#pragma once

#include <cstdint>
#include <string>

namespace upn::obs {

class Histogram;

/// Monotonic clock reading in nanoseconds.  The single sanctioned timing
/// primitive outside bench/harness (upn_analyze's taint-timing rule rejects
/// clock readings that reach a deterministic output anywhere else).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Opens a span for the current scope.  `name` must outlive the span --
/// pass a string literal (the stack keeps the pointer, not a copy).  When
/// `timing` is non-null the span's duration in ns is recorded into it on
/// scope exit; UPN_OBS_SPAN passes the span's own kTiming histogram while
/// collection is on and null otherwise.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Histogram* timing) noexcept;
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Histogram* timing_;
  std::uint64_t start_ns_ = 0;
};

/// Step/round context for error messages: the simulators set the guest
/// step, the router the router step, the validator the protocol step.
/// Restores the previous value on scope exit (contexts nest).
class ScopedStep {
 public:
  explicit ScopedStep(std::uint64_t step) noexcept;
  ~ScopedStep();

  ScopedStep(const ScopedStep&) = delete;
  ScopedStep& operator=(const ScopedStep&) = delete;

 private:
  std::uint64_t previous_ = 0;
  bool had_previous_ = false;
};

/// Updates the current step in place (cheap: one thread-local store).  Used
/// by loops that advance a step counter inside one ScopedStep scope.
void set_current_step(std::uint64_t step) noexcept;

/// " [in <innermost span>, step <N>]" -- or the parts that exist, or "".
/// Appended to contract and validator/router diagnostics.  Uses only the
/// innermost span so the text is identical on pool workers and inline runs.
[[nodiscard]] std::string context_suffix();

}  // namespace upn::obs
