// RAII scoped spans with thread-local span stacks, step context for error
// messages, and the Chrome-trace-event session behind UPN_TRACE.
//
// A span marks one phase of work ("sim.universal.route").  Spans nest per
// thread; the stack is thread-local, so spans opened inside pool tasks are
// independent of the caller's stack.  Three consumers:
//
//  * tracing  -- when a trace session is active (UPN_TRACE=path, a --trace
//                flag, or start_trace()), every completed span becomes one
//                Chrome trace-event; write_trace() emits a *.trace.json
//                loadable in Perfetto or chrome://tracing;
//  * context  -- context_suffix() names the innermost span and the current
//                step; src/util/contracts appends it to ContractViolation
//                diagnostics, and the router/validator error paths append
//                it to their messages, so a failure names the phase and
//                step it died in;
//  * metrics  -- callers pair spans with registry counters; spans
//                themselves record no deterministic metrics (durations are
//                wall-clock and would break snapshot determinism).
//
// Overhead: with tracing off and metrics off, a span is a thread-local
// push/pop plus one relaxed atomic load -- no clock is read.  context
// helpers use only the innermost frame so error text is identical whether
// the work ran inline or on a pool worker (the differential tests depend
// on this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace upn::obs {

/// Monotonic clock reading in nanoseconds.  The single sanctioned timing
/// primitive outside bench/harness (upn_analyze's taint-timing rule rejects
/// clock readings that reach a deterministic output anywhere else).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Opens a span for the current scope.  `name` must outlive the span --
/// pass a string literal (the trace keeps the pointer, not a copy).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
  bool timed_ = false;
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

/// The calling thread's span stack joined with '/', "" when empty.
[[nodiscard]] std::string current_span_path();

/// " [in <innermost span>, step <N>]" -- or the parts that exist, or "".
/// Appended to contract and validator/router diagnostics.  Uses only the
/// innermost span so the text is identical on pool workers and inline runs.
[[nodiscard]] std::string context_suffix();

// ---- trace session --------------------------------------------------------

/// One completed span, in session-relative nanoseconds.
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< per-thread id in first-span order (1-based)
};

[[nodiscard]] bool trace_enabled() noexcept;

/// Starts (or retargets) the trace session writing to `path`.
void start_trace(std::string path);

/// Starts a session from UPN_TRACE if set, once per process, and arranges
/// for the trace to be written at exit.  Called lazily by the first span;
/// harnesses may call it explicitly.  Does nothing if a session was already
/// started explicitly.  Returns true iff a session is active afterwards.
bool init_trace_from_env();

/// Path of the active session ("" when none).
[[nodiscard]] std::string trace_path();

/// Writes the collected events to the session path as Chrome trace-event
/// JSON.  Keeps the events (idempotent).  False on IO failure or when no
/// session is active.
bool write_trace();

/// Disables the session and discards collected events (tests).
void stop_trace();

/// Copy of the collected events, in completion order (tests, exporters).
[[nodiscard]] std::vector<SpanEvent> trace_events();

}  // namespace upn::obs
