// Umbrella header + instrumentation macros for the observability layer.
//
// Call sites use the UPN_OBS_* macros below rather than touching the
// registry directly: each expands to a statically-cached metric reference
// guarded by obs::enabled() (one relaxed atomic load when collection is
// off).
//
// Metric names are string literals following `layer.subsystem.name`; the
// catalog lives in docs/OBSERVABILITY.md.
#pragma once

#include "src/obs/export.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"

#define UPN_OBS_CAT_IMPL_(a, b) a##b
#define UPN_OBS_CAT_(a, b) UPN_OBS_CAT_IMPL_(a, b)

/// Bumps the named counter by `delta` when collection is enabled.
#define UPN_OBS_COUNT(name, delta)                                            \
  do {                                                                        \
    if (::upn::obs::enabled()) [[unlikely]] {                                 \
      static ::upn::obs::Counter& upn_obs_counter_ =                          \
          ::upn::obs::registry().counter(name);                               \
      upn_obs_counter_.add(static_cast<::std::uint64_t>(delta));              \
    }                                                                         \
  } while (false)

/// Folds `value` into the named gauge's running max.
#define UPN_OBS_GAUGE_MAX(name, value)                                        \
  do {                                                                        \
    if (::upn::obs::enabled()) [[unlikely]] {                                 \
      static ::upn::obs::Gauge& upn_obs_gauge_ =                              \
          ::upn::obs::registry().gauge(name);                                 \
      upn_obs_gauge_.record_max(static_cast<::std::int64_t>(value));          \
    }                                                                         \
  } while (false)

/// Records `value` into the named histogram.
#define UPN_OBS_HIST(name, value)                                             \
  do {                                                                        \
    if (::upn::obs::enabled()) [[unlikely]] {                                 \
      static ::upn::obs::Histogram& upn_obs_hist_ =                           \
          ::upn::obs::registry().histogram(name);                             \
      upn_obs_hist_.record(static_cast<::std::uint64_t>(value));              \
    }                                                                         \
  } while (false)

/// Adds wall-clock nanoseconds to a kTiming counter (excluded from
/// deterministic snapshots).
#define UPN_OBS_TIMING_ADD(name, ns)                                          \
  do {                                                                        \
    if (::upn::obs::enabled()) [[unlikely]] {                                 \
      static ::upn::obs::Counter& upn_obs_timing_ =                           \
          ::upn::obs::registry().counter(name, ::upn::obs::MetricKind::kTiming); \
      upn_obs_timing_.add(static_cast<::std::uint64_t>(ns));                  \
    }                                                                         \
  } while (false)

/// Opens a span for the rest of the enclosing scope.  With collection on,
/// its duration in ns goes into the kTiming histogram named after the span.
#define UPN_OBS_SPAN(name)                                                    \
  ::upn::obs::ScopedSpan UPN_OBS_CAT_(upn_obs_span_, __LINE__) {              \
    name, ::upn::obs::enabled() ? &[]() -> ::upn::obs::Histogram& {           \
      static ::upn::obs::Histogram& upn_obs_span_hist_ =                      \
          ::upn::obs::registry().histogram(name, ::upn::obs::MetricKind::kTiming); \
      return upn_obs_span_hist_;                                              \
    }() : nullptr                                                             \
  }

/// Sets the step context for the rest of the enclosing scope.
#define UPN_OBS_STEP(step) \
  ::upn::obs::ScopedStep UPN_OBS_CAT_(upn_obs_step_, __LINE__) { \
    static_cast<::std::uint64_t>(step)                           \
  }

/// Updates the step inside an existing UPN_OBS_STEP scope.
#define UPN_OBS_SET_STEP(step) \
  ::upn::obs::set_current_step(static_cast<::std::uint64_t>(step))
