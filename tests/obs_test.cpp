// Unit tests for the obs layer: metric semantics (counter/gauge/histogram
// and the fixed bucket layout), registry snapshot/reset behavior, span
// nesting, span timing and error context, snapshot exporters, and delta
// attribution.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"
#include "src/util/par.hpp"
#include "tests/support/snapshot_text.hpp"

namespace upn::obs {
namespace {

/// Every test runs with collection on and a zeroed registry.  Names are
/// unique per test because reset() keeps registrations alive (zeroed rows
/// would otherwise leak between snapshot-shape assertions; delta_rows drops
/// them, full snapshots do not).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    registry().reset();
  }
  void TearDown() override { registry().reset(); }
};

// ---- counters -------------------------------------------------------------

TEST_F(ObsTest, CounterAccumulatesAndResets) {
  Counter& c = registry().counter("test.counter.basic");
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, CounterStripesMergeToTheExactSum) {
  Counter& c = registry().counter("test.counter.striped");
  ThreadPool pool{4};
  pool.parallel_for(1000, [&](std::size_t) { c.add(1); });
  EXPECT_EQ(c.value(), 1000u);
}

// ---- gauges ---------------------------------------------------------------

TEST_F(ObsTest, GaugeTracksValueAndRunningMax) {
  Gauge& g = registry().gauge("test.gauge.basic");
  g.set(5);
  g.record_max(9);
  g.record_max(2);  // lower than current max: no effect on max
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.max_value(), 9);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max_value(), 0);
}

TEST_F(ObsTest, GaugeMaxIsCommutative) {
  Gauge& g = registry().gauge("test.gauge.max");
  ThreadPool pool{4};
  pool.parallel_for(100, [&](std::size_t i) {
    g.record_max(static_cast<std::int64_t>(i));
  });
  EXPECT_EQ(g.max_value(), 99);
}

// ---- histograms -----------------------------------------------------------

TEST_F(ObsTest, HistogramBucketLayoutIsPowerOfTwo) {
  // bucket 0 holds 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), kHistogramBuckets - 1);
}

TEST_F(ObsTest, HistogramRecordsCountSumAndBuckets) {
  Histogram& h = registry().histogram("test.hist.basic");
  for (const std::uint64_t v : {0u, 1u, 3u, 3u, 8u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 15u);
  EXPECT_EQ(h.bucket(0), 1u);  // the single 0
  EXPECT_EQ(h.bucket(2), 2u);  // the two 3s
  EXPECT_EQ(h.bucket(4), 1u);  // the 8
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

// ---- registry -------------------------------------------------------------

TEST_F(ObsTest, SnapshotIsNameSortedAndKindFilterable) {
  registry().counter("test.snap.z").add(1);
  registry().gauge("test.snap.a").set(2);
  registry().counter("test.snap.timing", MetricKind::kTiming).add(99);

  const auto rows = registry().snapshot();
  // Name-sorted: "a" before "timing" before "z" within this test's prefix.
  std::vector<std::string> names;
  for (const auto& row : rows) {
    if (row.name.rfind("test.snap.", 0) == 0) names.push_back(row.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"test.snap.a", "test.snap.timing",
                                             "test.snap.z"}));

  const auto deterministic = registry().snapshot(MetricKind::kDeterministic);
  for (const auto& row : deterministic) {
    EXPECT_NE(row.name, "test.snap.timing") << "kTiming leaked into deterministic snapshot";
  }
}

TEST_F(ObsTest, ResetZeroesButKeepsReferencesValid) {
  Counter& c = registry().counter("test.reset.counter");
  c.add(5);
  const std::size_t size_before = registry().size();
  registry().reset();
  EXPECT_EQ(registry().size(), size_before);  // registration preserved
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the old reference still works
  EXPECT_EQ(c.value(), 2u);
}

TEST_F(ObsTest, ReregistrationWithDifferentTypeIsAContractViolation) {
  registry().counter("test.type.clash");
  EXPECT_THROW(registry().gauge("test.type.clash"), ContractViolation);
  EXPECT_THROW(registry().counter("test.type.clash", MetricKind::kTiming),
               ContractViolation);
}

// ---- exporters and deltas -------------------------------------------------

TEST_F(ObsTest, DeltaRowsSubtractCountersAndDropAllZeroRows) {
  Counter& moved = registry().counter("test.delta.moved");
  registry().counter("test.delta.idle").add(10);
  moved.add(10);
  const auto before = registry().snapshot(MetricKind::kDeterministic);
  moved.add(7);
  const auto delta = delta_rows(before, registry().snapshot(MetricKind::kDeterministic));
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].name, "test.delta.moved");
  EXPECT_EQ(delta[0].count, 7u);
}

TEST_F(ObsTest, DeltaRowsKeepGaugeAfterStateAndSubtractHistograms) {
  Gauge& g = registry().gauge("test.delta.gauge");
  Histogram& h = registry().histogram("test.delta.hist");
  g.record_max(4);
  h.record(3);
  const auto before = registry().snapshot(MetricKind::kDeterministic);
  g.record_max(9);
  h.record(3);
  h.record(100);
  const auto delta = delta_rows(before, registry().snapshot(MetricKind::kDeterministic));
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0].name, "test.delta.gauge");
  EXPECT_EQ(delta[0].max, 9);  // gauges keep the after-state (max cannot be un-merged)
  EXPECT_EQ(delta[1].name, "test.delta.hist");
  EXPECT_EQ(delta[1].count, 2u);
  EXPECT_EQ(delta[1].sum, 103u);
  // Bucket deltas: one more in bucket_of(3) = 2, one in bucket_of(100) = 7.
  EXPECT_EQ(delta[1].buckets,
            (std::vector<std::pair<std::uint32_t, std::uint64_t>>{{2, 1}, {7, 1}}));
}

TEST_F(ObsTest, TextAndJsonExportersRenderEveryType) {
  registry().counter("test.export.c").add(3);
  registry().gauge("test.export.g").record_max(5);
  registry().histogram("test.export.h").record(2);
  const auto rows = registry().snapshot(MetricKind::kDeterministic);
  const std::string text = snapshot_text(rows);
  EXPECT_NE(text.find("test.export.c"), std::string::npos);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("gauge"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
  const std::string json = snapshot_json(rows);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\": \"test.export.c\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
}

// ---- runtime gating -------------------------------------------------------

TEST_F(ObsTest, MacrosAreInertWhenDisabled) {
  set_enabled(false);
  const std::size_t before = registry().size();
  UPN_OBS_COUNT("test.gated.counter", 1);
  UPN_OBS_GAUGE_MAX("test.gated.gauge", 5);
  UPN_OBS_HIST("test.gated.hist", 7);
  UPN_OBS_TIMING_ADD("test.gated.timing", 9);
  {
    UPN_OBS_SPAN("test.gated.span");
  }
  EXPECT_EQ(registry().size(), before) << "disabled macros must not register metrics";
  set_enabled(true);
  UPN_OBS_COUNT("test.gated.counter", 1);
  EXPECT_GT(registry().size(), before);
}

// ---- spans and context ----------------------------------------------------

/// The kTiming row a span of this name left in `rows`, or null.  The
/// pointer is into `rows`, so callers keep the snapshot alive.
const MetricRow* timing_row(const std::vector<MetricRow>& rows, const std::string& name) {
  for (const MetricRow& row : rows) {
    if (row.name == name && row.kind == MetricKind::kTiming) return &row;
  }
  return nullptr;
}

TEST_F(ObsTest, SpanRecordsItsDurationIntoATimingHistogram) {
  {
    UPN_OBS_SPAN("test.span.timed");
  }
  const std::vector<MetricRow> rows = registry().snapshot();
  const MetricRow* row = timing_row(rows, "test.span.timed");
  ASSERT_NE(row, nullptr) << snapshot_text(rows);
  EXPECT_EQ(row->type, 'h');
  EXPECT_EQ(row->count, 1u);
  for (const MetricRow& deterministic : registry().snapshot(MetricKind::kDeterministic)) {
    EXPECT_NE(deterministic.name, "test.span.timed") << "span timing leaked into the "
                                                        "deterministic snapshot";
  }
}

TEST_F(ObsTest, NestedSpansRecordSeparately) {
  for (int i = 0; i < 3; ++i) {
    UPN_OBS_SPAN("test.span.outer");
    for (int j = 0; j < 2; ++j) {
      UPN_OBS_SPAN("test.span.inner");
    }
  }
  const std::vector<MetricRow> rows = registry().snapshot();
  const MetricRow* outer = timing_row(rows, "test.span.outer");
  const MetricRow* inner = timing_row(rows, "test.span.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 3u);
  EXPECT_EQ(inner->count, 6u);
  EXPECT_GE(outer->sum, inner->sum) << "the outer spans enclose every inner one";
}

TEST_F(ObsTest, SpansInPoolTasksLandInTheSameHistogram) {
  ThreadPool pool{4};
  pool.parallel_for(40, [](std::size_t) { UPN_OBS_SPAN("test.span.pooled"); });
  {
    UPN_OBS_SPAN("test.span.pooled");
  }
  const std::vector<MetricRow> rows = registry().snapshot();
  const MetricRow* row = timing_row(rows, "test.span.pooled");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 41u);
}

TEST_F(ObsTest, ContextSuffixNamesInnermostSpanAndStep) {
  EXPECT_EQ(context_suffix(), "");
  UPN_OBS_SPAN("sim.universal.run");
  {
    UPN_OBS_SPAN("sim.universal.route");
    ScopedStep step{7};
    EXPECT_EQ(context_suffix(), " [in sim.universal.route, step 7]");
    set_current_step(8);
    EXPECT_EQ(context_suffix(), " [in sim.universal.route, step 8]");
  }
  // Step context is restored on scope exit; only the outer span remains.
  EXPECT_EQ(context_suffix(), " [in sim.universal.run]");
}

TEST_F(ObsTest, ContractViolationsCarryTheSpanContext) {
  UPN_OBS_SPAN("pebble.validator.replay");
  ScopedStep step{3};
  try {
    UPN_REQUIRE(false, "synthetic failure");
    FAIL() << "UPN_REQUIRE(false) must throw";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("synthetic failure"), std::string::npos) << what;
    EXPECT_NE(what.find("[in pebble.validator.replay, step 3]"), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace upn::obs
