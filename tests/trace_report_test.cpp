// Tests for the trace tooling (tools/obs/trace_check): the parser accepts
// exactly the Chrome trace-event subset src/obs/span.cpp emits, rejects
// structural corruption with a reason, and the summary aggregates per-phase
// -- plus a round-trip through a real obs trace session.
#include <gtest/gtest.h>

#include <string>

#include "src/obs/obs.hpp"
#include "tools/obs/trace_check.hpp"

namespace upn::tools {
namespace {

const char* const kMinimalTrace =
    R"({"traceEvents":[
{"name":"sim.universal.route","cat":"upn","ph":"X","ts":1.5,"dur":10.0,"pid":1,"tid":1},
{"name":"sim.universal.route","cat":"upn","ph":"X","ts":20.0,"dur":30.0,"pid":1,"tid":2},
{"name":"sim.universal.compute","cat":"upn","ph":"X","ts":0.0,"dur":5.0,"pid":1,"tid":1}
],"displayTimeUnit":"ms"})";

TEST(TraceCheck, ParsesTheEmittedSubset) {
  const ParsedTrace trace = parse_trace(kMinimalTrace);
  ASSERT_TRUE(trace.ok) << trace.error;
  ASSERT_EQ(trace.events.size(), 3u);
  EXPECT_EQ(trace.events[0].name, "sim.universal.route");
  EXPECT_DOUBLE_EQ(trace.events[0].ts_us, 1.5);
  EXPECT_DOUBLE_EQ(trace.events[0].dur_us, 10.0);
  EXPECT_EQ(trace.events[0].pid, 1u);
  EXPECT_EQ(trace.events[1].tid, 2u);
}

TEST(TraceCheck, EmptyEventListIsValid) {
  const ParsedTrace trace = parse_trace(R"({"traceEvents":[]})");
  EXPECT_TRUE(trace.ok) << trace.error;
  EXPECT_TRUE(trace.events.empty());
}

TEST(TraceCheck, RejectsStructuralCorruption) {
  // Not an object at all.
  EXPECT_FALSE(parse_trace("[]").ok);
  // Missing the traceEvents key.
  EXPECT_FALSE(parse_trace(R"({"displayTimeUnit":"ms"})").ok);
  // Non-"X" phase (Perfetto needs complete events from this writer).
  EXPECT_FALSE(
      parse_trace(R"({"traceEvents":[{"name":"a","ph":"B","ts":0,"dur":1}]})").ok);
  // Missing name / negative duration.
  EXPECT_FALSE(parse_trace(R"({"traceEvents":[{"ph":"X","ts":0,"dur":1}]})").ok);
  EXPECT_FALSE(
      parse_trace(R"({"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":-1}]})").ok);
  // Trailing garbage after the object.
  EXPECT_FALSE(parse_trace(R"({"traceEvents":[]} extra)").ok);
  // Truncated file.
  EXPECT_FALSE(parse_trace(R"({"traceEvents":[{"name":"a")").ok);
  // Every rejection carries a reason.
  EXPECT_FALSE(parse_trace("[]").error.empty());
}

TEST(TraceCheck, UnreadableFileSurfacesAnIoError) {
  const ParsedTrace trace = parse_trace_file("/nonexistent/upn.trace.json");
  EXPECT_FALSE(trace.ok);
  EXPECT_NE(trace.error.find("cannot read"), std::string::npos) << trace.error;
}

TEST(TraceCheck, SummaryGroupsByNameSortedByTotalDuration) {
  const ParsedTrace trace = parse_trace(kMinimalTrace);
  ASSERT_TRUE(trace.ok) << trace.error;
  const auto phases = summarize(trace.events);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "sim.universal.route");  // 40us total beats 5us
  EXPECT_EQ(phases[0].count, 2u);
  EXPECT_DOUBLE_EQ(phases[0].total_us, 40.0);
  EXPECT_DOUBLE_EQ(phases[0].max_us, 30.0);
  EXPECT_EQ(phases[1].name, "sim.universal.compute");

  // Equal totals come out in name order, after every larger total.
  auto event = [](const char* name, double dur_us) {
    TraceEvent e;
    e.name = name;
    e.dur_us = dur_us;
    return e;
  };
  const auto tied = summarize({event("mid", 10), event("big", 10), event("zzz", 20)});
  ASSERT_EQ(tied.size(), 3u);
  EXPECT_EQ(tied[0].name, "zzz");
  EXPECT_EQ(tied[1].name, "big");
  EXPECT_EQ(tied[2].name, "mid");
}

TEST(TraceCheck, RoundTripsARealObsTraceSession) {
  const std::string path = ::testing::TempDir() + "trace_report_test.trace.json";
  obs::start_trace(path);
  {
    obs::ScopedSpan outer{"roundtrip.outer"};
    obs::ScopedSpan inner{"roundtrip.inner"};
  }
  ASSERT_TRUE(obs::write_trace());
  obs::stop_trace();

  const ParsedTrace trace = parse_trace_file(path);
  ASSERT_TRUE(trace.ok) << trace.error;
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].name, "roundtrip.inner");  // completion order
  EXPECT_EQ(trace.events[1].name, "roundtrip.outer");
  EXPECT_EQ(trace.events[0].pid, 1u);
  EXPECT_GE(trace.events[0].tid, 1u);
}

}  // namespace
}  // namespace upn::tools
