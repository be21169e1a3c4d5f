// Artifact lint: Pass 12 of upn_analyze checks the serialized artifact
// formats (.upnp protocols, .upne embeddings, .upns schedules, .upnf fault
// plans) against the invariants their headers declare.  In-memory inputs
// pin each rule id and the line it reports; the committed clean fixtures
// must pass the whole engine untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/analyze/engine.hpp"
#include "tools/analyze/passes.hpp"

namespace upn::analyze {
namespace {

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

Report analyze_fixtures() {
  TreeOptions options;
  options.root = UPN_FIXTURES_DIR;
  options.paths = {"."};
  options.excludes.clear();  // the fixtures live under tests/
  Input input;
  std::string error;
  EXPECT_TRUE(collect_tree(options, input, error)) << error;
  return analyze(input);
}

std::vector<Finding> check(const std::string& path, const std::string& content) {
  return run_artifact_pass(SourceFile{path, content});
}

TEST(AnalyzeArtifacts, ExtensionClassification) {
  for (const char* path : {"p.upnp", "e.upne", "s.upns", "f.upnf"}) {
    EXPECT_TRUE(is_artifact_path(path)) << path;
  }
  for (const char* path : {"p.txt", "src/util/math.cpp", "upnp"}) {
    EXPECT_FALSE(is_artifact_path(path)) << path;
  }
}

TEST(AnalyzeArtifacts, CleanProtocolPasses) {
  EXPECT_TRUE(check("p.upnp",
                    "upn-protocol 1 2 2 1\n"
                    "step\n"
                    "G 0 0 1\n"
                    "G 1 1 1\n"
                    "step\n"
                    "S 0 0 1 1\n"
                    "R 1 0 1 0\n")
                  .empty());
}

TEST(AnalyzeArtifacts, MalformedProtocolIsRejectedFileScoped) {
  const std::vector<Finding> findings = check("p.upnp", "upn-protocol 9 junk\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].format(),
            "p.upnp:0: [artifact-malformed] " + findings[0].message);
  EXPECT_NE(findings[0].message.find("line 1"), std::string::npos) << findings[0].message;
}

TEST(AnalyzeArtifacts, UnmatchedReceiveIsFlaggedWithItsLine) {
  const std::vector<Finding> findings = check("p.upnp",
                                              "upn-protocol 1 2 2 1\n"
                                              "step\n"
                                              "G 0 0 1\n"
                                              "G 1 1 1\n"
                                              "step\n"
                                              "R 1 0 1 0\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "protocol-unmatched-receive");
  EXPECT_EQ(findings[0].line, 6u);
}

TEST(AnalyzeArtifacts, MissingFinalPebbleIsFlagged) {
  EXPECT_TRUE(has_rule(check("p.upnp",
                             "upn-protocol 1 2 2 1\n"
                             "step\n"
                             "G 0 0 1\n"),
                       "protocol-final-coverage"));
}

TEST(AnalyzeArtifacts, EmbeddingLoadCheckedAgainstDeclaration) {
  EXPECT_TRUE(check("e.upne", "upn-embedding 1 4 4 1\n0\n1\n2\n3\n").empty());
  EXPECT_EQ(rules_of(check("e.upne", "upn-embedding 1 4 4 1\n0\n0\n1\n2\n")),
            std::vector<std::string>{"embedding-load-exceeds-declaration"});
}

TEST(AnalyzeArtifacts, ScheduleBoundsCheckedAgainstDeclaration) {
  EXPECT_TRUE(check("s.upns",
                    "upn-schedule 1 2 1 1 1\n"
                    "step\n"
                    "M 0 0 1\n"
                    "M 1 2 3\n")
                  .empty());
  const std::vector<Finding> over = check("s.upns",
                                          "upn-schedule 1 2 1 1 2\n"
                                          "step\n"
                                          "M 0 0 1\n"
                                          "step\n"
                                          "M 0 1 2\n"
                                          "M 1 0 1\n");
  EXPECT_TRUE(has_rule(over, "schedule-congestion-exceeds-declaration"));
  EXPECT_TRUE(has_rule(over, "schedule-dilation-exceeds-declaration"));
}

TEST(AnalyzeArtifacts, ScheduleConflictAndBrokenPath) {
  EXPECT_TRUE(has_rule(check("s.upns",
                             "upn-schedule 1 2 2 1 1\n"
                             "step\n"
                             "M 0 0 1\n"
                             "M 1 0 1\n"),
                       "schedule-link-conflict"));
  EXPECT_TRUE(has_rule(check("s.upns",
                             "upn-schedule 1 1 1 2 2\n"
                             "step\n"
                             "M 0 0 1\n"
                             "step\n"
                             "M 0 3 4\n"),
                       "schedule-broken-path"));
}

TEST(AnalyzeArtifacts, FaultPlanDuplicatesFlagged) {
  const std::vector<Finding> findings = check("f.upnf",
                                              "upn-faultplan 1 0 2 0 0\n"
                                              "L 0 1 0\n"
                                              "L 1 0 5\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "faultplan-duplicate-fault");
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(AnalyzeFixtures, CleanArtifactsPass) {
  const Report report = analyze_fixtures();
  EXPECT_TRUE(report.findings.empty()) << report.render_text();
  EXPECT_GE(report.files, 4u) << "expected one clean fixture per artifact format";
}

}  // namespace
}  // namespace upn::analyze
