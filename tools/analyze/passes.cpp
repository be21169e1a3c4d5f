#include "tools/analyze/passes.hpp"

#include <tuple>

namespace upn::analyze {

std::string Finding::format() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

bool finding_less(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.rule, a.message) <
         std::tie(b.file, b.line, b.rule, b.message);
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {"dead-function",
       "a src/ function or member function whose name is never referenced outside its own "
       "declarations and tests/"},
      {"hotpath-alloc",
       "heap allocation inside a loop in a hotpath-declared module; hoist it or use a "
       "preallocated buffer"},
      {"hotpath-by-value-param",
       "a container/string parameter taken by value in a hotpath-declared module; take "
       "const& instead"},
      {"hotpath-container",
       "std::deque/std::map/std::list in a hotpath-declared module; prefer node-indexed "
       "vectors or flat arrays"},
      {"hotpath-virtual",
       "virtual dispatch declared in a hotpath-declared module; inner loops need "
       "inlinable calls"},
      {"include-cycle", "the #include graph contains a cycle through this file"},
      {"layering-declared-cycle",
       "the declared module DAG in docs/ARCHITECTURE.layers is cyclic"},
      {"layering-stale-waiver",
       "a waived module edge no longer occurs; delete the waiver"},
      {"layering-undeclared-edge",
       "a cross-module #include not declared in docs/ARCHITECTURE.layers and not waived"},
      {"layering-undeclared-module",
       "a layer dependency names a module the layers file never declares"},
      {"layering-unknown-module",
       "a src/ module missing from docs/ARCHITECTURE.layers"},
      {"layers-malformed", "unparseable line in the layers file"},
      {"lock-order-cycle",
       "the observed held-before relation over mutexes is cyclic; two threads taking the "
       "locks in opposite order deadlock"},
      {"narrowing-cast",
       "static_cast to a narrower integer type with no adjacent contract establishing the "
       "range"},
      {"no-endl", "std::endl flushes on every call; use '\\n'"},
      {"no-raw-thread",
       "std::thread outside src/util/par; all parallelism flows through upn::ThreadPool"},
      {"no-std-rand", "rand()/srand() are not reproducible across platforms; use upn::Rng"},
      {"no-unseeded-rng",
       "std:: random engines break seed-reproducibility; thread an explicit upn::Rng"},
      {"par-shared-mutation",
       "a by-reference captured variable is written inside a parallel task without "
       "index-disjoint writes, atomics, or a lock"},
      {"par-shared-rng",
       "an outer upn::Rng is used inside a parallel task; derive per-task sub-streams "
       "with Rng::stream(seed, index)"},
      {"pragma-once", "header is missing #pragma once"},
      {"rng-by-value",
       "upn::Rng parameter taken by value forks the stream state; pass Rng& or derive a "
       "sub-stream with Rng::stream(seed, index)"},
      {"taint-address",
       "a value derived from pointer identity flows into a deterministic sink; pointer "
       "values vary run to run"},
      {"taint-thread-id",
       "a value derived from std::thread::id flows into a deterministic sink; thread "
       "identity depends on scheduling"},
      {"taint-timing",
       "a raw clock value flows into a deterministic sink; timing belongs on the kTiming "
       "side of the obs split"},
      {"taint-unordered-order",
       "a value carrying unordered-container iteration order flows into a deterministic "
       "sink; sort first or use std::map"},
      {"task-blocking-call",
       "a lock acquisition or condition-variable wait reachable from a ThreadPool task "
       "body; blocked workers stall the pool"},
      {"task-blocking-io",
       "file/stream IO reachable from a ThreadPool task body; IO latency stalls a pool "
       "worker"},
      {"thread-detach",
       "detached threads outlive their resources and break deterministic joins"},
      {"unused-include",
       "no name from the included header's transitive declarations is used; drop the "
       "include"},
  };
  return catalog;
}

}  // namespace upn::analyze
