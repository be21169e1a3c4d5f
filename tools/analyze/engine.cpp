#include "tools/analyze/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/util/par.hpp"
#include "tools/analyze/callgraph.hpp"

namespace fs = std::filesystem;

namespace upn::analyze {

namespace {

bool is_source_path(const std::string& path) {
  return path.ends_with(".cpp") || path.ends_with(".hpp");
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace

std::string Report::render_text() const {
  std::string out;
  for (const Finding& f : findings) out += f.format() + "\n";
  out += "upn_analyze: " + std::to_string(findings.size()) + " finding" +
         (findings.size() == 1 ? "" : "s") + " (" + std::to_string(baselined.size()) +
         " baselined) over " + std::to_string(files) + " files\n";
  return out;
}

Report analyze(const Input& input) {
  ThreadPool pool{input.jobs};

  // Artifacts (.upnp/.upne/.upns/.upnf) get the artifact pass; every other
  // file is C++ and becomes a Unit.
  std::vector<const SourceFile*> sources;
  std::vector<const SourceFile*> artifacts;
  for (const SourceFile& file : input.files) {
    (is_artifact_path(file.path) ? artifacts : sources).push_back(&file);
  }

  // Per-file work fans out on the pool; results are collected BY INDEX so
  // the merge below is independent of scheduling (src/util/par contract).
  const std::vector<Unit> units = pool.parallel_map<Unit>(sources.size(), [&](std::size_t i) {
    return build_unit(sources[i]->path, sources[i]->content);
  });

  // The per-unit pass trio (single-file rules, concurrency safety,
  // determinism taint) shares one fan-out; each worker owns exactly one unit.
  const std::vector<std::vector<Finding>> per_unit =
      pool.parallel_map<std::vector<Finding>>(units.size(), [&](std::size_t i) {
        std::vector<Finding> findings = run_single_file_rules(units[i]);
        const std::vector<Finding> conc = run_concurrency_pass(units[i]);
        const std::vector<Finding> taint = run_determinism_taint_pass(units[i]);
        findings.insert(findings.end(), conc.begin(), conc.end());
        findings.insert(findings.end(), taint.begin(), taint.end());
        return findings;
      });

  const std::vector<std::vector<Finding>> per_artifact =
      pool.parallel_map<std::vector<Finding>>(
          artifacts.size(), [&](std::size_t i) { return run_artifact_pass(*artifacts[i]); });

  std::vector<Finding> all;
  for (const auto* fan_out : {&per_unit, &per_artifact}) {
    for (const std::vector<Finding>& findings : *fan_out) {
      all.insert(all.end(), findings.begin(), findings.end());
    }
  }

  LayerSpec spec;  // empty (no hotpath modules) when no layers file is given
  if (!input.layers_path.empty()) {
    spec = parse_layers(input.layers_path, input.layers_text);
    const std::vector<Finding> layering =
        run_layering_pass(units, spec, input.layers_path);
    const std::vector<Finding> hot = run_hotpath_pass(units, spec);
    all.insert(all.end(), layering.begin(), layering.end());
    all.insert(all.end(), hot.begin(), hot.end());
  }

  const std::vector<Finding> coverage = run_contract_coverage_pass(units);
  const std::vector<Finding> hygiene = run_include_hygiene_pass(units);
  all.insert(all.end(), coverage.begin(), coverage.end());
  all.insert(all.end(), hygiene.begin(), hygiene.end());

  // The whole-program half: extraction fans out per unit inside
  // build_callgraph, linking and the pass families 8-11 are single ordered
  // walks, so the findings are byte-identical at every --jobs value.
  const CallGraph graph = build_callgraph(units, pool);
  for (const std::vector<Finding>& findings :
       {run_lock_order_pass(graph, units), run_contract_propagation_pass(graph, units, spec),
        run_exception_safety_pass(graph, units), run_dead_function_pass(graph, units)}) {
    all.insert(all.end(), findings.begin(), findings.end());
  }

  // One shrink-only baseline for every ratcheted rule.  An entry matching no
  // current finding is debt already paid, so a stale entry is itself a
  // finding, reported at its line in the baseline file.
  const std::map<std::string, std::size_t> baseline = parse_baseline(input.baseline_text);
  std::set<std::string> matched;
  Report report;
  report.files = input.files.size();
  for (Finding& f : all) {
    if (is_baselineable(f.rule)) {
      std::string key = baseline_key(f);
      if (baseline.count(key) != 0) {
        matched.insert(std::move(key));
        report.baselined.push_back(std::move(f));
        continue;
      }
    }
    report.findings.push_back(std::move(f));
  }
  for (const auto& [entry, line] : baseline) {
    if (matched.count(entry) != 0) continue;
    report.findings.push_back(
        Finding{input.baseline_path, line, "baseline-stale-entry",
                "baseline entry '" + entry +
                    "' matches no current finding; delete it (the ratchet only shrinks)"});
  }
  std::sort(report.findings.begin(), report.findings.end(), finding_less);
  std::sort(report.baselined.begin(), report.baselined.end(), finding_less);

  if (input.want_callgraph) report.callgraph_dump = dump_callgraph(graph);

  UPN_OBS_COUNT("analyze.callgraph.nodes", graph.nodes.size());
  UPN_OBS_COUNT("analyze.callgraph.edges", graph.edges.size());
  UPN_OBS_COUNT("analyze.callgraph.open", graph.opens.size());
  UPN_OBS_COUNT("analyze.files", report.files);
  UPN_OBS_COUNT("analyze.findings", report.findings.size());
  UPN_OBS_COUNT("analyze.findings_baselined", report.baselined.size());
  UPN_OBS_COUNT("analyze.runs", 1);
  return report;
}

bool collect_tree(const TreeOptions& options, Input& input, std::string& error) {
  const fs::path root{options.root};
  input.jobs = options.jobs;

  auto excluded = [&](const std::string& rel) {
    for (const std::string& sub : options.excludes) {
      if (rel.find(sub) != std::string::npos) return true;
    }
    return false;
  };

  auto rel_of = [&](const fs::path& p) {
    std::error_code ec;
    const fs::path rel = fs::relative(p, root, ec);
    return (ec || rel.empty() ? p : rel).generic_string();
  };

  std::vector<fs::path> files;
  for (const std::string& given : options.paths) {
    const fs::path p = fs::path{given}.is_absolute() ? fs::path{given} : root / given;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it{p, ec}, end; it != end; it.increment(ec)) {
        if (ec) break;
        if (!it->is_regular_file()) continue;
        const std::string path = it->path().generic_string();
        if (is_source_path(path) || is_artifact_path(path)) files.push_back(it->path());
      }
      if (ec) {
        error = "cannot walk " + p.generic_string() + ": " + ec.message();
        return false;
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      error = "no such file or directory: " + p.generic_string();
      return false;
    }
  }

  std::vector<std::pair<std::string, fs::path>> keyed;
  keyed.reserve(files.size());
  for (const fs::path& p : files) {
    const std::string rel = rel_of(p);
    if (!excluded(rel)) keyed.emplace_back(rel, p);
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end(),
                          [](const auto& a, const auto& b) { return a.first == b.first; }),
              keyed.end());

  for (const auto& [rel, path] : keyed) {
    SourceFile file;
    file.path = rel;
    if (!read_file(path, file.content)) {
      error = "cannot read " + path.generic_string();
      return false;
    }
    input.files.push_back(std::move(file));
  }

  // The layers file and the baseline: an explicit path, or the conventional
  // location when present.
  auto load = [&](const std::string& given, const char* conventional, const char* what,
                  std::string& text, std::string& rel) {
    const fs::path path = given.empty() ? root / conventional : fs::path{given};
    if (given.empty() && !fs::exists(path)) return true;
    if (!read_file(path, text)) {
      error = std::string{"cannot read "} + what + " file " + path.generic_string();
      return false;
    }
    rel = rel_of(path);
    return true;
  };
  return load(options.layers_file, "docs/ARCHITECTURE.layers", "layers", input.layers_text,
              input.layers_path) &&
         load(options.baseline_file, kBaselinePath, "baseline", input.baseline_text,
              input.baseline_path);
}

}  // namespace upn::analyze
