#include "tools/analyze/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
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

/// True iff a directory on the way to `rel` is named by one of `excludes`:
/// exactly, or by prefix when the entry ends in '*'.  File names never match,
/// so "build" skips build/ but not src/topology/builders.cpp.
bool excluded(const std::string& rel, const std::vector<std::string>& excludes) {
  for (const fs::path& dir : fs::path{rel}.parent_path()) {
    const std::string name = dir.string();
    for (const std::string& pattern : excludes) {
      const bool prefix = pattern.ends_with('*');
      if (prefix ? name.starts_with(pattern.substr(0, pattern.size() - 1)) : name == pattern) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::string Report::render_text() const {
  std::string out;
  for (const Finding& f : findings) out += f.format() + "\n";
  out += "upn_analyze: " + std::to_string(findings.size()) + " finding" +
         (findings.size() == 1 ? "" : "s") + " over " + std::to_string(files) + " files\n";
  return out;
}

Report analyze(const Input& input) {
  ThreadPool pool{input.jobs};

  // Per-file work fans out on the pool; results are collected BY INDEX so
  // the merge below is independent of scheduling (src/util/par contract).
  const std::vector<SourceFile>& files = input.files;
  const std::vector<Unit> units = pool.parallel_map<Unit>(
      files.size(), [&](std::size_t i) { return build_unit(files[i].path, files[i].content); });

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

  std::vector<Finding> all;
  for (const std::vector<Finding>& findings : per_unit) {
    all.insert(all.end(), findings.begin(), findings.end());
  }

  if (!input.layers_path.empty()) {
    const LayerSpec spec = parse_layers(input.layers_path, input.layers_text);
    const std::vector<Finding> layering =
        run_layering_pass(units, spec, input.layers_path);
    const std::vector<Finding> hot = run_hotpath_pass(units, spec);
    all.insert(all.end(), layering.begin(), layering.end());
    all.insert(all.end(), hot.begin(), hot.end());
  }

  const std::vector<Finding> hygiene = run_include_hygiene_pass(units);
  all.insert(all.end(), hygiene.begin(), hygiene.end());

  // The whole-program half: extraction fans out per unit inside
  // build_callgraph, linking and the interprocedural passes are single
  // ordered walks, so the findings are byte-identical at every --jobs value.
  const CallGraph graph = build_callgraph(units, pool);
  for (const std::vector<Finding>& findings :
       {run_lock_order_pass(graph, units), run_dead_function_pass(graph, units)}) {
    all.insert(all.end(), findings.begin(), findings.end());
  }

  Report report;
  report.files = input.files.size();
  report.findings = std::move(all);
  std::sort(report.findings.begin(), report.findings.end(), finding_less);

  UPN_OBS_COUNT("analyze.callgraph.nodes", graph.nodes.size());
  UPN_OBS_COUNT("analyze.callgraph.edges", graph.edges.size());
  UPN_OBS_COUNT("analyze.callgraph.open", graph.opens.size());
  UPN_OBS_COUNT("analyze.files", report.files);
  UPN_OBS_COUNT("analyze.findings", report.findings.size());
  UPN_OBS_COUNT("analyze.runs", 1);
  return report;
}

bool collect_tree(const TreeOptions& options, Input& input, std::string& error) {
  const fs::path root{options.root};
  input.jobs = options.jobs;

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
        if (is_source_path(path)) files.push_back(it->path());
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
    if (!excluded(rel, options.excludes)) keyed.emplace_back(rel, p);
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end(),
                          [](const auto& a, const auto& b) { return a.first == b.first; }),
              keyed.end());
  if (keyed.empty()) {
    error = "no C++ source to analyze under";
    for (const std::string& given : options.paths) error += " " + given;
    return false;
  }

  for (const auto& [rel, path] : keyed) {
    SourceFile file;
    file.path = rel;
    if (!read_file(path, file.content)) {
      error = "cannot read " + path.generic_string();
      return false;
    }
    input.files.push_back(std::move(file));
  }

  // The layers file, when the tree has one.
  const fs::path layers = root / "docs/ARCHITECTURE.layers";
  if (!fs::exists(layers)) return true;
  if (!read_file(layers, input.layers_text)) {
    error = "cannot read layers file " + layers.generic_string();
    return false;
  }
  input.layers_path = rel_of(layers);
  return true;
}

}  // namespace upn::analyze
