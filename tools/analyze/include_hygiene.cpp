// Include hygiene (IWYU-lite): a quoted include is flagged when the
// including file uses NO name from the included header's transitive
// declaration closure.  This is deliberately the sound direction: deleting
// such an include cannot remove any name the file refers to, so every
// finding is actionable.  The converse analysis ("this name should come from
// a more direct header") needs real name lookup and is out of scope.
//
// Exemptions:
//   * system includes (<...>);
//   * includes that do not resolve inside the analyzed set (we cannot see
//     their declarations);
//   * a .cpp including its own header (the API anchor, always intentional);
//   * headers whose closure exports nothing we can index (nothing to judge);
//   * `upn-analyze-waive(unused-include: <reason>)` on the include line.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/passes.hpp"

namespace upn::analyze {
namespace {

/// "src/topology/graph.hpp" -> "src/topology/graph".
std::string stem_of(const std::string& path) {
  const auto dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(0, dot);
}

}  // namespace

std::vector<Finding> run_include_hygiene_pass(const std::vector<Unit>& units) {
  std::map<std::string, const Unit*> by_path;
  for (const Unit& unit : units) by_path.emplace(unit.path, &unit);

  // Transitive declaration closure per header, memoized.  The include graph
  // is acyclic in a healthy tree; a cycle (reported separately by the
  // layering pass) is broken here by the in-progress marker.
  std::map<std::string, std::set<std::string>> closure;
  std::set<std::string> in_progress;

  auto names_of = [&](auto&& self, const std::string& path) -> const std::set<std::string>& {
    const auto memo = closure.find(path);
    if (memo != closure.end()) return memo->second;
    static const std::set<std::string> empty;
    if (in_progress.count(path) != 0) return empty;
    in_progress.insert(path);
    std::set<std::string> names;
    const auto it = by_path.find(path);
    if (it != by_path.end()) {
      for (const Declaration& d : it->second->decls) names.insert(d.name);
      for (const IncludeEdge& inc : it->second->includes) {
        if (!inc.quoted || by_path.count(inc.target) == 0) continue;
        const std::set<std::string>& sub = self(self, inc.target);
        names.insert(sub.begin(), sub.end());
      }
    }
    in_progress.erase(path);
    return closure.emplace(path, std::move(names)).first->second;
  };

  std::vector<Finding> out;
  for (const Unit& unit : units) {
    // The unit's identifier usage set, minus the identifiers on include
    // lines themselves.
    std::set<std::string> used;
    for (const Token& t : unit.tokens) {
      if (t.kind == TokenKind::kIdent) used.insert(t.text);
    }
    const std::string own_stem = stem_of(unit.path);
    for (const IncludeEdge& inc : unit.includes) {
      if (!inc.quoted || by_path.count(inc.target) == 0) continue;
      if (stem_of(inc.target) == own_stem) continue;  // own header
      if (suppressed(unit, inc.line, "unused-include")) continue;
      const std::set<std::string>& exported = names_of(names_of, inc.target);
      if (exported.empty()) continue;
      bool any_used = false;
      for (const std::string& name : exported) {
        if (used.count(name) != 0) {
          any_used = true;
          break;
        }
      }
      if (!any_used) {
        out.push_back(Finding{unit.path, inc.line, "unused-include",
                              "nothing from '" + inc.target +
                                  "' (or anything it includes) is used here; drop the "
                                  "include"});
      }
    }
  }
  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

}  // namespace upn::analyze
