// Contract-coverage audit: every public function declared in src/**/*.hpp
// should carry a UPN_REQUIRE/UPN_ENSURE (or UPN_INVARIANT) in its
// definition, or an explicit `upn-contract-waive(reason)` comment inside the
// body -- the proofs-as-code discipline of docs/STATIC_ANALYSIS.md made
// mechanical.  Exemptions, by construction of the IR:
//
//   * trivial bodies (<= 1 statement: accessors, forwarding shims);
//   * constructors/destructors/operators (never indexed as functions);
//   * functions whose definition is not in the analyzed set (nothing to
//     inspect);
//   * private members (not API surface).
//
// Findings are reported at the header declaration line and keyed as
// "<header>:contract-coverage:<function>" in the committed baseline
// (tools/analyze/analyze.baseline), so existing debt is frozen and coverage
// can only ratchet up: new uncontracted functions fail CI, removing
// contracts fails CI, and paying debt down means deleting baseline lines.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "tools/analyze/passes.hpp"

namespace upn::analyze {

namespace {

/// Definition facts for one function name, merged across every unit that
/// defines it (overloads share coverage: one contracted overload counts).
struct DefinitionFacts {
  bool defined = false;
  bool contracted = false;
  bool waived = false;
  std::size_t max_statements = 0;
};

}  // namespace

std::vector<Finding> run_contract_coverage_pass(const std::vector<Unit>& units) {
  // Definitions anywhere in the analyzed set, by name.  Name collisions
  // across modules are tolerated: the audit then errs toward counting a
  // function as covered, never toward a false finding.
  std::map<std::string, DefinitionFacts> defs;
  for (const Unit& unit : units) {
    for (const Declaration& d : unit.decls) {
      if (d.kind != DeclKind::kFunction || !d.has_body) continue;
      DefinitionFacts& f = defs[d.name];
      f.defined = true;
      f.contracted = f.contracted || d.has_contract;
      f.waived = f.waived || d.has_waiver;
      f.max_statements = std::max(f.max_statements, d.body_statements);
    }
  }

  std::vector<Finding> out;
  for (const Unit& unit : units) {
    if (!unit.is_header || unit.module.empty()) continue;
    // Dedupe per header: one finding per function name even if the header
    // declares several overloads.
    std::vector<std::string> flagged;
    for (const Declaration& d : unit.decls) {
      if (d.kind != DeclKind::kFunction || !d.is_public) continue;
      const auto it = defs.find(d.name);
      if (it == defs.end() || !it->second.defined) continue;
      const DefinitionFacts& f = it->second;
      if (f.contracted || f.waived) continue;
      if (f.max_statements <= 1) continue;  // trivial accessor / shim
      if (std::find(flagged.begin(), flagged.end(), d.name) != flagged.end()) continue;
      if (suppressed(unit.raw[d.line - 1], "contract-coverage")) continue;
      flagged.push_back(d.name);
      out.push_back(Finding{
          unit.path, d.line, "contract-coverage",
          "public function '" + d.name +
              "' has no UPN_REQUIRE/UPN_ENSURE in its definition and no "
              "upn-contract-waive(reason) marker"});
    }
  }
  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

}  // namespace upn::analyze
