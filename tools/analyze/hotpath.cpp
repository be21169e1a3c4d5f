// Hot-path performance pass: modules declared `hotpath <module>` in
// docs/ARCHITECTURE.layers are audited for the constructs the ROADMAP-1
// data-oriented rewrite is trying to eliminate:
//
//   hotpath-container       std::deque / std::map / std::list -- per-node
//                           allocation and pointer chasing
//   hotpath-alloc           heap allocation (new, make_unique/make_shared,
//                           malloc/calloc/realloc) inside a loop
//   hotpath-virtual         virtual member functions -- dispatch an inner
//                           loop cannot inline
//   hotpath-by-value-param  container/string parameters taken by value
//                           (the sink idiom -- by value then std::move'd in
//                           the same unit -- is exempt)
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/passes.hpp"

namespace upn::analyze {
namespace {

bool banned_container(const std::string& t) {
  return t == "deque" || t == "map" || t == "list";
}

bool copy_heavy_param_type(const std::string& t) {
  return t == "vector" || t == "string" || t == "deque" || t == "map" || t == "list" ||
         t == "set" || t == "unordered_map" || t == "unordered_set" || t == "array";
}

bool allocator_name(const std::string& t) {
  return t == "make_unique" || t == "make_shared" || t == "malloc" || t == "calloc" ||
         t == "realloc";
}

/// loop_depth[k] = number of for/while/do bodies enclosing token k.
std::vector<int> compute_loop_depth(const std::vector<Token>& toks) {
  std::vector<int> delta(toks.size() + 1, 0);
  for (std::size_t k = 0; k < toks.size(); ++k) {
    if (toks[k].kind != TokenKind::kIdent) continue;
    const std::string& t = toks[k].text;
    std::size_t body = toks.size();
    if (t == "for" || t == "while") {
      if (k > 0 && toks[k - 1].text == ".") continue;  // .for_each-ish member
      std::size_t open = k + 1;
      if (open >= toks.size() || toks[open].text != "(") continue;
      body = skip_group(toks, open);
    } else if (t == "do") {
      body = k + 1;
    } else {
      continue;
    }
    if (body >= toks.size()) continue;
    std::size_t end;
    if (toks[body].text == "{") {
      end = skip_group(toks, body);
    } else {
      end = body;  // braceless body: to the next ';' at depth 0
      int d = 0;
      while (end < toks.size()) {
        const std::string& x = toks[end].text;
        if (x == "(" || x == "{" || x == "[") ++d;
        if (x == ")" || x == "}" || x == "]") --d;
        if (x == ";" && d == 0) break;
        ++end;
      }
    }
    ++delta[body];
    if (end <= toks.size()) --delta[std::min(end, toks.size())];
  }
  std::vector<int> depth(toks.size(), 0);
  int acc = 0;
  for (std::size_t k = 0; k < toks.size(); ++k) {
    acc += delta[k];
    depth[k] = acc;
  }
  return depth;
}

void audit_unit(const Unit& unit, const std::string& module, std::vector<Finding>& out) {
  const std::vector<Token>& toks = unit.tokens;
  const std::vector<int> loop_depth = compute_loop_depth(toks);
  std::set<std::pair<std::size_t, std::string>> reported;

  // Names the unit moves FROM somewhere: `std::move(name)`.  A by-value
  // container parameter that is moved is the sink idiom, not a copy --
  // skip it.  (Header-only declarations have no body to move in; sanctioned
  // sink signatures there carry an explicit upn-analyze-waive.)
  std::set<std::string> moved_from;
  for (std::size_t k = 0; k + 4 < toks.size(); ++k) {
    if (toks[k].text == "std" && toks[k + 1].text == "::" && toks[k + 2].text == "move" &&
        toks[k + 3].text == "(" && toks[k + 4].kind == TokenKind::kIdent) {
      moved_from.insert(toks[k + 4].text);
    }
  }

  auto emit = [&](std::size_t line_no, const char* rule, const std::string& detail,
                  std::string message) {
    if (suppressed(unit, line_no, rule)) return;
    if (!reported.insert({line_no, std::string{rule} + ":" + detail}).second) return;
    out.push_back(Finding{unit.path, line_no, rule, std::move(message)});
  };

  for (std::size_t k = 0; k < toks.size(); ++k) {
    const Token& tok = toks[k];
    if (tok.kind != TokenKind::kIdent) {
      // Parameter lists: a '(' not following a control keyword; inspect
      // depth-1 declarations of the form `std::container<...> name`.
      if (tok.text == "(" &&
          !(k > 0 && toks[k - 1].kind == TokenKind::kIdent &&
            control_keyword(toks[k - 1].text))) {
        const std::size_t close = skip_group(toks, k) - 1;
        int depth = 0;
        for (std::size_t p = k; p < close && p < toks.size(); ++p) {
          if (toks[p].text == "(") ++depth;
          if (toks[p].text == ")") --depth;
          if (depth != 1) continue;
          if (toks[p].text != "std" || p + 2 >= close) continue;
          if (toks[p + 1].text != "::") continue;
          if (!copy_heavy_param_type(toks[p + 2].text)) continue;
          std::size_t after = p + 3;
          if (after < close && toks[after].text == "<") {
            after = skip_angles(toks, after);
          }
          if (after >= close || toks[after].kind != TokenKind::kIdent) continue;
          const std::string& name = toks[after].text;
          const std::string next = after + 1 <= close ? toks[after + 1].text : "";
          if (next != "," && next != ")" && next != "=") continue;
          if (moved_from.count(name) != 0) continue;  // sink parameter
          emit(toks[after].line, "hotpath-by-value-param", name,
               "'" + name + "' takes std::" + toks[p + 2].text +
                   " by value in hot-path module '" + module +
                   "'; the deep copy defeats the inner loops -- take const&");
          p = after;
        }
      }
      continue;
    }

    const std::string& t = tok.text;

    if (banned_container(t) && k >= 2 && toks[k - 1].text == "::" &&
        toks[k - 2].text == "std" && k + 1 < toks.size() && toks[k + 1].text == "<") {
      emit(tok.line, "hotpath-container", t,
           "'" + t + "' (std::" + t + ") used in hot-path module '" + module +
               "'; per-node allocation and pointer chasing defeat the packet "
               "engine's inner loops -- prefer node-indexed vectors or flat arrays");
    }

    if (loop_depth[k] > 0) {
      const bool is_new =
          t == "new" && !(k > 0 && toks[k - 1].text == "operator");
      const bool is_alloc_call =
          allocator_name(t) && k + 1 < toks.size() &&
          (toks[k + 1].text == "(" || toks[k + 1].text == "<");
      if (is_new || is_alloc_call) {
        emit(tok.line, "hotpath-alloc", t,
             "'" + t + "' allocates inside a loop in hot-path module '" + module +
                 "'; hoist the allocation out of the loop or reuse a "
                 "preallocated buffer");
      }
    }

    if (t == "virtual") {
      std::string detail = "function";
      for (std::size_t j = k + 1; j < std::min(toks.size(), k + 12); ++j) {
        if (toks[j].kind == TokenKind::kIdent && j + 1 < toks.size() &&
            toks[j + 1].text == "(") {
          detail = toks[j].text;
          break;
        }
      }
      emit(tok.line, "hotpath-virtual", detail,
           "'" + detail + "' is virtual in hot-path module '" + module +
               "'; virtual dispatch in inner loops defeats inlining -- prefer "
               "static polymorphism or an enum switch");
    }
  }
}

}  // namespace

std::vector<Finding> run_hotpath_pass(const std::vector<Unit>& units,
                                      const LayerSpec& spec) {
  std::vector<Finding> out;
  if (spec.hotpaths.empty()) return out;
  for (const Unit& unit : units) {
    const auto it = spec.hotpaths.find(unit.module);
    if (it == spec.hotpaths.end()) continue;
    audit_unit(unit, unit.module, out);
  }
  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

}  // namespace upn::analyze
