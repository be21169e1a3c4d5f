// Determinism-taint pass: per-file flow analysis from nondeterminism
// sources to deterministic sinks.  This subsumes the retired token-level
// unordered-iteration and raw-timing rules: instead of banning the
// constructs outright, the pass tracks WHERE their values go and fires only
// when one reaches an output that must be byte-stable across runs and
// thread counts.
//
// Sources (each with its own rule id):
//   taint-unordered-order  loop variables of a range-for over a variable
//                          declared with an OUTERMOST unordered_{map,set}
//   taint-timing           std::chrono clocks, clock_gettime/gettimeofday,
//                          upn::obs::now_ns (exempt in src/obs/ and
//                          bench/harness.*, the sanctioned kTiming side)
//   taint-thread-id        std::this_thread::get_id(), std::thread::id
//   taint-address          reinterpret_cast to uintptr_t/intptr_t,
//                          std::hash over a pointer type
//
// Propagation: assignment, compound assignment, and container insertion of
// a tainted value taints the destination.  Sanitizers for the unordered
// kind: std::sort over the variable, and insertion into a variable declared
// std::set / std::map (re-ordering restores determinism).
//
// Sinks: the artifact writers (write_protocol/.upnp, write_fault_plan/.upnf),
// the obs snapshot exporters, and the UPN_OBS_* deterministic counter
// macros.  Sink calls may span lines; arguments are joined across the
// balanced parens.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/passes.hpp"

namespace upn::analyze {
namespace {

bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Variable names declared in this file with an OUTERMOST container from
/// `types` (nested uses like vector<unordered_map<...>> do not count:
/// iterating the vector is deterministic).
std::vector<std::string> outermost_decls(const std::vector<std::string>& code,
                                         const std::vector<const char*>& types) {
  std::vector<std::string> names;
  for (const std::string& line : code) {
    for (const char* type : types) {
      for (std::size_t pos = line.find(type); pos != std::string::npos;
           pos = line.find(type, pos + 1)) {
        if (!word_at(line, pos, type)) continue;
        std::size_t type_start = pos;
        if (type_start >= 5 && line.compare(type_start - 5, 5, "std::") == 0) {
          type_start -= 5;
        }
        std::size_t before = type_start;
        while (before > 0 && line[before - 1] == ' ') --before;
        if (before > 0 && (line[before - 1] == '<' || line[before - 1] == ',')) continue;
        std::size_t cursor = line.find('<', pos);
        if (cursor == std::string::npos) continue;
        int depth = 0;
        while (cursor < line.size()) {
          if (line[cursor] == '<') ++depth;
          if (line[cursor] == '>') {
            --depth;
            if (depth == 0) break;
          }
          ++cursor;
        }
        if (cursor >= line.size()) continue;  // multi-line declaration: give up
        std::size_t name_start = cursor + 1;
        while (name_start < line.size() &&
               (line[name_start] == ' ' || line[name_start] == '&' || line[name_start] == '*')) {
          ++name_start;
        }
        std::size_t name_end = name_start;
        while (name_end < line.size() && ident_char(line[name_end])) ++name_end;
        if (name_end > name_start) {
          names.push_back(line.substr(name_start, name_end - name_start));
        }
      }
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// The identifier a range-for iterates, or "" if the line has none.
std::string range_for_target(const std::string& code) {
  for (std::size_t pos = code.find("for"); pos != std::string::npos;
       pos = code.find("for", pos + 1)) {
    if (!word_at(code, pos, "for")) continue;
    const std::size_t open = code.find('(', pos);
    if (open == std::string::npos) return "";
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t i = open; i < code.size(); ++i) {
      if (code[i] == '(') ++depth;
      if (code[i] == ')') {
        --depth;
        if (depth == 0) {
          close = i;
          break;
        }
      }
      if (code[i] == ':' && depth == 1 && colon == std::string::npos) {
        if ((i + 1 < code.size() && code[i + 1] == ':') || (i > 0 && code[i - 1] == ':')) {
          continue;  // '::' scope operator
        }
        colon = i;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    std::string expr = code.substr(colon + 1, close - colon - 1);
    std::size_t start = 0;
    while (start < expr.size() && expr[start] == ' ') ++start;
    std::size_t end = start;
    while (end < expr.size() && ident_char(expr[end])) ++end;
    std::string rest = expr.substr(end);
    rest.erase(std::remove(rest.begin(), rest.end(), ' '), rest.end());
    if (!rest.empty()) continue;
    return expr.substr(start, end - start);
  }
  return "";
}

/// The loop variables of a range-for line: the idents of a structured
/// binding `[k, v]`, else the last identifier before the ':'.
std::vector<std::string> range_for_vars(const std::string& code) {
  std::vector<std::string> vars;
  const std::size_t open = code.find('(');
  if (open == std::string::npos) return vars;
  std::size_t colon = std::string::npos;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == ':' &&
        !((i + 1 < code.size() && code[i + 1] == ':') || (i > 0 && code[i - 1] == ':'))) {
      colon = i;
      break;
    }
  }
  if (colon == std::string::npos) return vars;
  const std::string decl = code.substr(open + 1, colon - open - 1);
  const std::size_t bracket = decl.find('[');
  if (bracket != std::string::npos) {
    const std::size_t close = decl.find(']', bracket);
    std::string name;
    for (std::size_t i = bracket + 1; i < std::min(close, decl.size()); ++i) {
      if (ident_char(decl[i])) {
        name += decl[i];
      } else if (!name.empty()) {
        vars.push_back(name);
        name.clear();
      }
    }
    if (!name.empty()) vars.push_back(name);
    return vars;
  }
  std::string last;
  std::string cur;
  for (const char c : decl) {
    if (ident_char(c)) {
      cur += c;
    } else {
      if (!cur.empty()) last = cur;
      cur.clear();
    }
  }
  if (!cur.empty()) last = cur;
  if (!last.empty()) vars.push_back(last);
  return vars;
}

/// The identifier ending just before `pos` (skipping spaces), or "".
std::string ident_before(const std::string& code, std::size_t pos) {
  std::size_t end = pos;
  while (end > 0 && code[end - 1] == ' ') --end;
  std::size_t start = end;
  while (start > 0 && ident_char(code[start - 1])) --start;
  return code.substr(start, end - start);
}

/// The assignment target of the line: the identifier before the first
/// depth-0 plain or compound `=` (never `==`, `<=`, `>=`, `!=`), or "".
std::string assign_target(const std::string& code) {
  int depth = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') --depth;
    if (c != '=' || depth != 0) continue;
    if (i + 1 < code.size() && code[i + 1] == '=') {
      ++i;
      continue;
    }
    if (i > 0) {
      const char p = code[i - 1];
      if (p == '=' || p == '<' || p == '>' || p == '!') continue;
      if (p == '+' || p == '-' || p == '*' || p == '/' || p == '%' || p == '&' ||
          p == '|' || p == '^') {
        return ident_before(code, i - 1);  // compound assignment
      }
    }
    return ident_before(code, i);
  }
  return "";
}

struct Taint {
  std::string rule;    ///< the rule id this taint reports under
  std::size_t origin;  ///< 1-based line of the source
  std::string what;    ///< human description of the source
};

struct Sink {
  const char* name;
  const char* description;
};

const Sink kSinks[] = {
    {"write_protocol", "the .upnp protocol writer"},
    {"write_fault_plan", "the .upnf fault-plan writer"},
    {"write_snapshot_text", "the obs snapshot exporter"},
    {"write_snapshot_json", "the obs snapshot exporter"},
    {"snapshot_text", "the obs snapshot exporter"},
    {"snapshot_json", "the obs snapshot exporter"},
    {"UPN_OBS_COUNT", "a deterministic obs counter"},
    {"UPN_OBS_GAUGE_MAX", "a deterministic obs gauge"},
    {"UPN_OBS_HIST", "a deterministic obs histogram"},
};

bool is_timing_source(const std::string& line) {
  return line.find("std::chrono") != std::string::npos ||
         contains_word(line, "steady_clock") || contains_word(line, "system_clock") ||
         contains_word(line, "high_resolution_clock") ||
         contains_word(line, "clock_gettime") || contains_word(line, "gettimeofday") ||
         contains_word(line, "now_ns");
}

bool is_thread_id_source(const std::string& line) {
  return contains_word(line, "get_id") || line.find("thread::id") != std::string::npos;
}

bool is_address_source(const std::string& line) {
  if (contains_word(line, "reinterpret_cast") &&
      (contains_word(line, "uintptr_t") || contains_word(line, "intptr_t"))) {
    return true;
  }
  const std::size_t hash = line.find("std::hash<");
  if (hash != std::string::npos) {
    const std::size_t close = line.find('>', hash);
    if (close != std::string::npos &&
        line.find('*', hash) != std::string::npos && line.find('*', hash) < close) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Finding> run_determinism_taint_pass(const Unit& unit) {
  const std::vector<std::string>& code = unit.code;
  std::vector<Finding> out;

  const bool timing_exempt = unit.path.find("src/obs/") != std::string::npos ||
                             unit.path.find("bench/harness.") != std::string::npos;

  const std::vector<std::string> unordered =
      outermost_decls(code, {"unordered_map", "unordered_set"});
  const std::vector<std::string> ordered = outermost_decls(code, {"set", "map"});

  std::map<std::string, Taint> tainted;
  auto taint = [&](const std::string& name, const char* rule, std::size_t origin,
                   const std::string& what) {
    if (name.empty()) return;
    tainted.emplace(name, Taint{rule, origin, what});  // first source wins
  };

  // ---- seed the taint set from the source patterns ------------------------
  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    const std::size_t line_no = i + 1;

    if (!unordered.empty()) {
      const std::string target = range_for_target(line);
      if (!target.empty() &&
          std::binary_search(unordered.begin(), unordered.end(), target)) {
        for (const std::string& var : range_for_vars(line)) {
          taint(var, "taint-unordered-order", line_no,
                "iteration over std::unordered container '" + target + "'");
        }
      }
    }
    if (!timing_exempt && is_timing_source(line)) {
      taint(assign_target(line), "taint-timing", line_no, "a raw clock read");
      // clock_gettime / gettimeofday fill an out-parameter passed as `&ts`.
      if (contains_word(line, "clock_gettime") || contains_word(line, "gettimeofday")) {
        const std::size_t amp = line.find('&');
        if (amp != std::string::npos) {
          std::size_t s = amp + 1;
          std::size_t e = s;
          while (e < line.size() && ident_char(line[e])) ++e;
          taint(line.substr(s, e - s), "taint-timing", line_no, "a raw clock read");
        }
      }
    }
    if (is_thread_id_source(line)) {
      taint(assign_target(line), "taint-thread-id", line_no,
            "std::thread identity");
      // `std::thread::id name;` declarations.
      const std::size_t at = line.find("thread::id");
      if (at != std::string::npos) {
        std::size_t s = at + 10;
        while (s < line.size() && line[s] == ' ') ++s;
        std::size_t e = s;
        while (e < line.size() && ident_char(line[e])) ++e;
        if (e > s) taint(line.substr(s, e - s), "taint-thread-id", line_no,
                         "std::thread identity");
      }
    }
    if (is_address_source(line)) {
      taint(assign_target(line), "taint-address", line_no, "pointer identity");
    }
  }

  // ---- propagate to a fixpoint --------------------------------------------
  auto mentions_tainted = [&](const std::string& text) -> const Taint* {
    for (const auto& [name, t] : tainted) {
      if (contains_word(text, name)) return &t;
    }
    return nullptr;
  };
  auto is_ordered_decl = [&](const std::string& name) {
    return std::binary_search(ordered.begin(), ordered.end(), name);
  };

  for (int round = 0; round < 8; ++round) {
    bool changed = false;
    for (std::size_t i = 0; i < code.size(); ++i) {
      const std::string& line = code[i];

      // std::sort over a variable sanitizes the unordered-order taint.
      if (line.find("sort") != std::string::npos && contains_word(line, "sort")) {
        for (auto it = tainted.begin(); it != tainted.end();) {
          if (it->second.rule == std::string{"taint-unordered-order"} &&
              contains_word(line, it->first) && line.find("sort") < line.find(it->first)) {
            it = tainted.erase(it);
            changed = true;
          } else {
            ++it;
          }
        }
        continue;
      }

      const std::string lhs = assign_target(line);
      if (!lhs.empty() && tainted.count(lhs) == 0) {
        const std::size_t eq = line.find('=');
        const Taint* t = eq == std::string::npos
                             ? nullptr
                             : mentions_tainted(line.substr(eq + 1));
        if (t != nullptr &&
            !(t->rule == std::string{"taint-unordered-order"} && is_ordered_decl(lhs))) {
          tainted.emplace(lhs, *t);
          changed = true;
        }
      }
      // Container fills: `dest.push_back(tainted)` and friends.
      for (const char* method : {".push_back(", ".insert(", ".emplace_back(",
                                 ".emplace(", ".append(", ".push_front("}) {
        const std::size_t at = line.find(method);
        if (at == std::string::npos) continue;
        const std::string dest = ident_before(line, at);
        if (dest.empty() || tainted.count(dest) != 0) continue;
        const Taint* t = mentions_tainted(line.substr(at));
        if (t == nullptr) continue;
        if (t->rule == std::string{"taint-unordered-order"} && is_ordered_decl(dest)) {
          continue;  // re-ordered on insertion: sanitized
        }
        tainted.emplace(dest, *t);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // ---- check the sinks ----------------------------------------------------
  std::set<std::string> reported;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    for (const Sink& sink : kSinks) {
      const std::size_t at = line.find(sink.name);
      if (at == std::string::npos || !word_at(line, at, sink.name)) continue;
      std::size_t open = at + std::string{sink.name}.size();
      while (open < line.size() && line[open] == ' ') ++open;
      if (open >= line.size() || line[open] != '(') continue;

      // Join the argument text across lines until the parens balance.
      std::string args;
      int depth = 0;
      std::size_t l = i;
      std::size_t c = open;
      while (l < code.size()) {
        for (; c < code[l].size(); ++c) {
          if (code[l][c] == '(') ++depth;
          if (code[l][c] == ')') {
            --depth;
            if (depth == 0) break;
          }
          args += code[l][c];
        }
        if (depth == 0) break;
        args += ' ';
        ++l;
        c = 0;
      }

      const std::size_t line_no = i + 1;
      auto emit = [&](const std::string& rule, const std::string& message) {
        if (suppressed(unit, line_no, rule)) return;
        if (!reported.insert(std::to_string(line_no) + ":" + rule + ":" + message).second) {
          return;
        }
        out.push_back(Finding{unit.path, line_no, rule, message});
      };

      for (const auto& [name, t] : tainted) {
        if (!contains_word(args, name)) continue;
        emit(t.rule, "'" + name + "' carries " + t.what + " (tainted at line " +
                         std::to_string(t.origin) + ") and flows into " +
                         sink.description + " '" + std::string{sink.name} +
                         "'; deterministic outputs must not depend on it");
      }
      // Direct source expressions inside the sink arguments.
      if (!timing_exempt && is_timing_source(args)) {
        emit("taint-timing", std::string{"a raw clock read feeds "} + sink.description +
                                 " '" + sink.name +
                                 "' directly; timing belongs on the kTiming side of "
                                 "the obs split");
      }
      if (is_thread_id_source(args)) {
        emit("taint-thread-id", std::string{"std::thread identity feeds "} +
                                    sink.description + " '" + sink.name +
                                    "' directly; thread ids depend on scheduling");
      }
      if (is_address_source(args)) {
        emit("taint-address", std::string{"pointer identity feeds "} + sink.description +
                                  " '" + sink.name +
                                  "' directly; addresses vary run to run");
      }
    }
  }

  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

}  // namespace upn::analyze
