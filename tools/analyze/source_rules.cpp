// Single-file rules over the shared IR: the banned-pattern rules (no-std-rand,
// no-unseeded-rng, no-endl, pragma-once) plus the flow-sensitive token rules.
// Exact floating-point ==/!= is the compiler's job (-Werror=float-equal).
#include <algorithm>
#include <string>
#include <vector>

#include "tools/analyze/passes.hpp"

namespace upn::analyze {
namespace {

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---- flow-sensitive token rules -------------------------------------------

/// Narrow integer destination types for `narrowing-cast`.  Casts to 32-bit
/// types are idiomatic here (node counts fit easily); casts to 8/16-bit
/// types silently truncate real quantities and need a nearby contract (or a
/// suppression) establishing the range.
bool is_narrow_int_type(const std::string& joined) {
  return joined == "int8_t" || joined == "uint8_t" || joined == "int16_t" ||
         joined == "uint16_t" || joined == "short" || joined == "unsignedshort" ||
         joined == "shortint" || joined == "signedchar";
}

bool contract_adjacent(const std::vector<std::string>& code, std::size_t line_no) {
  const std::size_t lo = line_no > 3 ? line_no - 3 : 1;
  const std::size_t hi = std::min(code.size(), line_no + 1);
  for (std::size_t l = lo; l <= hi; ++l) {
    const std::string& c = code[l - 1];
    if (c.find("UPN_REQUIRE") != std::string::npos ||
        c.find("UPN_ENSURE") != std::string::npos ||
        c.find("UPN_INVARIANT") != std::string::npos) {
      return true;
    }
  }
  return false;
}

template <typename Emit>
void run_flow_rules(const Unit& unit, const Emit& emit) {
  const std::vector<Token>& toks = unit.tokens;
  const bool par_exempt = unit.path.find("src/util/par.") != std::string::npos;

  auto text = [&](std::size_t k) -> const std::string& { return toks[k].text; };

  for (std::size_t k = 0; k < toks.size(); ++k) {
    if (toks[k].kind != TokenKind::kIdent) continue;
    const std::string& t = text(k);

    // rng-by-value: `(Rng name` / `, Rng name` / `(const Rng name`.
    if (t == "Rng" && k + 1 < toks.size() && toks[k + 1].kind == TokenKind::kIdent) {
      std::size_t p = k;
      if (p >= 2 && text(p - 1) == "::" && text(p - 2) == "upn") p -= 2;
      if (p >= 1 && text(p - 1) == "const") p -= 1;
      if (p >= 1 && (text(p - 1) == "(" || text(p - 1) == ",")) {
        emit(toks[k].line, "rng-by-value",
             "parameter '" + text(k + 1) +
                 "' takes upn::Rng by value, forking the stream state; pass Rng& or "
                 "derive a per-task sub-stream with Rng::stream(seed, index)");
      }
    }

    // narrowing-cast: static_cast< narrow-int > with no adjacent contract.
    if (t == "static_cast" && k + 1 < toks.size() && text(k + 1) == "<") {
      std::string joined;
      std::size_t j = k + 2;
      int depth = 1;
      while (j < toks.size() && depth > 0) {
        if (text(j) == "<") ++depth;
        if (text(j) == ">") {
          if (--depth == 0) break;
        }
        if (toks[j].kind == TokenKind::kIdent && text(j) != "std") joined += text(j);
        ++j;
      }
      if (is_narrow_int_type(joined) && !contract_adjacent(unit.code, toks[k].line)) {
        emit(toks[k].line, "narrowing-cast",
             "static_cast to " + joined +
                 " truncates silently; add a UPN_REQUIRE/UPN_ENSURE within 3 lines "
                 "establishing the range, or suppress with a reason");
      }
    }

    // no-raw-thread: std::thread / std::jthread construction or type use
    // outside src/util/par (std::thread::id and std::this_thread are fine).
    if ((t == "thread" || t == "jthread") && k >= 2 && text(k - 1) == "::" &&
        text(k - 2) == "std" && !(k + 1 < toks.size() && text(k + 1) == "::")) {
      if (!par_exempt) {
        emit(toks[k].line, "no-raw-thread",
             "std::" + t +
                 " outside src/util/par; route parallelism through upn::ThreadPool so "
                 "width, determinism, and obs stats stay centralized");
      }
    }

    // thread-detach: `.detach()` / `->detach()` anywhere.
    if (t == "detach" && k >= 1 && k + 1 < toks.size() && text(k + 1) == "(" &&
        (text(k - 1) == "." ||
         (text(k - 1) == ">" && k >= 2 && text(k - 2) == "-"))) {
      emit(toks[k].line, "thread-detach",
           "detached threads outlive their resources and can never be joined "
           "deterministically; keep the handle and join it");
    }
  }
}

}  // namespace

std::vector<Finding> run_single_file_rules(const Unit& unit) {
  const std::string& path = unit.path;
  const std::vector<std::string>& raw = unit.raw;
  const std::vector<std::string>& code = unit.code;

  std::vector<Finding> out;
  auto emit = [&](std::size_t line_no, const char* rule, std::string message) {
    if (suppressed(unit, line_no, rule)) return;
    out.push_back(Finding{path, line_no, rule, std::move(message)});
  };

  if (has_suffix(path, ".hpp")) {
    bool found = false;
    for (const std::string& line : raw) {
      if (line.find("#pragma once") != std::string::npos) {
        found = true;
        break;
      }
    }
    if (!found) {
      emit(1, "pragma-once", "header is missing '#pragma once' (multiple inclusion hazard)");
    }
  }

  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    const std::size_t line_no = i + 1;

    if (contains_word(line, "rand") || contains_word(line, "srand")) {
      emit(line_no, "no-std-rand",
           "rand()/srand() are not reproducible across platforms; use upn::Rng");
    }
    for (const char* bad : {"std::random_device", "std::mt19937",
                            "std::default_random_engine", "std::minstd_rand"}) {
      if (line.find(bad) != std::string::npos) {
        emit(line_no, "no-unseeded-rng",
             std::string{bad} +
                 " breaks seed-reproducibility; thread an explicit upn::Rng instead");
        break;
      }
    }
    if (line.find("std::endl") != std::string::npos) {
      emit(line_no, "no-endl",
           "std::endl flushes on every call (quadratic in emission loops); use '\\n'");
    }
  }

  run_flow_rules(unit, emit);

  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

}  // namespace upn::analyze
