#include "tools/analyze/ir.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <tuple>
#include <utility>

namespace upn::analyze {

namespace {

bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }

}  // namespace

std::vector<std::string> split_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::string::size_type start = 0;
  while (start <= content.size()) {
    const auto end = content.find('\n', start);
    if (end == std::string::npos) {
      if (start < content.size()) lines.push_back(content.substr(start));
      break;
    }
    lines.push_back(content.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::vector<std::string> code_view(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  bool in_block = false;
  for (const std::string& line : lines) {
    std::string code = line;
    char quote = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (in_block) {
        if (code[i] == '*' && i + 1 < code.size() && code[i + 1] == '/') {
          code[i] = code[i + 1] = ' ';
          ++i;
          in_block = false;
        } else {
          code[i] = ' ';
        }
        continue;
      }
      if (quote != 0) {
        if (code[i] == '\\' && i + 1 < code.size()) {
          code[i] = code[i + 1] = ' ';
          ++i;
        } else if (code[i] == quote) {
          quote = 0;
          code[i] = ' ';
        } else {
          code[i] = ' ';
        }
        continue;
      }
      if (code[i] == '"' || code[i] == '\'') {
        quote = code[i];
        code[i] = ' ';
      } else if (code[i] == '/' && i + 1 < code.size() && code[i + 1] == '/') {
        code.resize(i);
        break;
      } else if (code[i] == '/' && i + 1 < code.size() && code[i + 1] == '*') {
        code[i] = code[i + 1] = ' ';
        ++i;
        in_block = true;
      }
    }
    out.push_back(std::move(code));
  }
  return out;
}

bool word_at(const std::string& code, std::size_t pos, const std::string& word) {
  if (code.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && ident_char(code[pos - 1])) return false;
  if (pos > 0 && code[pos - 1] == ':') {
    // `std::word` still counts; `othernamespace::word` is a different entity.
    if (pos < 5 || code.compare(pos - 5, 5, "std::") != 0) return false;
  }
  const std::size_t end = pos + word.size();
  return end >= code.size() || !ident_char(code[end]);
}

bool contains_word(const std::string& code, const std::string& word) {
  for (std::size_t pos = code.find(word); pos != std::string::npos;
       pos = code.find(word, pos + 1)) {
    if (word_at(code, pos, word)) return true;
  }
  return false;
}

bool suppressed(const Unit& unit, std::size_t line, const std::string& rule) {
  if (line == 0 || line > unit.raw.size()) return false;
  const std::string& raw_line = unit.raw[line - 1];
  // upn-analyze-waive(<rule>: <reason>) -- the reason is mandatory, so a
  // waiver always records WHY the rule does not apply at this site.
  const std::string marker = "upn-analyze-waive(" + rule + ":";
  const auto at = raw_line.find(marker);
  if (at == std::string::npos) return false;
  std::size_t p = at + marker.size();
  while (p < raw_line.size() && raw_line[p] == ' ') ++p;
  return p < raw_line.size() && raw_line[p] != ')';
}

bool control_keyword(const std::string& t) {
  static const std::set<std::string> kw = {
      "return", "else", "new", "delete", "case", "break", "continue", "goto",
      "throw", "sizeof", "do", "operator", "co_return", "if", "while", "for",
      "switch", "public", "private", "protected", "typename", "template",
      "catch", "static_assert", "decltype", "alignof", "alignas", "noexcept",
      "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast"};
  return kw.count(t) != 0;
}

bool lock_guard_type(const std::string& t) {
  return t == "lock_guard" || t == "unique_lock" || t == "scoped_lock";
}

std::size_t skip_group(const std::vector<Token>& toks, std::size_t open) {
  const std::string& o = toks[open].text;
  const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    if (toks[k].text == o) ++depth;
    if (toks[k].text == c && --depth == 0) return k + 1;
  }
  return toks.size();
}

std::size_t skip_angles(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    if (toks[k].text == "<") ++depth;
    if (toks[k].text == ">" && --depth == 0) return k + 1;
  }
  return toks.size();
}

bool parse_lambda(const std::vector<Token>& toks, std::size_t open, Lambda& out) {
  out.open = open;
  const std::size_t captures_end = skip_group(toks, open);  // past ']'
  if (captures_end >= toks.size()) return false;

  for (std::size_t k = open + 1; k + 1 < captures_end; ++k) {
    const Token& t = toks[k];
    if (t.text == "&") {
      if (toks[k + 1].kind == TokenKind::kIdent) {
        out.ref_names.insert(toks[k + 1].text);
        ++k;
      } else {
        out.ref_default = true;
      }
    } else if (t.kind == TokenKind::kIdent) {
      out.value_names.insert(t.text);
      // `name = expr` init-captures: skip the initializer.
      if (toks[k + 1].text == "=") {
        while (k + 1 < captures_end && toks[k + 1].text != ",") ++k;
      }
    }
  }

  std::size_t k = captures_end;
  if (toks[k].text == "(") {
    // Each top-level parameter's name is its last identifier before the ','
    // or a default argument's '='.
    const std::size_t params_end = skip_group(toks, k);  // past ')'
    std::string last_ident;
    int depth = 0;
    for (std::size_t p = k; p < params_end; ++p) {
      const std::string& t = toks[p].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (toks[p].kind == TokenKind::kIdent) last_ident = t;
      if (depth == 1 && (t == "," || t == "=")) {
        if (!last_ident.empty()) out.params.insert(last_ident);
        last_ident.clear();
        if (t == "=") {
          while (p + 1 < params_end && toks[p + 1].text != "," && toks[p + 1].text != ")") ++p;
        }
      }
    }
    if (!last_ident.empty()) out.params.insert(last_ident);
    k = params_end;
  }
  // Trailing specifiers / return type before the body.
  while (k < toks.size() && toks[k].text != "{" && toks[k].text != ";" &&
         toks[k].text != ")") {
    ++k;
  }
  if (k >= toks.size() || toks[k].text != "{") return false;
  out.body_begin = k + 1;
  out.body_end = skip_group(toks, k) - 1;  // index of the closing '}'
  return out.body_end < toks.size();
}

bool task_spawn_at(const std::vector<Token>& toks, std::size_t k) {
  return (toks[k].text == "parallel_for" || toks[k].text == "parallel_map") && k > 0 &&
         toks[k - 1].text == ".";
}

bool parse_task_lambda(const std::vector<Token>& toks, std::size_t k, std::size_t end,
                       Lambda& out) {
  std::size_t call = k + 1;
  if (call < end && toks[call].text == "<") call = skip_angles(toks, call);
  if (call >= end || toks[call].text != "(") return false;
  const std::size_t call_end = skip_group(toks, call);
  std::size_t lam = call + 1;
  while (lam < call_end && toks[lam].text != "[") ++lam;
  return lam < call_end && parse_lambda(toks, lam, out);
}

std::string module_of(const std::string& path) {
  if (path.compare(0, 4, "src/") != 0) return "";
  // The module is the full directory path under src/, so nested modules
  // like src/routing/online/ are distinct layering units from their parent
  // (they get their own `layer routing/online: ...` declaration).
  const auto last_slash = path.rfind('/');
  if (last_slash == std::string::npos || last_slash < 4) return "";
  return path.substr(4, last_slash - 4);
}

namespace {

// ---- tokenizer ------------------------------------------------------------

std::vector<Token> tokenize(const std::vector<std::string>& code) {
  std::vector<Token> tokens;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    const std::size_t line_no = li + 1;
    std::size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (ident_start(c)) {
        std::size_t end = i + 1;
        while (end < line.size() && ident_char(line[end])) ++end;
        tokens.push_back(Token{line.substr(i, end - i), line_no, TokenKind::kIdent});
        i = end;
        continue;
      }
      const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
      const bool dot_digit = c == '.' && i + 1 < line.size() &&
                             std::isdigit(static_cast<unsigned char>(line[i + 1])) != 0;
      if (digit || dot_digit) {
        std::size_t end = i + 1;
        while (end < line.size()) {
          const char d = line[end];
          if (ident_char(d) || d == '.') {
            ++end;
          } else if ((d == '+' || d == '-') &&
                     (line[end - 1] == 'e' || line[end - 1] == 'E' ||
                      line[end - 1] == 'p' || line[end - 1] == 'P')) {
            ++end;
          } else {
            break;
          }
        }
        tokens.push_back(Token{line.substr(i, end - i), line_no, TokenKind::kNumber});
        i = end;
        continue;
      }
      if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        tokens.push_back(Token{"::", line_no, TokenKind::kPunct});
        i += 2;
        continue;
      }
      tokens.push_back(Token{std::string(1, c), line_no, TokenKind::kPunct});
      ++i;
    }
  }
  return tokens;
}

// ---- includes -------------------------------------------------------------

std::vector<IncludeEdge> scan_includes(const std::vector<std::string>& raw) {
  std::vector<IncludeEdge> out;
  for (std::size_t li = 0; li < raw.size(); ++li) {
    const std::string& line = raw[li];
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= line.size() || line[i] != '#') continue;
    ++i;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (line.compare(i, 7, "include") != 0) continue;
    i += 7;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= line.size()) continue;
    const char open = line[i];
    const char close = open == '<' ? '>' : '"';
    if (open != '<' && open != '"') continue;
    const auto end = line.find(close, i + 1);
    if (end == std::string::npos) continue;
    out.push_back(IncludeEdge{line.substr(i + 1, end - i - 1), li + 1, open == '"'});
  }
  return out;
}

// ---- the scope walker ------------------------------------------------------
//
// A heuristic single-pass recursive walk over the token stream.  It is NOT a
// C++ parser; it recognizes the declaration shapes this codebase actually
// uses (see docs/STATIC_ANALYSIS.md for the exact contract) and degrades by
// dropping a declaration rather than crashing on anything exotic.  Each
// namespace and class scope is walked once: statement heads feed the
// declaration index and the `virtual` names, function heads followed by a
// body become FunctionDefs, and bodies are skipped.

struct ScopeWalker {
  const std::vector<Token>& toks;
  std::vector<Declaration> decls;
  std::vector<FunctionDef> functions;
  std::set<std::string> virtuals;
  std::size_t i = 0;

  [[nodiscard]] const std::string& tok(std::size_t k) const { return toks[k].text; }

  [[nodiscard]] bool has_token(std::size_t begin, std::size_t end, const char* text) const {
    for (std::size_t k = begin; k < end; ++k) {
      if (tok(k) == text) return true;
    }
    return false;
  }

  /// Index of the function name in statement head [begin, end): past any
  /// `template <...>` prefix, the first identifier directly followed by '('
  /// outside parens and template angles, with at least one token before it
  /// in the head (the return type, or the `~` of a destructor, which sets
  /// `is_dtor`).  npos when the head declares no function.
  [[nodiscard]] std::size_t function_name_index(std::size_t begin, std::size_t end,
                                                bool& is_dtor) const {
    std::size_t b = begin;
    while (b < end && tok(b) == "template") b = skip_angles(toks, b + 1);
    int paren = 0;
    int angle = 0;
    for (std::size_t k = b; k < end; ++k) {
      const std::string& t = tok(k);
      if (t == "(") ++paren;
      if (t == ")" && paren > 0) --paren;
      if (paren > 0) continue;
      if (t == "<" && k > b && (toks[k - 1].kind == TokenKind::kIdent || tok(k - 1) == ">")) {
        ++angle;
        continue;
      }
      if (t == ">" && angle > 0) {
        --angle;
        continue;
      }
      if (angle > 0) continue;
      if (toks[k].kind == TokenKind::kIdent && k + 1 < end && tok(k + 1) == "(" && k > begin &&
          !control_keyword(t)) {
        is_dtor = tok(k - 1) == "~";
        return k;
      }
    }
    return std::string::npos;
  }

  void record(std::size_t k, DeclKind kind, bool has_body = false) {
    decls.push_back(Declaration{tok(k), toks[k].line, kind, has_body});
  }

  /// A head with `virtual` in it names a virtual method (destructors aside).
  void note_virtual(std::size_t begin, std::size_t end, std::size_t fn, bool is_dtor) {
    if (fn != std::string::npos && !is_dtor && has_token(begin, end, "virtual")) {
      virtuals.insert(tok(fn));
    }
  }

  /// Classifies a body-less statement head [begin, end) seen at class or
  /// namespace scope.  `class_name` is "" at namespace scope.
  void classify_statement(std::size_t begin, std::size_t end, const std::string& class_name) {
    if (begin >= end) return;
    const std::string& first = tok(begin);
    if (first == "friend" || first == "static_assert" || first == "typedef") return;
    std::size_t b = begin;
    while (b < end && tok(b) == "template") b = skip_angles(toks, b + 1);
    if (b >= end) return;
    if (tok(b) == "using") {
      if (b + 1 < end && tok(b + 1) == "namespace") return;
      if (b + 1 < end && toks[b + 1].kind == TokenKind::kIdent) record(b + 1, DeclKind::kType);
      return;
    }
    if (tok(b) == "class" || tok(b) == "struct" || tok(b) == "union" || tok(b) == "enum") {
      // Forward declaration (a definition would have ended at '{').
      std::size_t n = b + 1;
      while (n < end && (tok(n) == "class" || toks[n].kind != TokenKind::kIdent)) ++n;
      if (n < end) record(n, DeclKind::kType);
      return;
    }
    bool is_dtor = false;
    const std::size_t fn = function_name_index(b, end, is_dtor);
    note_virtual(b, end, fn, is_dtor);
    if (fn != std::string::npos && !is_dtor) {
      if (!class_name.empty() && tok(fn) == class_name) return;  // constructor
      record(fn, DeclKind::kFunction);
      return;
    }
    // Variable / constant / field.
    const std::size_t stop = initializer_index(b, end);
    if (names_variable(b, stop)) record(stop - 1, DeclKind::kConstant);
  }

  /// Index of the first '=' in [b, end) outside template angles; `end` when
  /// there is none.
  [[nodiscard]] std::size_t initializer_index(std::size_t b, std::size_t end) const {
    int angle = 0;
    for (std::size_t k = b; k < end; ++k) {
      if (tok(k) == "<" && k > b &&
          (toks[k - 1].kind == TokenKind::kIdent || tok(k - 1) == ">")) {
        ++angle;
      } else if (tok(k) == ">" && angle > 0) {
        --angle;
      } else if (tok(k) == "=" && angle == 0) {
        return k;
      }
    }
    return end;
  }

  /// True iff the token before `stop` (an initializer's '=' or the statement
  /// end) names a variable declared by the statement starting at `b`.
  [[nodiscard]] bool names_variable(std::size_t b, std::size_t stop) const {
    return stop > b + 1 && toks[stop - 1].kind == TokenKind::kIdent &&
           !control_keyword(tok(stop - 1));
  }

  /// Consumes an enum definition body and records the enumerators.
  void consume_enum_body() {
    int depth = 0;
    bool expect_name = true;
    while (i < toks.size()) {
      const Token& t = toks[i];
      if (t.text == "{") {
        ++depth;
        expect_name = true;
      } else if (t.text == "}") {
        if (--depth == 0) {
          ++i;
          return;
        }
      } else if (depth == 1) {
        if (t.text == ",") {
          expect_name = true;
        } else if (expect_name && t.kind == TokenKind::kIdent) {
          record(i, DeclKind::kConstant);
          expect_name = false;
        } else {
          expect_name = false;
        }
      }
      ++i;
    }
  }

  /// Moves i from the first '{' after a constructor's mem-initializer colon
  /// to its body's '{'.  A brace initializer's '{' follows its member's name
  /// (or a template's '>'); the body's follows the last initializer's ')' or
  /// '}'.
  void skip_member_initializers() {
    while (i < toks.size() && tok(i) == "{" &&
           (toks[i - 1].kind == TokenKind::kIdent || tok(i - 1) == ">")) {
      i = skip_group(toks, i);
      while (i < toks.size() && tok(i) != "{") i = tok(i) == "(" ? skip_group(toks, i) : i + 1;
    }
  }

  /// Records the definition whose head [head_begin, i) names `fn` and
  /// consumes its body (toks[i] is the body's '{').
  void add_function(std::size_t head_begin, std::size_t fn, bool is_dtor,
                    const std::string& class_name) {
    note_virtual(head_begin, i, fn, is_dtor);
    if (!is_dtor && (class_name.empty() || tok(fn) != class_name)) {
      record(fn, DeclKind::kFunction, true);
    }
    FunctionDef def;
    def.name = fn;
    def.is_dtor = is_dtor;
    def.class_name = class_name;
    const std::size_t first = is_dtor ? fn - 1 : fn;  // `~` or the name
    if (first >= 2 && tok(first - 1) == "::" && toks[first - 2].kind == TokenKind::kIdent) {
      def.class_name = tok(first - 2);  // out-of-line: `ret Class::name(...)`
    }
    if (is_dtor && def.class_name.empty()) def.class_name = tok(fn);
    if (fn + 1 < i && has_token(skip_group(toks, fn + 1), i, ":")) skip_member_initializers();
    def.body_begin = i + 1;
    def.body_end = skip_group(toks, i) - 1;
    i = def.body_end + 1;
    functions.push_back(std::move(def));
  }

  /// Walks one brace scope (namespace, class, or the whole file).
  void parse_scope(const std::string& class_name, bool in_class) {
    std::size_t stmt_begin = i;
    int paren = 0;
    while (i < toks.size()) {
      const std::string& t = tok(i);
      if (t == "(") ++paren;
      if (t == ")" && paren > 0) --paren;
      if (paren > 0) {
        ++i;
        continue;
      }
      // Access specifiers open no statement.
      if (in_class && stmt_begin == i &&
          (t == "public" || t == "private" || t == "protected") && i + 1 < toks.size() &&
          tok(i + 1) == ":") {
        i += 2;
        stmt_begin = i;
        continue;
      }
      if (t == ";") {
        classify_statement(stmt_begin, i, class_name);
        ++i;
        stmt_begin = i;
        continue;
      }
      if (t == "}") {
        ++i;  // end of this scope
        return;
      }
      if (t != "{") {
        ++i;
        continue;
      }
      // '{' at paren depth 0: classify the head [stmt_begin, i).
      const std::size_t head_begin = stmt_begin;
      const std::size_t head_end = i;
      if (has_token(head_begin, head_end, "namespace")) {
        ++i;  // consume '{'
        parse_scope("", false);
        stmt_begin = i;
        continue;
      }
      if (has_token(head_begin, head_end, "enum")) {
        std::size_t n = head_begin;
        while (n < head_end && tok(n) != "enum") ++n;
        ++n;
        if (n < head_end && tok(n) == "class") ++n;
        if (n < head_end && toks[n].kind == TokenKind::kIdent) record(n, DeclKind::kType);
        consume_enum_body();
        stmt_begin = i;
        continue;
      }
      // A `template <class T>` prefix declares no class: look past it.
      std::size_t after_template = head_begin;
      while (after_template < head_end && tok(after_template) == "template") {
        after_template = skip_angles(toks, after_template + 1);
      }
      if (has_token(after_template, head_end, "class") ||
          has_token(after_template, head_end, "struct") ||
          has_token(after_template, head_end, "union")) {
        std::size_t n = after_template;
        while (n < head_end &&
               !(tok(n) == "class" || tok(n) == "struct" || tok(n) == "union")) {
          ++n;
        }
        ++n;
        std::string name;
        if (n < head_end && toks[n].kind == TokenKind::kIdent) {
          name = tok(n);
          record(n, DeclKind::kType);
        }
        ++i;  // consume '{'
        parse_scope(name, true);
        // Trailing `;` (and variable names) handled by the ';' branch.
        stmt_begin = i;
        continue;
      }
      bool is_dtor = false;
      const std::size_t fn = function_name_index(head_begin, head_end, is_dtor);
      if (fn != std::string::npos) {
        add_function(head_begin, fn, is_dtor, class_name);
        stmt_begin = i;
        continue;
      }
      // Any other brace group is skipped.  An initializer (`name = {...}`,
      // `name = [] {...}()`) leaves its statement to the ';' branch; any other
      // group (a macro-made block, a body whose head names no function) ends
      // the statement.
      i = skip_group(toks, i);
      const std::size_t eq = initializer_index(head_begin, head_end);
      if (eq == head_end || !names_variable(head_begin, eq)) stmt_begin = i;
    }
    // File scope may end without a closing '}': flush the tail statement.
    classify_statement(stmt_begin, i, class_name);
  }
};

}  // namespace

Unit build_unit(const std::string& path, const std::string& content) {
  Unit unit;
  unit.path = path;
  unit.module = module_of(path);
  unit.is_header = path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
  unit.raw = split_lines(content);
  unit.code = code_view(unit.raw);
  unit.tokens = tokenize(unit.code);
  unit.includes = scan_includes(unit.raw);

  // Macros come from the raw directive lines; everything else from the scope
  // walker.
  for (std::size_t li = 0; li < unit.code.size(); ++li) {
    const std::string& line = unit.code[li];
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= line.size() || line[i] != '#') continue;
    ++i;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (line.compare(i, 6, "define") != 0) continue;
    i += 6;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    std::size_t end = i;
    while (end < line.size() && ident_char(line[end])) ++end;
    if (end > i) {
      unit.decls.push_back(
          Declaration{line.substr(i, end - i), li + 1, DeclKind::kMacro});
    }
  }

  ScopeWalker walker{unit.tokens, {}, {}, {}};
  walker.parse_scope("", false);
  for (Declaration& d : walker.decls) unit.decls.push_back(std::move(d));
  unit.functions = std::move(walker.functions);
  unit.virtual_names.assign(walker.virtuals.begin(), walker.virtuals.end());
  std::sort(unit.decls.begin(), unit.decls.end(),
            [](const Declaration& a, const Declaration& b) {
              return std::tie(a.line, a.name) < std::tie(b.line, b.name);
            });
  return unit;
}

}  // namespace upn::analyze
