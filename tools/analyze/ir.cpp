#include "tools/analyze/ir.hpp"

#include <algorithm>
#include <cctype>
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

bool suppressed(const std::string& raw_line, const std::string& rule) {
  // upn-analyze-waive(<rule>: <reason>) -- the reason is mandatory, so a
  // waiver always records WHY the rule does not apply at this site.
  const std::string marker = "upn-analyze-waive(" + rule + ":";
  const auto at = raw_line.find(marker);
  if (at == std::string::npos) return false;
  std::size_t p = at + marker.size();
  while (p < raw_line.size() && raw_line[p] == ' ') ++p;
  return p < raw_line.size() && raw_line[p] != ')';
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

// ---- declaration extraction -----------------------------------------------
//
// A heuristic single-pass recursive parser over the token stream.  It is NOT
// a C++ parser; it recognizes the declaration shapes this codebase actually
// uses (see docs/STATIC_ANALYSIS.md for the exact contract) and degrades by
// dropping a declaration rather than crashing on anything exotic.

bool is_control_keyword(const std::string& t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" || t == "return" ||
         t == "sizeof" || t == "case" || t == "new" || t == "delete" || t == "catch" ||
         t == "throw" || t == "else" || t == "do" || t == "alignas" || t == "alignof" ||
         t == "static_assert" || t == "decltype" || t == "noexcept";
}

struct DeclParser {
  const std::vector<Token>& toks;
  std::vector<Declaration> out;
  std::size_t i = 0;

  [[nodiscard]] bool done() const { return i >= toks.size(); }
  [[nodiscard]] const std::string& tok(std::size_t k) const { return toks[k].text; }

  /// Consumes a balanced {...} group (toks[i] must be '{').
  void skip_braces() {
    int depth = 0;
    while (i < toks.size()) {
      const std::string& t = toks[i++].text;
      if (t == "{") ++depth;
      if (t == "}" && --depth == 0) return;
    }
  }

  /// Index of the function name in stmt head [begin, end): the first
  /// identifier directly followed by '(' outside template angles, with at
  /// least one preceding token (the return type).  npos when none.
  [[nodiscard]] std::size_t function_name_index(std::size_t begin, std::size_t end) const {
    int angle = 0;
    int paren = 0;
    for (std::size_t k = begin; k < end; ++k) {
      const std::string& t = tok(k);
      if (t == "(") ++paren;
      if (t == ")" && paren > 0) --paren;
      if (paren > 0) continue;
      if (t == "<" && k > begin &&
          (toks[k - 1].kind == TokenKind::kIdent || tok(k - 1) == ">")) {
        ++angle;
        continue;
      }
      if (t == ">" && angle > 0) {
        --angle;
        continue;
      }
      if (angle > 0) continue;
      if (toks[k].kind == TokenKind::kIdent && k + 1 < end && tok(k + 1) == "(" &&
          k > begin && !is_control_keyword(t)) {
        if (tok(k - 1) == "~") return std::string::npos;  // destructor
        return k;
      }
    }
    return std::string::npos;
  }

  void record(std::string name, std::size_t line, DeclKind kind, bool has_body = false) {
    out.push_back(Declaration{std::move(name), line, kind, has_body});
  }

  /// Classifies a body-less statement head [begin, end) seen at class or
  /// namespace scope.  `class_name` is "" at namespace scope.
  void classify_statement(std::size_t begin, std::size_t end, const std::string& class_name) {
    if (begin >= end) return;
    const std::string& first = tok(begin);
    if (first == "friend" || first == "static_assert" || first == "typedef") return;
    std::size_t b = begin;
    while (b < end && tok(b) == "template") {  // skip `template <...>` prefix
      int angle = 0;
      ++b;
      while (b < end) {
        if (tok(b) == "<") ++angle;
        if (tok(b) == ">" && --angle == 0) {
          ++b;
          break;
        }
        ++b;
      }
    }
    if (b >= end) return;
    if (tok(b) == "using") {
      if (b + 1 < end && tok(b + 1) == "namespace") return;
      if (b + 1 < end && toks[b + 1].kind == TokenKind::kIdent) {
        record(tok(b + 1), toks[b + 1].line, DeclKind::kType);
      }
      return;
    }
    if (tok(b) == "class" || tok(b) == "struct" || tok(b) == "union" || tok(b) == "enum") {
      // Forward declaration (a definition would have ended at '{').
      std::size_t n = b + 1;
      while (n < end && (tok(n) == "class" || toks[n].kind != TokenKind::kIdent)) ++n;
      if (n < end) record(tok(n), toks[n].line, DeclKind::kType);
      return;
    }
    const std::size_t fn = function_name_index(b, end);
    if (fn != std::string::npos) {
      if (!class_name.empty() && tok(fn) == class_name) return;  // constructor
      record(tok(fn), toks[fn].line, DeclKind::kFunction);
      return;
    }
    // Variable / constant / field: the identifier directly before the first
    // top-level '=', or before the end when there is no initializer.
    int angle = 0;
    std::size_t stop = end;
    for (std::size_t k = b; k < end; ++k) {
      if (tok(k) == "<" && k > b &&
          (toks[k - 1].kind == TokenKind::kIdent || tok(k - 1) == ">")) {
        ++angle;
      } else if (tok(k) == ">" && angle > 0) {
        --angle;
      } else if (tok(k) == "=" && angle == 0) {
        stop = k;
        break;
      }
    }
    if (stop > b && toks[stop - 1].kind == TokenKind::kIdent && stop - 1 > b &&
        !is_control_keyword(tok(stop - 1))) {
      record(tok(stop - 1), toks[stop - 1].line, DeclKind::kConstant);
    }
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
          record(t.text, t.line, DeclKind::kConstant);
          expect_name = false;
        } else {
          expect_name = false;
        }
      }
      ++i;
    }
  }

  /// Parses one brace scope (namespace, class, or the whole file).
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
      auto head_has = [&](const char* kw) {
        for (std::size_t k = head_begin; k < head_end; ++k) {
          if (tok(k) == kw) return true;
        }
        return false;
      };
      if (head_has("namespace")) {
        ++i;  // consume '{'
        parse_scope("", false);
        stmt_begin = i;
        continue;
      }
      if (head_has("enum")) {
        std::size_t n = head_begin;
        while (n < head_end && tok(n) != "enum") ++n;
        ++n;
        if (n < head_end && tok(n) == "class") ++n;
        if (n < head_end && toks[n].kind == TokenKind::kIdent) {
          record(tok(n), toks[n].line, DeclKind::kType);
        }
        consume_enum_body();
        stmt_begin = i;
        continue;
      }
      if (head_has("class") || head_has("struct") || head_has("union")) {
        std::size_t n = head_begin;
        while (n < head_end &&
               !(tok(n) == "class" || tok(n) == "struct" || tok(n) == "union")) {
          ++n;
        }
        ++n;
        std::string name;
        if (n < head_end && toks[n].kind == TokenKind::kIdent) {
          name = tok(n);
          record(name, toks[n].line, DeclKind::kType);
        }
        ++i;  // consume '{'
        parse_scope(name, true);
        // Trailing `;` (and variable names) handled by the ';' branch.
        stmt_begin = i;
        continue;
      }
      const std::size_t fn = function_name_index(head_begin, head_end);
      if (fn != std::string::npos &&
          (class_name.empty() || tok(fn) != class_name)) {
        record(tok(fn), toks[fn].line, DeclKind::kFunction, true);
        skip_braces();
        stmt_begin = i;
        continue;
      }
      // Constructor definition, initializer list, lambda initializer, array
      // initializer, ...: skip the braces and let the ';' branch finish the
      // statement.
      skip_braces();
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

  // Macros come from the raw directive lines; everything else from the
  // recursive statement parser.
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

  DeclParser parser{unit.tokens, {}};
  parser.parse_scope("", false);
  for (Declaration& d : parser.out) unit.decls.push_back(std::move(d));
  std::sort(unit.decls.begin(), unit.decls.end(),
            [](const Declaration& a, const Declaration& b) {
              return std::tie(a.line, a.name) < std::tie(b.line, b.name);
            });
  return unit;
}

}  // namespace upn::analyze
