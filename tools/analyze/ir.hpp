// upn_analyze: shared translation-unit IR for whole-program static analysis.
//
// The passes in this directory need cross-file facts -- the #include graph of
// src/, which header declares which name, where a function is defined.  This
// header defines the one intermediate representation every pass consumes:
//
//   * raw lines        -- exactly as on disk (suppression comments live here);
//   * code lines       -- comments and string/char literals blanked out with
//                         lengths preserved, so rules never fire on prose and
//                         columns still line up;
//   * token stream     -- identifiers / numbers / punctuation with line
//                         numbers, for the flow-sensitive rules;
//   * include edges    -- quoted includes with the line they occur on,
//                         resolvable against the unit index;
//   * declaration index-- names a header exports (functions, types, macros,
//                         constants), used by include hygiene and the
//                         dead-function pass;
//   * function defs    -- every function definition with its class and body
//                         range, plus the names declared `virtual`; the call
//                         graph scans these bodies.
//
// One scope walker over the token stream fills both the declaration index
// and the function definitions, and the token helpers below (balanced-group
// skipping, lambda parsing, the keyword predicates) are the ones every pass
// uses, so no two passes disagree about what a function or a lambda is.
//
// Units are built per file (embarrassingly parallel; the engine fans the
// construction out on upn::ThreadPool) and are immutable afterwards, so
// passes may read them from any thread without synchronization.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace upn::analyze {

/// One file handed to the analyzer: `path` is repo-relative with forward
/// slashes ("src/topology/graph.hpp"), `content` the full text.
struct SourceFile {
  std::string path;
  std::string content;
};

enum class TokenKind : char {
  kIdent = 'i',   ///< identifier or keyword
  kNumber = 'n',  ///< numeric literal (incl. hex floats)
  kPunct = 'p',   ///< one punctuation character
};

struct Token {
  std::string text;
  std::size_t line = 0;  ///< 1-based
  TokenKind kind = TokenKind::kPunct;
};

/// One #include directive.  Only quoted ("...") includes participate in the
/// include graph; system (<...>) includes are recorded for completeness but
/// never resolved.
struct IncludeEdge {
  std::string target;     ///< path between the delimiters, verbatim
  std::size_t line = 0;   ///< 1-based line of the directive
  bool quoted = false;    ///< "..." (true) vs <...> (false)
};

enum class DeclKind : char {
  kFunction = 'f',  ///< free or member function with a return type
  kType = 't',      ///< class / struct / enum / using alias
  kMacro = 'm',     ///< object- or function-like #define
  kConstant = 'c',  ///< namespace-scope constant / variable declaration
};

/// One exported name.  `has_body` tells a definition from a prototype.
struct Declaration {
  std::string name;
  std::size_t line = 0;
  DeclKind kind = DeclKind::kFunction;
  bool has_body = false;
};

/// One function definition (a head followed by a body) at namespace or class
/// scope.  Indices point into Unit::tokens.
struct FunctionDef {
  std::size_t name = 0;        ///< the name token (after the `~` of a destructor)
  std::string class_name;      ///< enclosing or `Class::`-qualifying class; "" when free
  std::size_t body_begin = 0;  ///< first token inside the body braces
  std::size_t body_end = 0;    ///< the closing '}'
  bool is_dtor = false;
};

/// The per-file IR.  All views are derived from `content` once, at build
/// time; passes never re-parse.
struct Unit {
  std::string path;
  std::string module;  ///< "topology" for src/topology/*, "" outside src/
  bool is_header = false;

  std::vector<std::string> raw;   ///< lines as on disk
  std::vector<std::string> code;  ///< comment/string-stripped, same shape
  std::vector<Token> tokens;
  std::vector<IncludeEdge> includes;
  std::vector<Declaration> decls;
  std::vector<FunctionDef> functions;      ///< in source order
  std::vector<std::string> virtual_names;  ///< methods declared virtual; sorted, unique
};

/// Splits on '\n'; a trailing newline does not create an empty last line.
[[nodiscard]] std::vector<std::string> split_lines(const std::string& content);

/// The comment/string-stripped view of `lines` (lengths preserved).
[[nodiscard]] std::vector<std::string> code_view(const std::vector<std::string>& lines);

/// True iff `code[pos..]` spells `word` as a whole identifier (allowing an
/// `std::` qualifier but rejecting `othernamespace::word` and `x_word`).
[[nodiscard]] bool word_at(const std::string& code, std::size_t pos, const std::string& word);

/// True iff `word` occurs anywhere in `code` as a whole identifier.
[[nodiscard]] bool contains_word(const std::string& code, const std::string& word);

/// True iff raw line `line` (1-based) of `unit` carries
/// `upn-analyze-waive(<rule>: <why>)`, the one line-suppression marker.  The
/// reason is mandatory: an empty reason does not suppress.  Lines outside the
/// file are never suppressed.
[[nodiscard]] bool suppressed(const Unit& unit, std::size_t line, const std::string& rule);

/// The module a repo-relative path belongs to: the full directory path under
/// src/ ("src/routing/x.cpp" -> "routing", "src/routing/online/x.cpp" ->
/// "routing/online" -- nested modules are their own layering units);
/// anything else -> "".
[[nodiscard]] std::string module_of(const std::string& path);

/// Builds the full IR for one file.
[[nodiscard]] Unit build_unit(const std::string& path, const std::string& content);

// ---- token helpers shared by the passes -------------------------------------

/// Keywords that may directly precede '(' or an identifier without naming a
/// function or declaring a variable (`if (`, `return x`, `operator()`,
/// `static_cast<`); a '(' after one opens no parameter list.
[[nodiscard]] bool control_keyword(const std::string& t);

/// lock_guard / unique_lock / scoped_lock: constructing one takes a lock.
[[nodiscard]] bool lock_guard_type(const std::string& t);

/// Token index just past the balanced group opened at `open` ('(', '[' or
/// '{'); toks.size() when unbalanced.
[[nodiscard]] std::size_t skip_group(const std::vector<Token>& toks, std::size_t open);

/// Token index just past the `<...>` group whose '<' is at or after `open`;
/// toks.size() when unbalanced.
[[nodiscard]] std::size_t skip_angles(const std::vector<Token>& toks, std::size_t open);

/// A lambda expression: its captures, parameter names and body range.
struct Lambda {
  std::size_t open = 0;               ///< the '[' token
  bool ref_default = false;           ///< [&] or [&, ...]
  std::set<std::string> ref_names;    ///< [&x, ...]
  std::set<std::string> value_names;  ///< [x, ...] / [x = expr, ...]
  std::set<std::string> params;       ///< parameter names
  std::size_t body_begin = 0;         ///< first token inside the body braces
  std::size_t body_end = 0;           ///< the closing '}'
};

/// Parses the lambda whose '[' sits at `open`; false when no body follows.
[[nodiscard]] bool parse_lambda(const std::vector<Token>& toks, std::size_t open, Lambda& out);

/// True iff toks[k] is the callee of a ThreadPool task spawn,
/// `pool.parallel_for(` / `pool.parallel_map<T>(` (declarations are preceded
/// by a type, not '.').
[[nodiscard]] bool task_spawn_at(const std::vector<Token>& toks, std::size_t k);

/// For a spawn at `k`: parses the first lambda written inline among the call's
/// arguments, whose parentheses must open before `end`; false when there is
/// none.
[[nodiscard]] bool parse_task_lambda(const std::vector<Token>& toks, std::size_t k,
                                     std::size_t end, Lambda& out);

}  // namespace upn::analyze
