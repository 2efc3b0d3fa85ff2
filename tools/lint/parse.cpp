#include "parse.hpp"

#include <set>

#include "token_util.hpp"

namespace iotls::lint {

namespace {

using tok::is_ident;
using tok::is_punct;
using tok::skip_balanced;
using tok::skip_template_args;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

const std::set<std::string>& stmt_keywords() {
  static const std::set<std::string> kWords = {
      "if",       "else",      "while",  "for",     "do",     "switch",
      "case",     "default",   "return", "break",   "continue", "goto",
      "try",      "catch",     "throw",  "new",     "delete", "sizeof",
      "co_await", "co_return", "co_yield", "static_assert", "using",
      "typedef",  "operator",  "alignof"};
  return kWords;
}

/// Keywords/specifiers that may sit between a parameter list and the body.
const std::set<std::string>& post_param_specifiers() {
  static const std::set<std::string> kWords = {
      "const", "noexcept", "override", "final", "mutable", "volatile",
      "throw", "requires"};
  return kWords;
}

/// Tokens dropped when normalizing a return-type spelling.
const std::set<std::string>& type_noise() {
  static const std::set<std::string> kWords = {
      "const",  "volatile", "static",   "inline", "constexpr",
      "virtual", "extern",  "friend",   "typename", "explicit",
      "nodiscard", "maybe_unused", "class", "struct"};
  return kWords;
}

class Parser {
 public:
  explicit Parser(const std::vector<Token>& toks) : toks_(toks) {}

  ParsedFile run() {
    scan(0, toks_.size());
    return std::move(out_);
  }

 private:
  // ------------------------------------------------------------- helpers

  [[nodiscard]] bool at(std::size_t i, std::string_view text) const {
    return i < toks_.size() && is_punct(toks_[i], text);
  }
  [[nodiscard]] bool at_ident(std::size_t i, std::string_view text) const {
    return i < toks_.size() && is_ident(toks_[i], text);
  }

  // ----------------------------------------------------- function finder

  /// Walk a region that is NOT inside a function body, finding function
  /// definitions/declarations; recurses past class braces naturally (the
  /// walk simply continues inside any `{` that is not a function body).
  void scan(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end;) {
      const Token& t = toks_[i];
      if (t.kind == TokenKind::PPLine) {
        ++i;
        continue;
      }
      if (is_punct(t, "(")) {
        const std::size_t next = try_function(i, end);
        if (next != kNpos) {
          i = next;
          continue;
        }
      }
      ++i;
    }
  }

  /// toks_[open] is "(". If this is a function declarator, consume through
  /// the declaration/definition and return the index to resume scanning
  /// at; kNpos when it is not a function.
  std::size_t try_function(std::size_t open, std::size_t end) {
    if (open == 0) return kNpos;
    // --- name ---------------------------------------------------------
    std::size_t name_idx = open - 1;
    std::string name;
    if (toks_[name_idx].kind == TokenKind::Ident) {
      if (stmt_keywords().count(toks_[name_idx].text) != 0) return kNpos;
      name = toks_[name_idx].text;
    } else if (toks_[name_idx].kind == TokenKind::Punct && name_idx >= 1 &&
               is_ident(toks_[name_idx - 1], "operator")) {
      name = "operator" + toks_[name_idx].text;
      name_idx -= 1;
    } else {
      return kNpos;
    }
    // Qualified prefix: `A::B::name`, `Foo<T>::name`, `~Foo`.
    std::size_t qual_begin = name_idx;
    if (qual_begin >= 1 && is_punct(toks_[qual_begin - 1], "~")) {
      qual_begin -= 1;
    }
    while (qual_begin >= 2 && is_punct(toks_[qual_begin - 1], "::") &&
           toks_[qual_begin - 2].kind == TokenKind::Ident) {
      qual_begin -= 2;
    }
    // --- parameter list ----------------------------------------------
    const std::size_t params_end = skip_balanced(toks_, open, "(", ")");
    if (params_end >= end) return kNpos;
    // --- specifiers / trailing return / ctor-init-list ----------------
    std::size_t k = params_end;
    while (k < end) {
      if (toks_[k].kind == TokenKind::Ident &&
          post_param_specifiers().count(toks_[k].text) != 0) {
        ++k;
        if (at(k, "(")) k = skip_balanced(toks_, k, "(", ")");
      } else if (at(k, "->")) {
        // Trailing return type: type tokens until `{`, `;`, or `=`.
        ++k;
        while (k < end && !at(k, "{") && !at(k, ";") && !at(k, "=") &&
               !at(k, ":")) {
          if (at(k, "<")) {
            const std::size_t past = skip_template_args(toks_, k, end);
            if (past == kNpos) return kNpos;
            k = past;
          } else if (at(k, "(")) {
            k = skip_balanced(toks_, k, "(", ")");
          } else {
            ++k;
          }
        }
      } else {
        break;
      }
    }
    bool is_definition = false;
    if (at(k, ":") && !at(k + 1, ":")) {
      // Constructor initializer list: `name(...)`, `{...}` or `<...>` per
      // item, comma separated, then the body.
      ++k;
      while (k < end) {
        while (k < end && (toks_[k].kind == TokenKind::Ident ||
                           is_punct(toks_[k], "::"))) {
          ++k;
        }
        if (at(k, "<")) {
          const std::size_t past = skip_template_args(toks_, k, end);
          if (past == kNpos) return kNpos;
          k = past;
        }
        if (at(k, "(")) {
          k = skip_balanced(toks_, k, "(", ")");
        } else if (at(k, "{")) {
          k = skip_balanced(toks_, k, "{", "}");
        } else {
          return kNpos;
        }
        if (at(k, ",")) {
          ++k;
          continue;
        }
        break;
      }
      if (!at(k, "{")) return kNpos;
      is_definition = true;
    } else if (at(k, "{")) {
      is_definition = true;
    } else if (at(k, ";")) {
      // Prototype.
    } else if (at(k, "=") && (at_ident(k + 1, "default") ||
                              at_ident(k + 1, "delete") ||
                              (k + 1 < end &&
                               toks_[k + 1].kind == TokenKind::Number))) {
      // `= default`, `= delete`, `= 0`.
      k += 2;
      if (!at(k, ";")) return kNpos;
    } else {
      return kNpos;
    }

    // --- return type --------------------------------------------------
    bool nodiscard = false;
    const std::string ret = return_type_before(qual_begin, &nodiscard);
    std::string qualified;
    for (std::size_t q = qual_begin; q < open; ++q) {
      qualified += toks_[q].text;
    }

    if (!is_definition) {
      if (!ret.empty()) {
        out_.declarations.push_back(
            {name, ret, nodiscard, toks_[name_idx].line});
      }
      return k + 1;
    }

    Function fn;
    fn.name = name;
    fn.qualified = qualified;
    fn.return_type = ret;
    fn.line = toks_[name_idx].line;
    fn.body_begin = k;
    std::size_t next = 0;
    fn.body = parse_compound(k, &next);
    fn.body_end = next;
    if (!ret.empty()) {
      out_.declarations.push_back({name, ret, nodiscard, fn.line});
    }
    out_.functions.push_back(std::move(fn));
    return next;
  }

  /// Normalized spelling of the type tokens immediately before index
  /// `name_begin` (back to the previous statement/brace boundary).
  std::string return_type_before(std::size_t name_begin, bool* nodiscard) {
    std::size_t b = name_begin;
    int angle = 0;
    while (b > 0) {
      const Token& t = toks_[b - 1];
      if (t.kind == TokenKind::PPLine) break;
      if (t.kind == TokenKind::Punct) {
        if (t.text == ">") {
          ++angle;
        } else if (t.text == "<") {
          if (angle == 0) break;
          --angle;
        } else if (angle == 0 &&
                   (t.text == ";" || t.text == "}" || t.text == "{" ||
                    t.text == "(" || t.text == "," || t.text == ")")) {
          break;
        } else if (angle == 0 && t.text == ":" && b >= 2 &&
                   toks_[b - 2].kind == TokenKind::Ident &&
                   (toks_[b - 2].text == "public" ||
                    toks_[b - 2].text == "private" ||
                    toks_[b - 2].text == "protected")) {
          break;
        }
      }
      --b;
    }
    std::string type;
    bool prev_ident = false;
    for (std::size_t i = b; i < name_begin; ++i) {
      const Token& t = toks_[i];
      if (t.kind == TokenKind::Ident && t.text == "nodiscard") {
        *nodiscard = true;
      }
      if (t.kind == TokenKind::Ident && type_noise().count(t.text) != 0) {
        continue;
      }
      if (is_punct(t, "[") || is_punct(t, "]")) continue;
      if (t.kind == TokenKind::Ident && prev_ident) type += ' ';
      type += t.text;
      prev_ident = t.kind == TokenKind::Ident;
    }
    // Trailing `&`/`*` stay (part of the type); a lone `template` header
    // or empty run means ctor/dtor/no type.
    return type;
  }

  // --------------------------------------------------- statement parser

  /// toks_[open] is "{". Parses the compound; *next is set just past "}".
  Stmt parse_compound(std::size_t open, std::size_t* next) {
    Stmt s;
    s.kind = Stmt::Kind::Compound;
    s.begin = open;
    s.line = toks_[open].line;
    std::size_t i = open + 1;
    while (i < toks_.size() && !is_punct(toks_[i], "}")) {
      std::size_t after = i;
      Stmt child = parse_stmt(i, &after);
      if (after <= i) after = i + 1;  // defensive: always make progress
      i = after;
      if (child.kind != Stmt::Kind::Empty || child.end > child.begin) {
        s.children.push_back(std::move(child));
      }
    }
    *next = i < toks_.size() ? i + 1 : i;
    s.end = *next;
    return s;
  }

  Stmt parse_stmt(std::size_t i, std::size_t* next) {
    Stmt s;
    s.begin = i;
    s.line = toks_[i].line;
    const Token& t = toks_[i];

    if (t.kind == TokenKind::PPLine) {
      *next = i + 1;
      s.end = *next;
      return s;
    }
    if (is_punct(t, ";")) {
      *next = i + 1;
      s.end = *next;
      return s;
    }
    if (is_punct(t, "{")) {
      return parse_compound(i, next);
    }
    if (t.kind == TokenKind::Ident) {
      const std::string& w = t.text;
      if (w == "if") {
        s.kind = Stmt::Kind::If;
        std::size_t j = i + 1;
        if (at_ident(j, "constexpr")) ++j;
        j = parse_head(j, &s);
        std::size_t after = j;
        s.children.push_back(parse_stmt(j, &after));
        if (at_ident(after, "else")) {
          std::size_t after_else = after + 1;
          s.children.push_back(parse_stmt(after + 1, &after_else));
          after = after_else;
        }
        *next = after;
        s.end = after;
        return s;
      }
      if (w == "while" || w == "switch") {
        s.kind = w == "while" ? Stmt::Kind::While : Stmt::Kind::Switch;
        std::size_t j = parse_head(i + 1, &s);
        std::size_t after = j;
        s.children.push_back(parse_stmt(j, &after));
        *next = after;
        s.end = after;
        return s;
      }
      if (w == "for") {
        s.kind = Stmt::Kind::For;
        std::size_t j = parse_head(i + 1, &s);
        for_head_decls(&s);
        std::size_t after = j;
        s.children.push_back(parse_stmt(j, &after));
        *next = after;
        s.end = after;
        return s;
      }
      if (w == "do") {
        s.kind = Stmt::Kind::DoWhile;
        std::size_t after = i + 1;
        s.children.push_back(parse_stmt(i + 1, &after));
        if (at_ident(after, "while")) {
          after = parse_head(after + 1, &s);
          if (at(after, ";")) ++after;
        }
        *next = after;
        s.end = after;
        return s;
      }
      if (w == "try") {
        s.kind = Stmt::Kind::Try;
        std::size_t after = i + 1;
        if (at(after, "{")) {
          s.children.push_back(parse_compound(after, &after));
        }
        while (at_ident(after, "catch")) {
          std::size_t j = after + 1;
          if (at(j, "(")) j = skip_balanced(toks_, j, "(", ")");
          if (at(j, "{")) {
            s.children.push_back(parse_compound(j, &after));
          } else {
            after = j;
            break;
          }
        }
        *next = after;
        s.end = after;
        return s;
      }
      if (w == "case" || w == "default") {
        s.kind = Stmt::Kind::Case;
        std::size_t j = i + 1;
        while (j < toks_.size() && !is_punct(toks_[j], ":") &&
               !is_punct(toks_[j], ";") && !is_punct(toks_[j], "}")) {
          ++j;
        }
        *next = at(j, ":") ? j + 1 : j;
        s.end = *next;
        return s;
      }
      if (w == "return" || w == "co_return") {
        s.kind = Stmt::Kind::Return;
        scan_expression(i, &s);
        *next = s.end;
        return s;
      }
      if (w == "break" || w == "continue") {
        s.kind = w == "break" ? Stmt::Kind::Break : Stmt::Kind::Continue;
        std::size_t j = i + 1;
        if (at(j, ";")) ++j;
        *next = j;
        s.end = j;
        return s;
      }
      if ((w == "public" || w == "private" || w == "protected") &&
          at(i + 1, ":")) {
        *next = i + 2;
        s.end = *next;
        return s;
      }
    }
    // Declaration or expression statement.
    s.kind = Stmt::Kind::Expr;
    scan_expression(i, &s);
    classify_decl(&s);
    *next = s.end;
    return s;
  }

  /// Parse a parenthesized head `(...)` at i and record the range on s.
  /// Returns the index just past ")".
  std::size_t parse_head(std::size_t i, Stmt* s) {
    if (!at(i, "(")) return i;
    const std::size_t close = skip_balanced(toks_, i, "(", ")");
    s->head_begin = i + 1;
    s->head_end = close > 0 ? close - 1 : i + 1;
    return close;
  }

  /// Consume one `...;` statement starting at i, balancing brackets and
  /// extracting nested lambda bodies as their own Functions. Sets s->end.
  void scan_expression(std::size_t i, Stmt* s) {
    int paren = 0, bracket = 0, brace = 0;
    std::size_t j = i;
    while (j < toks_.size()) {
      const Token& t = toks_[j];
      if (t.kind == TokenKind::Punct) {
        if (t.text == "(") {
          ++paren;
        } else if (t.text == ")") {
          if (paren == 0) break;  // tolerate overshoot
          --paren;
        } else if (t.text == "[") {
          const std::size_t past = try_lambda(j);
          if (past != kNpos) {
            j = past;
            continue;
          }
          ++bracket;
        } else if (t.text == "]") {
          if (bracket > 0) --bracket;
        } else if (t.text == "{") {
          ++brace;
        } else if (t.text == "}") {
          if (brace == 0) break;  // end of enclosing compound; no semicolon
          --brace;
        } else if (t.text == ";" && paren == 0 && bracket == 0 &&
                   brace == 0) {
          ++j;
          break;
        }
      }
      ++j;
    }
    s->end = j;
  }

  /// toks_[j] is "[". When it opens a lambda with a body, parse the body
  /// as a nested Function and return the index just past its "}"; kNpos
  /// when this is a plain subscript/attribute.
  std::size_t try_lambda(std::size_t j) {
    const std::size_t intro_end = skip_balanced(toks_, j, "[", "]");
    if (intro_end >= toks_.size()) return kNpos;
    std::size_t k = intro_end;
    if (at(k, "(")) k = skip_balanced(toks_, k, "(", ")");
    // Specifiers and an optional trailing return type.
    while (k < toks_.size()) {
      if (toks_[k].kind == TokenKind::Ident &&
          (post_param_specifiers().count(toks_[k].text) != 0)) {
        ++k;
      } else if (at(k, "->")) {
        ++k;
        while (k < toks_.size() &&
               (toks_[k].kind == TokenKind::Ident || at(k, "::") ||
                at(k, "*") || at(k, "&"))) {
          if (at(k + 1, "<")) {
            const std::size_t past =
                skip_template_args(toks_, k + 1, toks_.size());
            if (past == kNpos) return kNpos;
            k = past;
          } else {
            ++k;
          }
        }
      } else {
        break;
      }
    }
    if (!at(k, "{")) return kNpos;
    Function fn;
    fn.name = "<lambda>";
    fn.qualified = "<lambda>";
    fn.line = toks_[j].line;
    fn.is_lambda = true;
    fn.body_begin = k;
    std::size_t next = 0;
    fn.body = parse_compound(k, &next);
    fn.body_end = next;
    out_.functions.push_back(std::move(fn));
    return next;
  }

  /// Decide whether an Expr statement is a declaration; fill decl_names.
  void classify_decl(Stmt* s) {
    const std::size_t b = s->begin;
    std::size_t e = s->end;
    if (e > b && is_punct(toks_[e - 1], ";")) --e;
    if (e <= b) return;
    if (toks_[b].kind != TokenKind::Ident &&
        !is_punct(toks_[b], "*") && !is_punct(toks_[b], "::")) {
      return;
    }
    if (toks_[b].kind == TokenKind::Ident &&
        stmt_keywords().count(toks_[b].text) != 0) {
      return;
    }
    // First top-level `=`, `(`, `{` — the declarator's initializer — or
    // the end of the statement.
    std::size_t k = b;
    std::size_t stop = e;
    while (k < e) {
      const Token& t = toks_[k];
      if (is_punct(t, "<")) {
        const std::size_t past = skip_template_args(toks_, k, e);
        if (past != kNpos) {
          k = past;
          continue;
        }
      }
      if (is_punct(t, "=") || is_punct(t, "(") || is_punct(t, "{")) {
        stop = k;
        break;
      }
      if (t.kind == TokenKind::Punct && t.text != "::" && t.text != "*" &&
          t.text != "&" && t.text != "&&" && t.text != ">" &&
          t.text != ",") {
        return;  // member access, arithmetic, ... — an expression
      }
      ++k;
    }
    if (stop <= b + 1) return;  // no type tokens before the name
    const Token& name = toks_[stop - 1];
    if (name.kind != TokenKind::Ident ||
        stmt_keywords().count(name.text) != 0) {
      return;
    }
    const Token& before = toks_[stop - 2];
    const bool type_like =
        before.kind == TokenKind::Ident || is_punct(before, ">") ||
        is_punct(before, "*") || is_punct(before, "&") ||
        is_punct(before, "&&");
    if (!type_like) return;
    if (before.kind == TokenKind::Ident &&
        stmt_keywords().count(before.text) != 0) {
      return;
    }
    s->kind = Stmt::Kind::Decl;
    s->decl_names.push_back(name.text);
  }

  /// Range-for `for (auto& x : c)` / classic `for (int i = 0; ...)` — the
  /// head's declared name scopes over the body.
  void for_head_decls(Stmt* s) {
    if (s->head_end <= s->head_begin) return;
    Stmt head;
    head.begin = s->head_begin;
    // Classic for: clause before the first `;`. Range-for: before `:`.
    std::size_t stop = s->head_end;
    for (std::size_t j = s->head_begin; j < s->head_end; ++j) {
      if (is_punct(toks_[j], ";") ||
          (is_punct(toks_[j], ":") && !at(j + 1, ":"))) {
        stop = j;
        break;
      }
    }
    head.end = stop;  // exclusive of the `;` / `:` separator
    classify_decl(&head);
    for (auto& n : head.decl_names) s->decl_names.push_back(std::move(n));
  }

  const std::vector<Token>& toks_;
  ParsedFile out_;
};

}  // namespace

ParsedFile parse_file(const SourceFile& file) {
  return Parser(file.lex.tokens).run();
}

}  // namespace iotls::lint
