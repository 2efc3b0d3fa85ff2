// Scoped parser for iotls-lint v2.
//
// Turns the flat token stream (lexer.hpp) into per-function statement
// trees: function definitions are located structurally (qualified name,
// parameter list, constructor init lists, trailing return types), their
// bodies parsed into a tree of compound / selection / iteration / jump
// statements with token ranges. Lambda bodies nested inside statements are
// extracted as their own Function entries, so a lambda's statements are
// never attributed to the enclosing function.
//
// This is still NOT a conforming C++ parser (no types, no overload
// resolution, no templates beyond balanced skipping). It only needs to be
// faithful enough that the CFG (cfg.hpp) and the dataflow rules
// (rules.cpp) see real statement structure and declaration names across
// the styles used in this tree.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rules.hpp"  // SourceFile

namespace iotls::lint {

/// One statement in a function body. Token ranges are [begin, end) into
/// the owning file's token vector.
struct Stmt {
  enum class Kind {
    Compound,  // { children... }
    If,        // children: then[, else]
    While,     // children: body
    DoWhile,   // children: body
    For,       // children: body
    Switch,    // children: body compound (Case/Default markers inside)
    Case,      // `case X:` / `default:` label marker
    Try,       // children: try-block, catch-blocks...
    Return,    // return / co_return
    Break,
    Continue,
    Decl,      // declaration statement (decl_names non-empty)
    Expr,      // anything else ending in ';'
    Empty,
  };

  Kind kind = Kind::Empty;
  std::size_t begin = 0, end = 0;            // whole statement
  std::size_t head_begin = 0, head_end = 0;  // `(...)` of control statements
  int line = 0;
  std::vector<Stmt> children;
  /// Names introduced by this statement (Decl, or a For's init clause).
  std::vector<std::string> decl_names;
};

/// A parsed function (or extracted lambda) body.
struct Function {
  std::string name;          // last declarator component ("tick", "operator<<")
  std::string qualified;     // as written ("Engine::tick")
  std::string return_type;   // best-effort normalized spelling ("" for ctors)
  int line = 0;              // line of the name token
  std::size_t body_begin = 0, body_end = 0;  // token range of `{...}`
  Stmt body;                 // Kind::Compound
  bool is_lambda = false;
};

/// A function declaration (prototype) seen anywhere in a file; used by the
/// unchecked-result rule to map callee names to status return types.
struct FnDecl {
  std::string name;
  std::string return_type;
  bool nodiscard = false;
  int line = 0;
};

struct ParsedFile {
  std::vector<Function> functions;   // definitions, lambdas included
  std::vector<FnDecl> declarations;  // prototypes AND definitions
};

/// Parse one lexed file. Never throws: unparseable regions are skipped.
ParsedFile parse_file(const SourceFile& file);

}  // namespace iotls::lint
