// Control-flow graph over a parsed function (parse.hpp).
//
// Each statement becomes a node. Leaving a lexical scope — by falling off
// a compound, or jumping out via break / continue / return — inserts a
// ScopeExit node naming the locals whose lifetime ends, so dataflow facts
// tied to a local (secret-taint's tainted names) die precisely on every
// path.
#pragma once

#include <string>
#include <vector>

#include "parse.hpp"

namespace iotls::lint {

struct CfgNode {
  enum class Kind { Entry, Exit, Stmt, ScopeExit };
  Kind kind = Kind::Stmt;
  const Stmt* stmt = nullptr;          // Stmt
  int line = 0;
  std::vector<std::string> dying;      // ScopeExit: names leaving scope
  std::vector<int> succ;
};

struct Cfg {
  std::vector<CfgNode> nodes;
  int entry = 0;
  int exit = 1;
};

/// Build the CFG for one function. The Stmt pointers alias fn.body — the
/// Function must outlive the Cfg.
Cfg build_cfg(const Function& fn);

}  // namespace iotls::lint
