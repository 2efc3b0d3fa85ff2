#include "cfg.hpp"

#include <utility>

namespace iotls::lint {

namespace {

class Builder {
 public:
  explicit Builder(const Function& fn) : fn_(fn) {
    cfg_.nodes.resize(2);
    cfg_.nodes[0].kind = CfgNode::Kind::Entry;
    cfg_.nodes[1].kind = CfgNode::Kind::Exit;
    cfg_.entry = 0;
    cfg_.exit = 1;
  }

  Cfg build() {
    std::vector<int> exits = emit(fn_.body, {cfg_.entry});
    connect(exits, cfg_.exit);
    return std::move(cfg_);
  }

 private:
  struct JumpCtx {
    std::vector<int>* breaks = nullptr;
    std::vector<int>* continues = nullptr;  // null inside switch
    std::size_t scope_depth = 0;
  };

  int add(CfgNode::Kind kind, const Stmt* s, int line) {
    CfgNode node;
    node.kind = kind;
    node.stmt = s;
    node.line = line;
    cfg_.nodes.push_back(std::move(node));
    return static_cast<int>(cfg_.nodes.size()) - 1;
  }

  void connect(const std::vector<int>& preds, int node) {
    for (const int p : preds) cfg_.nodes[p].succ.push_back(node);
  }

  /// Names declared in scopes strictly deeper than `from_depth`.
  std::vector<std::string> names_from(std::size_t from_depth) const {
    std::vector<std::string> out;
    for (std::size_t d = from_depth; d < scopes_.size(); ++d) {
      out.insert(out.end(), scopes_[d].begin(), scopes_[d].end());
    }
    return out;
  }

  /// The statement's node, entered from every node in `preds`.
  int stmt_node(const Stmt& s, const std::vector<int>& preds) {
    const int node = add(CfgNode::Kind::Stmt, &s, s.line);
    connect(preds, node);
    return node;
  }

  /// Emit `s`; `preds` flow into it. Returns the dangling exits.
  std::vector<int> emit(const Stmt& s, std::vector<int> preds) {
    switch (s.kind) {
      case Stmt::Kind::Compound:
        return emit_compound(s, std::move(preds), nullptr, nullptr);
      case Stmt::Kind::If: {
        const int head = stmt_node(s, preds);
        std::vector<int> exits;
        if (!s.children.empty()) {
          const std::vector<int> then_exits = emit(s.children[0], {head});
          exits.insert(exits.end(), then_exits.begin(), then_exits.end());
        }
        if (s.children.size() > 1) {
          const std::vector<int> else_exits = emit(s.children[1], {head});
          exits.insert(exits.end(), else_exits.begin(), else_exits.end());
        } else {
          exits.push_back(head);  // condition-false path
        }
        return exits;
      }
      case Stmt::Kind::While:
      case Stmt::Kind::DoWhile: {
        const int head = stmt_node(s, preds);
        std::vector<int> breaks, continues;
        jumps_.push_back({&breaks, &continues, scopes_.size()});
        std::vector<int> body_exits;
        if (!s.children.empty()) body_exits = emit(s.children[0], {head});
        jumps_.pop_back();
        body_exits.insert(body_exits.end(), continues.begin(),
                          continues.end());
        connect(body_exits, head);  // back edge
        std::vector<int> exits = {head};
        exits.insert(exits.end(), breaks.begin(), breaks.end());
        return exits;
      }
      case Stmt::Kind::For: {
        const int head = stmt_node(s, preds);
        scopes_.push_back(s.decl_names);
        std::vector<int> breaks, continues;
        jumps_.push_back({&breaks, &continues, scopes_.size()});
        std::vector<int> body_exits;
        if (!s.children.empty()) body_exits = emit(s.children[0], {head});
        jumps_.pop_back();
        body_exits.insert(body_exits.end(), continues.begin(),
                          continues.end());
        connect(body_exits, head);  // back edge
        std::vector<int> exits = {head};
        exits.insert(exits.end(), breaks.begin(), breaks.end());
        const std::vector<std::string> dying = scopes_.back();
        scopes_.pop_back();
        if (!dying.empty()) {
          const int death = add(CfgNode::Kind::ScopeExit, nullptr, s.line);
          cfg_.nodes[death].dying = dying;
          connect(exits, death);
          return {death};
        }
        return exits;
      }
      case Stmt::Kind::Switch: {
        const int head = stmt_node(s, preds);
        std::vector<int> breaks;
        jumps_.push_back({&breaks, nullptr, scopes_.size()});
        std::vector<int> exits;
        bool has_default = false;
        if (!s.children.empty() &&
            s.children[0].kind == Stmt::Kind::Compound) {
          exits = emit_compound(s.children[0], {}, &head, &has_default);
        } else if (!s.children.empty()) {
          exits = emit(s.children[0], {head});
        }
        jumps_.pop_back();
        exits.insert(exits.end(), breaks.begin(), breaks.end());
        if (!has_default) exits.push_back(head);
        return exits;
      }
      case Stmt::Kind::Try: {
        std::vector<int> exits;
        if (!s.children.empty()) {
          const std::vector<int> entry_preds = preds;
          std::vector<int> try_exits = emit(s.children[0], preds);
          for (std::size_t i = 1; i < s.children.size(); ++i) {
            // A handler may run after any prefix of the try block;
            // entry + exit preds is the conservative may-approximation.
            std::vector<int> catch_preds = entry_preds;
            catch_preds.insert(catch_preds.end(), try_exits.begin(),
                               try_exits.end());
            const std::vector<int> catch_exits =
                emit(s.children[i], std::move(catch_preds));
            exits.insert(exits.end(), catch_exits.begin(),
                         catch_exits.end());
          }
          exits.insert(exits.end(), try_exits.begin(), try_exits.end());
        }
        return exits;
      }
      case Stmt::Kind::Return: {
        const int node = stmt_node(s, preds);
        route_out(node, 0, cfg_.exit);
        return {};
      }
      case Stmt::Kind::Break:
      case Stmt::Kind::Continue: {
        const int node = stmt_node(s, preds);
        for (auto it = jumps_.rbegin(); it != jumps_.rend(); ++it) {
          const bool wants_continue = s.kind == Stmt::Kind::Continue;
          std::vector<int>* sink = wants_continue ? it->continues
                                                  : it->breaks;
          if (sink == nullptr) continue;  // continue passes through switch
          const int out = route_scope_exit(node, it->scope_depth, s.line);
          sink->push_back(out);
          break;
        }
        return {};
      }
      case Stmt::Kind::Case:
      case Stmt::Kind::Decl:
      case Stmt::Kind::Expr: {
        const int node = stmt_node(s, preds);
        if (s.kind == Stmt::Kind::Decl && !scopes_.empty()) {
          for (const auto& n : s.decl_names) scopes_.back().push_back(n);
        }
        return {node};
      }
      case Stmt::Kind::Empty:
        return preds;
    }
    return preds;
  }

  /// Emit a compound. When `switch_head` is non-null the compound is a
  /// switch body: every Case label also receives an edge from the head,
  /// and *has_default reports whether a `default:` was seen.
  std::vector<int> emit_compound(const Stmt& s, std::vector<int> preds,
                                 const int* switch_head, bool* has_default) {
    scopes_.emplace_back();
    for (const Stmt& child : s.children) {
      if (switch_head != nullptr && child.kind == Stmt::Kind::Case) {
        preds.push_back(*switch_head);
        if (has_default != nullptr && child.begin < child.end) {
          // `default` has no expression between keyword and ":".
          if (child.end == child.begin + 2) *has_default = true;
        }
      }
      preds = emit(child, std::move(preds));
    }
    const std::vector<std::string> dying = scopes_.back();
    scopes_.pop_back();
    if (!dying.empty() && !preds.empty()) {
      const int death = add(CfgNode::Kind::ScopeExit, nullptr, s.line);
      cfg_.nodes[death].dying = dying;
      connect(preds, death);
      return {death};
    }
    return preds;
  }

  /// Chain `node` through a ScopeExit killing everything deeper than
  /// `from_depth`, then into `target`.
  void route_out(int node, std::size_t from_depth, int target) {
    const int out = route_scope_exit(node, from_depth,
                                     cfg_.nodes[node].line);
    cfg_.nodes[out].succ.push_back(target);
  }

  /// Returns `node`, or a ScopeExit successor of it when names die.
  int route_scope_exit(int node, std::size_t from_depth, int line) {
    const std::vector<std::string> dying = names_from(from_depth);
    if (dying.empty()) return node;
    const int death = add(CfgNode::Kind::ScopeExit, nullptr, line);
    cfg_.nodes[death].dying = dying;
    cfg_.nodes[node].succ.push_back(death);
    return death;
  }

  const Function& fn_;
  Cfg cfg_;
  std::vector<std::vector<std::string>> scopes_;
  std::vector<JumpCtx> jumps_;
};

}  // namespace

Cfg build_cfg(const Function& fn) { return Builder(fn).build(); }

}  // namespace iotls::lint
