#pragma once
// Per-TU call-graph substrate for the interprocedural analyzer
// (DESIGN.md §12): the DirectiveGraph's regions tied back to the function
// definitions that lexically contain them, plus every call site that can
// carry effects (dispatches, waits, escaping captures) across frames.
//
// The function/call detection itself lives in compilerlib
// (function_scanner.hpp) so the translator's --annotate-sites mode names
// the same frames the static diagnostics do.

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/directive_graph.hpp"
#include "compilerlib/function_scanner.hpp"

namespace evmp::analysis {

/// One call site attributed to its enclosing function.
struct AttributedCall {
  compiler::CallSite site;
  int caller = -1;           ///< index into functions(), -1 at file scope
  bool conditional = false;  ///< lexically under if/else/loop/switch/catch
};

/// Functions, call sites, and directive attribution of one TU.
class CallGraph {
 public:
  explicit CallGraph(const DirectiveGraph& graph);

  [[nodiscard]] const std::vector<compiler::FunctionDef>& functions()
      const noexcept {
    return functions_;
  }
  [[nodiscard]] const std::vector<AttributedCall>& calls() const noexcept {
    return calls_;
  }
  [[nodiscard]] const DirectiveGraph& graph() const noexcept { return *graph_; }

  /// Innermost function definition whose body contains `pos`, or -1.
  [[nodiscard]] int function_at(std::size_t pos) const {
    return compiler::function_at(functions_, pos);
  }

  /// Region nodes (indices into graph().nodes()) directly attributed to
  /// the function — the innermost function containing the directive.
  [[nodiscard]] std::vector<int> regions_of(int function) const;

  /// Execution context of a byte offset: the innermost enclosing target
  /// region's target name. Empty when the position runs on the enclosing
  /// function's own thread, or inside a parallel region (team threads are
  /// not the enclosing target's thread — same rule as
  /// DirectiveGraph::enclosing_target).
  [[nodiscard]] std::string context_target(std::size_t pos) const;

  /// True when the byte is lexically under control flow (if/else/loop/
  /// switch/catch) — the statement may not execute, or not exactly once.
  [[nodiscard]] bool conditional_at(std::size_t pos) const {
    return pos < conditional_.size() && conditional_[pos];
  }

 private:
  const DirectiveGraph* graph_;
  std::vector<compiler::FunctionDef> functions_;
  std::vector<AttributedCall> calls_;
  std::vector<bool> conditional_;
};

}  // namespace evmp::analysis
