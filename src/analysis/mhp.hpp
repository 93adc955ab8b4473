#pragma once
// May-happen-in-parallel (MHP) relation over a DirectiveGraph.
//
// Two target regions are MHP unless the analysis can prove an ordering:
//
//   * lexical containment — a region and its (transitive) lexical
//     ancestors are treated as ordered (the ancestor dispatched it);
//   * a blocking-mode dispatch — a kDefault or kAwait region completes
//     at its dispatch site, so everything the dispatching context runs
//     afterwards is ordered after the whole region (`await` pumps, but
//     it still does not continue past the barrier);
//   * a wait(tag) join — a name_as(tag) region completes before any
//     point that is ordered after a matching `wait(tag)` directive.
//
// The relation is transitive through dispatch chains: orderings recurse
// through the completing region's own context (e.g. a name_as block
// joined by a wait *inside* an await region is ordered before anything
// that follows the await region). `nowait` regions are never ordered
// with anything outside their own body. Traditional parallel /
// parallel-for regions are fork-join: they complete in place.
//
// This is the foundation of the E4/W3 data-race rules (analyzer.cpp)
// and the relation the distributed-target verifier (ROADMAP item 3)
// will extend across processes.

#include <cstddef>
#include <vector>

#include "analysis/directive_graph.hpp"

namespace evmp::analysis {

class MhpRelation {
 public:
  /// Precomputes target-context chains. The graph must outlive the
  /// relation.
  explicit MhpRelation(const DirectiveGraph& graph);

  /// True when `outer` is a lexical ancestor of `inner`.
  [[nodiscard]] bool is_ancestor(int outer, int inner) const;

  /// True when every access inside region `node` happens-before
  /// execution reaching byte `pos`, where `pos` lies in the direct body
  /// of region `ctx` (-1 = file scope). Conservative: false means
  /// "cannot prove ordering", not "definitely racy".
  [[nodiscard]] bool completes_before(int node, int ctx,
                                      std::size_t pos) const;

  /// Region-granular MHP: false when the regions are ordered by
  /// containment or either completes before the other's dispatch point.
  /// MHP(a, a) is defined false (one region instance is sequential;
  /// loop-dispatched sibling instances are out of scope for the static
  /// rules).
  [[nodiscard]] bool may_happen_in_parallel(int a, int b) const;

 private:
  [[nodiscard]] bool point_hb(int from_ctx, std::size_t from_pos, int to_ctx,
                              std::size_t to_pos,
                              std::vector<int>& visiting) const;
  [[nodiscard]] bool completes_before_impl(int node, int to_ctx,
                                           std::size_t to_pos,
                                           std::vector<int>& visiting) const;

  const DirectiveGraph* graph_;
  /// node -> nearest kTarget ancestor (or -1). Unlike
  /// DirectiveGraph::enclosing_target, traditional parallel regions are
  /// transparent: the walk follows lexical execution contexts.
  std::vector<int> tctx_;
};

}  // namespace evmp::analysis
