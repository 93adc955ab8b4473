#pragma once
// Per-function effect summaries, propagated bottom-up over the call
// graph's strongly connected components (DESIGN.md §12).
//
// A FunctionSummary is the lattice join of everything a call to the
// function can do, directly or through further calls:
//
//   dispatches     target dispatches executed during the call (target
//                  name, async mode, name_as tag), with the call path
//                  from the summarized function down to the directive
//   waits          wait(tag) joins executed during the call
//   param_escapes  by-ref/pointer parameters captured by an asynchronous
//                  (nowait/name_as) region inside the call — the caller's
//                  object outlives the call's own frame only if the
//                  *caller* keeps it alive until the dispatch completes
//
// The table is whole-program: built over one TU for `evmpcc --analyze
// file.cpp`, or over every TU of a multi-file invocation, linking
// identically named functions across files. Same-named definitions merge
// conservatively (their effects union); mutually recursive SCCs share one
// joined summary. Effects are deduplicated by their directive site, so
// summaries stay bounded on deep or cyclic call structures.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/call_graph.hpp"
#include "analysis/capture_analysis.hpp"
#include "core/async_mode.hpp"

namespace evmp::analysis {

/// One frame of a call path: the caller invokes `callee` at file:line.
struct CallFrame {
  std::string callee;
  std::string file;  ///< empty in single-TU mode
  int line = 0;
};

/// "entry -> g (a.cpp:10) -> h (b.cpp:5)" — each frame is the call site
/// inside the previous function.
[[nodiscard]] std::string render_call_path(std::string_view entry,
                                           const std::vector<CallFrame>& path);

/// The identifier an argument expression plainly names (`x`, `&x`), or
/// empty for anything more complex — the escape mapping only follows
/// arguments whose aliasing is certain.
[[nodiscard]] std::string bare_identifier_arg(std::string_view arg);

/// A target dispatch reachable from a call to the summarized function.
struct SummaryDispatch {
  std::string target;
  Async mode = Async::kDefault;
  std::string tag;             ///< name_as tag, when mode == kNameAs
  std::string file;            ///< directive location
  int line = 0;
  bool conditional = false;    ///< under control flow somewhere on the path
  std::vector<CallFrame> path; ///< empty when the directive is direct
};

/// A wait(tag) join reachable from a call to the summarized function.
struct SummaryWait {
  std::string tag;
  std::string file;
  int line = 0;
  std::vector<CallFrame> path;
};

/// A by-ref parameter escaping into an asynchronous region.
struct ParamEscape {
  std::size_t param = 0;       ///< positional index in the callee's list
  std::string param_name;
  std::string target;
  Async mode = Async::kNowait;
  std::string tag;
  std::string file;            ///< dispatch directive location
  int line = 0;
  bool conditional = false;
  std::vector<CallFrame> path;
};

struct FunctionSummary {
  std::vector<SummaryDispatch> dispatches;
  std::vector<SummaryWait> waits;
  std::vector<ParamEscape> param_escapes;
};

/// One TU's analysis inputs, as the table consumes them.
struct TuView {
  const CallGraph* cg = nullptr;
  const std::vector<RegionAccesses>* captures = nullptr;
  std::string file;  ///< empty in single-TU mode
};

/// Whole-program summary table, keyed by function name.
class SummaryTable {
 public:
  explicit SummaryTable(const std::vector<TuView>& tus);

  /// Summary of a *defined* function, or nullptr for unknown names.
  [[nodiscard]] const FunctionSummary* summary(const std::string& name) const;

  /// First observed call site of `name` (callee field holds the *calling*
  /// function's name, or "<file scope>"); nullptr when never called.
  [[nodiscard]] const CallFrame* first_caller(const std::string& name) const;

 private:
  std::map<std::string, FunctionSummary> summaries_;
  std::map<std::string, CallFrame> callers_;
};

}  // namespace evmp::analysis
