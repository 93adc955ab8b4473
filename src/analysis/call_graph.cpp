#include "analysis/call_graph.hpp"

#include <array>
#include <cctype>
#include <string_view>

namespace evmp::analysis {

namespace {

using compiler::CharClass;
using compiler::SourceScanner;

bool is_ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t match_close(const SourceScanner& scanner, std::size_t open,
                        char open_ch, char close_ch) {
  const auto src = scanner.source();
  int depth = 0;
  for (std::size_t i = open; i < src.size(); ++i) {
    if (scanner.at(i) != CharClass::kCode) continue;
    if (src[i] == open_ch) ++depth;
    if (src[i] == close_ch && --depth == 0) return i;
  }
  return std::string_view::npos;
}

/// Mark the dependent statement of a control keyword: the attached
/// `{...}` block, or up to the statement-terminating ';' at depth zero.
void mark_statement(const SourceScanner& scanner, std::size_t from,
                    std::vector<bool>& mask) {
  const auto src = scanner.source();
  const auto start = scanner.next_code_char(from);
  if (!start) return;
  std::size_t end;
  if (src[*start] == '{') {
    end = match_close(scanner, *start, '{', '}');
  } else {
    end = std::string_view::npos;
    int depth = 0;
    for (std::size_t i = *start; i < src.size(); ++i) {
      if (scanner.at(i) != CharClass::kCode) continue;
      const char c = src[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c == ';' && depth == 0) {
        end = i;
        break;
      }
    }
  }
  if (end == std::string_view::npos) return;
  for (std::size_t i = *start; i <= end && i < mask.size(); ++i) {
    mask[i] = true;
  }
}

/// Conditional-byte mask: every byte lexically under if/else/for/while/
/// do/switch/catch. Matches the spirit of capture_analysis's access
/// classification — such a statement may run zero times (or, for loops,
/// a data-dependent number of times).
std::vector<bool> conditional_mask(const SourceScanner& scanner) {
  static constexpr std::array<std::string_view, 7> kKeywords = {
      "if", "else", "for", "while", "do", "switch", "catch"};
  const auto src = scanner.source();
  std::vector<bool> mask(src.size(), false);
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (scanner.at(i) != CharClass::kCode || !is_ident_char(src[i])) continue;
    if (i > 0 && scanner.at(i - 1) == CharClass::kCode &&
        is_ident_char(src[i - 1])) {
      continue;
    }
    std::size_t e = i;
    while (e < src.size() && scanner.at(e) == CharClass::kCode &&
           is_ident_char(src[e])) {
      ++e;
    }
    const std::string_view word = src.substr(i, e - i);
    bool control = false;
    for (const std::string_view k : kKeywords) control |= (word == k);
    if (!control) {
      i = e - 1;
      continue;
    }
    std::size_t body_from = e;
    if (word != "else" && word != "do") {
      const auto open = scanner.next_code_char(e);
      if (!open || src[*open] != '(') {
        i = e - 1;
        continue;
      }
      const std::size_t close = match_close(scanner, *open, '(', ')');
      if (close == std::string_view::npos) {
        i = e - 1;
        continue;
      }
      body_from = close + 1;
    }
    mark_statement(scanner, body_from, mask);
    i = e - 1;
  }
  return mask;
}

}  // namespace

CallGraph::CallGraph(const DirectiveGraph& graph)
    : graph_(&graph),
      functions_(compiler::scan_functions(graph.scanner())),
      conditional_(conditional_mask(graph.scanner())) {
  const auto src = graph.scanner().source();
  for (compiler::CallSite& site :
       compiler::scan_calls(graph.scanner(), 0, src.size())) {
    AttributedCall call;
    call.caller = compiler::function_at(functions_, site.pos);
    call.conditional = conditional_at(site.pos);
    call.site = std::move(site);
    calls_.push_back(std::move(call));
  }
}

std::vector<int> CallGraph::regions_of(int function) const {
  std::vector<int> out;
  if (function < 0 ||
      function >= static_cast<int>(functions_.size())) {
    return out;
  }
  const auto& nodes = graph_->nodes();
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    const std::size_t pos = nodes[static_cast<std::size_t>(i)].directive_begin;
    if (function_at(pos) == function) out.push_back(i);
  }
  return out;
}

std::string CallGraph::context_target(std::size_t pos) const {
  const auto& nodes = graph_->nodes();
  int innermost = -1;
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    const RegionNode& node = nodes[static_cast<std::size_t>(i)];
    if (node.block_end == 0) continue;  // standalone wait: no block
    if (node.block_begin <= pos && pos < node.block_end) {
      if (innermost < 0 ||
          node.block_begin >
              nodes[static_cast<std::size_t>(innermost)].block_begin) {
        innermost = i;
      }
    }
  }
  if (innermost < 0) return {};
  const compiler::Directive& d =
      nodes[static_cast<std::size_t>(innermost)].directive;
  if (d.kind != compiler::Directive::Kind::kTarget) return {};  // parallel
  return d.target_name();
}

}  // namespace evmp::analysis
