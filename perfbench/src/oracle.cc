#include "oracle.h"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string_view>

#include "algebra/trace.h"
#include "spec/parser.h"

namespace perfbench {
namespace {

/// A rendered trace is "<a ~b c>"; the literal list sits inside the
/// brackets.
std::string_view Inner(std::string_view history) {
  if (history.size() >= 2 && history.front() == '<' && history.back() == '>') {
    history = history.substr(1, history.size() - 2);
  }
  return history;
}

}  // namespace

HistoryOracle::HistoryOracle(const std::string& spec_text)
    : ctx_(std::make_unique<cdes::WorkflowContext>()) {
  auto parsed = cdes::ParseWorkflow(ctx_.get(), spec_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "oracle: spec does not parse: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(1);
  }
  workflow_ = std::move(parsed).value();
  compiled_ = std::make_unique<cdes::CompiledWorkflow>(
      cdes::CompileWorkflow(ctx_.get(), workflow_.spec));
}

void HistoryOracle::Observe(const cdes::engine::InstanceResult& result,
                            bool closed) {
  ++observed_;
  if (!result.error.empty() || !result.consistent ||
      (closed && !result.maximal)) {
    ++failed_;
    return;
  }
  ++pending_[{result.history, result.maximal}];
}

bool HistoryOracle::ParseHistory(const std::string& history,
                                 cdes::Trace* out) const {
  out->clear();
  std::string_view rest = Inner(history);
  while (!rest.empty()) {
    size_t space = rest.find(' ');
    std::string_view token = rest.substr(0, space);
    if (!token.empty()) {
      auto literal = ctx_->alphabet()->ParseLiteral(token);
      if (!literal.ok()) return false;
      out->push_back(literal.value());
    }
    if (space == std::string_view::npos) break;
    rest.remove_prefix(space + 1);
  }
  return true;
}

bool HistoryOracle::CheckHistory(const std::string& history,
                                 bool maximal) const {
  cdes::Trace u;
  if (!ParseHistory(history, &u) || !cdes::IsValidTrace(u)) return false;
  if (!maximal) return true;
  std::set<cdes::SymbolId> decided;
  for (cdes::EventLiteral literal : u) decided.insert(literal.symbol());
  for (cdes::SymbolId symbol : compiled_->symbols()) {
    if (decided.count(symbol) == 0) return false;
  }
  return cdes::SatisfiesAll(workflow_.spec, u) && compiled_->Generates(u);
}

uint64_t HistoryOracle::Finish() {
  for (const auto& [key, count] : pending_) {
    if (!CheckHistory(key.first, key.second)) failed_ += count;
  }
  pending_.clear();
  return failed_;
}

bool ExtendsPrefix(const std::string& full_history,
                   const std::string& prefix_history) {
  std::string_view full = Inner(full_history);
  std::string_view prefix = Inner(prefix_history);
  if (prefix.empty()) return true;
  if (full.substr(0, prefix.size()) != prefix) return false;
  return full.size() == prefix.size() || full[prefix.size()] == ' ';
}

}  // namespace perfbench
