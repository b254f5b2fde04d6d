#include "engine/engine_spec.h"

#include <algorithm>
#include <utility>

#include "spec/parser.h"

namespace cdes::engine {
namespace {

size_t SiteCountOf(const ParsedWorkflow& workflow) {
  int max_site = 0;
  for (const AgentDecl& agent : workflow.agents) {
    max_site = std::max(max_site, agent.site);
  }
  return static_cast<size_t>(max_site) + 1;
}

}  // namespace

Result<std::shared_ptr<const EngineSpec>> EngineSpec::FromText(
    std::string spec_text) {
  auto spec = std::shared_ptr<EngineSpec>(new EngineSpec());
  spec->text_ = std::move(spec_text);
  // Validate up front in a scratch context so Submit-time failures cannot
  // happen on shard threads.
  WorkflowContext scratch;
  CDES_ASSIGN_OR_RETURN(ParsedWorkflow parsed,
                        ParseWorkflow(&scratch, spec->text_));
  spec->name_ = parsed.name;
  spec->site_count_ = SiteCountOf(parsed);
  return std::shared_ptr<const EngineSpec>(std::move(spec));
}

Result<ParsedWorkflow> EngineSpec::Materialize(WorkflowContext* ctx) const {
  return ParseWorkflow(ctx, text_);
}

}  // namespace cdes::engine
