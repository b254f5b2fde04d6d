#include "guards/verifier.h"

#include <deque>
#include <set>

#include "common/strings.h"
#include "temporal/reduction.h"

namespace cdes {
namespace {

class Explorer {
 public:
  Explorer(WorkflowContext* ctx, const WorkflowSpec& spec,
           const VerifyOptions& options)
      : ctx_(ctx), spec_(spec), options_(options),
        compiled_(CompileWorkflow(ctx, spec)) {}

  Result<VerificationReport> Run() {
    VerificationReport report;
    if (compiled_.impossible()) {
      // Nothing is ever enabled; the empty space is trivially safe.
      report.states_explored = 1;
      return report;
    }
    std::set<Trace> seen;
    std::deque<Trace> frontier = {Trace{}};
    size_t symbol_count = compiled_.symbols().size();
    while (!frontier.empty()) {
      Trace u = frontier.front();
      frontier.pop_front();
      if (!seen.insert(u).second) continue;
      if (seen.size() > options_.max_states) {
        return Status::OutOfRange(
            StrCat("state cap of ", options_.max_states,
                   " hit before the schedule space was covered"));
      }
      ++report.states_explored;

      if (const Dependency* dep = FirstViolated(u); dep != nullptr) {
        report.safety_violations.push_back(
            VerificationReport::SafetyViolation{u, dep->name});
        if (options_.first_failure_only) return report;
        continue;  // do not explore past a violation
      }
      std::vector<EventLiteral> enabled = EnabledNow(u);
      if (u.size() == symbol_count) {
        if (const Dependency* dep = FirstUnsatisfied(u); dep != nullptr) {
          report.liveness_gaps.push_back(
              VerificationReport::LivenessGap{u, dep->name});
          if (options_.first_failure_only) return report;
        }
      }
      for (size_t i = 0; i < enabled.size(); ++i) {
        for (size_t j = 0; j < enabled.size(); ++j) {
          if (i == j || enabled[i].symbol() == enabled[j].symbol()) continue;
          Trace both = u;
          both.push_back(enabled[i]);
          both.push_back(enabled[j]);
          if (FirstViolated(both) != nullptr) {
            report.negation_races.push_back(VerificationReport::NegationRace{
                u, enabled[i], enabled[j]});
            if (options_.first_failure_only) return report;
          }
        }
      }
      for (EventLiteral l : enabled) {
        Trace next = u;
        next.push_back(l);
        frontier.push_back(next);
      }
    }
    return report;
  }

 private:
  const Guard* ReducedGuard(const Trace& u, EventLiteral literal) const {
    const Guard* g = compiled_.GuardFor(literal);
    for (EventLiteral occurred : u) {
      g = ReduceGuard(ctx_->guards(), ctx_->residuator(), g,
                      {AnnouncementKind::kOccurred, occurred});
    }
    return g;
  }

  std::vector<EventLiteral> EnabledNow(const Trace& u) const {
    std::vector<EventLiteral> out;
    for (SymbolId s : compiled_.symbols()) {
      bool decided = false;
      for (EventLiteral l : u) decided |= (l.symbol() == s);
      if (decided) continue;
      for (EventLiteral l :
           {EventLiteral::Positive(s), EventLiteral::Complement(s)}) {
        if (EvaluateNow(ReducedGuard(u, l))) out.push_back(l);
      }
    }
    return out;
  }

  const Dependency* FirstViolated(const Trace& u) const {
    for (const Dependency& dep : spec_.dependencies()) {
      if (ctx_->residuator()->ResiduateTrace(dep.expr, u)->IsZero()) {
        return &dep;
      }
    }
    return nullptr;
  }

  const Dependency* FirstUnsatisfied(const Trace& u) const {
    for (const Dependency& dep : spec_.dependencies()) {
      if (!ctx_->residuator()->ResiduateTrace(dep.expr, u)->IsTop()) {
        return &dep;
      }
    }
    return nullptr;
  }

  WorkflowContext* ctx_;
  const WorkflowSpec& spec_;
  VerifyOptions options_;
  CompiledWorkflow compiled_;
};

}  // namespace

std::string VerificationReport::ToString(const Alphabet& alphabet) const {
  if (ok()) {
    return StrCat("ok (", states_explored, " reachable prefixes explored)");
  }
  std::string out;
  for (const SafetyViolation& v : safety_violations) {
    out += StrCat("safety: prefix ", TraceToString(v.prefix, alphabet),
                  " violates ", v.dependency, "\n");
  }
  for (const NegationRace& r : negation_races) {
    out += StrCat("race: after ", TraceToString(r.prefix, alphabet), ", ",
                  alphabet.LiteralName(r.first), " then ",
                  alphabet.LiteralName(r.second),
                  " violates a dependency while both are enabled\n");
  }
  for (const LivenessGap& gap : liveness_gaps) {
    out += StrCat("liveness: maximal trace ",
                  TraceToString(gap.trace, alphabet), " leaves ",
                  gap.dependency, " unsatisfied\n");
  }
  return out;
}

Result<VerificationReport> VerifyScheduleSpace(WorkflowContext* ctx,
                                               const WorkflowSpec& spec,
                                               const VerifyOptions& options) {
  return Explorer(ctx, spec, options).Run();
}

}  // namespace cdes
