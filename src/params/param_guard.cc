#include "params/param_guard.h"

#include <algorithm>

#include "common/strings.h"

namespace cdes {

PGuard PGuard::Box(PAtom atom) {
  PGuard g(Kind::kBox);
  g.atom_ = std::move(atom);
  return g;
}

PGuard PGuard::Neg(PAtom atom) {
  PGuard g(Kind::kNeg);
  g.atom_ = std::move(atom);
  return g;
}

PGuard PGuard::Diamond(PExpr expr) {
  PGuard g(Kind::kDiamond);
  g.expr_ = std::move(expr);
  return g;
}

PGuard PGuard::And(std::vector<PGuard> children) {
  PGuard g(Kind::kAnd);
  g.children_ = std::move(children);
  return g;
}

PGuard PGuard::Or(std::vector<PGuard> children) {
  PGuard g(Kind::kOr);
  g.children_ = std::move(children);
  return g;
}

PGuard PGuard::Substitute(const Binding& binding) const {
  PGuard out = *this;
  out.atom_ = atom_.Substitute(binding);
  out.expr_ = expr_.Substitute(binding);
  for (PGuard& c : out.children_) c = c.Substitute(binding);
  return out;
}

std::set<std::string> PGuard::FreeVars() const {
  std::set<std::string> out;
  switch (kind_) {
    case Kind::kBox:
    case Kind::kNeg:
      return atom_.Vars();
    case Kind::kDiamond:
      return expr_.FreeVars();
    default:
      break;
  }
  for (const PGuard& c : children_) {
    std::set<std::string> inner = c.FreeVars();
    out.insert(inner.begin(), inner.end());
  }
  return out;
}

std::vector<PAtom> PGuard::Atoms() const {
  std::vector<PAtom> out;
  switch (kind_) {
    case Kind::kBox:
    case Kind::kNeg:
      out.push_back(atom_);
      return out;
    case Kind::kDiamond:
      return expr_.Atoms();
    default:
      break;
  }
  for (const PGuard& c : children_) {
    std::vector<PAtom> inner = c.Atoms();
    out.insert(out.end(), inner.begin(), inner.end());
  }
  return out;
}

Result<const Guard*> PGuard::Ground(WorkflowContext* ctx) const {
  switch (kind_) {
    case Kind::kFalse:
      return ctx->guards()->False();
    case Kind::kTrue:
      return ctx->guards()->True();
    case Kind::kBox:
    case Kind::kNeg: {
      if (!atom_.IsGround()) {
        return Status::FailedPrecondition("guard template has free variables");
      }
      SymbolId symbol = ctx->alphabet()->Intern(atom_.GroundName());
      EventLiteral lit(symbol, atom_.complemented);
      return kind_ == Kind::kBox ? ctx->guards()->Box(lit)
                                 : ctx->guards()->Neg(lit);
    }
    case Kind::kDiamond: {
      CDES_ASSIGN_OR_RETURN(const Expr* e,
                            expr_.Ground(ctx->alphabet(), ctx->exprs()));
      return ctx->guards()->Diamond(e);
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<const Guard*> kids;
      kids.reserve(children_.size());
      for (const PGuard& c : children_) {
        CDES_ASSIGN_OR_RETURN(const Guard* k, c.Ground(ctx));
        kids.push_back(k);
      }
      return kind_ == Kind::kAnd ? ctx->guards()->And(kids)
                                 : ctx->guards()->Or(kids);
    }
  }
  return Status::Internal("unreachable");
}

Result<ParamGuardInstance> ParamGuardInstance::Create(WorkflowContext* ctx,
                                                      PGuard guard_template) {
  std::set<std::string> vars = guard_template.FreeVars();
  for (const PAtom& atom : guard_template.Atoms()) {
    if (atom.Vars() != vars && !atom.Vars().empty()) {
      return Status::InvalidArgument(StrCat(
          "template atom ", atom.event,
          " does not carry the full free-variable tuple; instances would be "
          "ambiguous"));
    }
  }
  return ParamGuardInstance(ctx, std::move(guard_template),
                            std::vector<std::string>(vars.begin(),
                                                     vars.end()));
}

ParamGuardInstance::ParamGuardInstance(WorkflowContext* ctx,
                                       PGuard guard_template,
                                       std::vector<std::string> free_vars)
    : ctx_(ctx), template_(std::move(guard_template)),
      free_vars_(std::move(free_vars)) {}

Status ParamGuardInstance::OnAnnouncement(const std::string& event,
                                          bool complemented,
                                          const std::vector<ParamValue>& args,
                                          AnnouncementKind kind) {
  // The ground literal of this announcement (the mangled symbol name is
  // polarity-free; the literal carries the polarity).
  PAtom positive{event, false, {}};
  for (ParamValue v : args) positive.args.push_back(PTerm::Val(v));
  SymbolId announced_symbol = ctx_->alphabet()->Intern(positive.GroundName());
  EventLiteral announced(announced_symbol, complemented);

  // Materialize instances for every full binding the occurrence determines.
  // The announcement bears on template atoms of the same event name in
  // either polarity (□f affects ¬f, ◇f̄, etc.; the reduction rules sort out
  // which), so unification ignores polarity.
  for (const PAtom& atom : template_.Atoms()) {
    Binding binding;
    PAtom pattern{atom.event, complemented, atom.args};
    if (!UnifyAtom(pattern, event, complemented, args, &binding)) continue;
    std::vector<ParamValue> key;
    key.reserve(free_vars_.size());
    bool full = true;
    for (const std::string& v : free_vars_) {
      auto it = binding.find(v);
      if (it == binding.end()) {
        full = false;
        break;
      }
      key.push_back(it->second);
    }
    if (!full) continue;
    if (!instances_.count(key)) {
      Binding full_binding;
      for (size_t i = 0; i < free_vars_.size(); ++i) {
        full_binding[free_vars_[i]] = key[i];
      }
      CDES_ASSIGN_OR_RETURN(const Guard* ground,
                            template_.Substitute(full_binding).Ground(ctx_));
      // Late materialization: bring the fresh instance up to date with the
      // past announcements of the symbols it mentions, in arrival order (a
      // previously collected instance may be re-created here; the replay
      // restores its state exactly).
      std::vector<LoggedAnnouncement> relevant;
      for (SymbolId s : GuardSymbols(ground)) {
        auto it = history_.find(s);
        if (it == history_.end()) continue;
        relevant.insert(relevant.end(), it->second.begin(), it->second.end());
      }
      std::sort(relevant.begin(), relevant.end(),
                [](const LoggedAnnouncement& a, const LoggedAnnouncement& b) {
                  return a.seq < b.seq;
                });
      for (const LoggedAnnouncement& past : relevant) {
        ground = ReduceGuard(ctx_->guards(), ctx_->residuator(), ground,
                             {past.kind, past.literal});
      }
      if (!ground->IsTrue()) instances_.emplace(std::move(key), ground);
    }
  }
  // Log, then reduce every live instance by the announcement; instances
  // that reach the constant ⊤ can never block again and are collected.
  history_[announced_symbol].push_back(
      LoggedAnnouncement{history_seq_++, announced, kind});
  for (auto it = instances_.begin(); it != instances_.end();) {
    it->second = ReduceGuard(ctx_->guards(), ctx_->residuator(), it->second,
                             {kind, announced});
    if (it->second->IsTrue()) {
      it = instances_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

bool ParamGuardInstance::EnabledNow() const {
  // Fresh instances: the template at any untouched binding has seen no
  // occurrences, so its ground form evaluated with zero knowledge decides
  // the "for all other y" part. Use a binding disjoint from all seen keys.
  ParamValue fresh = -1;
  for (const auto& [key, guard] : instances_) {
    for (ParamValue v : key) fresh = std::min(fresh, v - 1);
  }
  Binding fresh_binding;
  for (const std::string& v : free_vars_) fresh_binding[v] = fresh--;
  Result<const Guard*> ground =
      template_.Substitute(fresh_binding).Ground(ctx_);
  CDES_CHECK(ground.ok()) << ground.status();
  if (!EvaluateNow(ground.value())) return false;
  for (const auto& [key, guard] : instances_) {
    if (!EvaluateNow(guard)) return false;
  }
  return true;
}

size_t ParamGuardInstance::blocking_instance_count() const {
  size_t n = 0;
  for (const auto& [key, guard] : instances_) {
    if (!EvaluateNow(guard)) ++n;
  }
  return n;
}

const Guard* ParamGuardInstance::InstanceGuard(
    const std::vector<ParamValue>& key) const {
  auto it = instances_.find(key);
  return it == instances_.end() ? nullptr : it->second;
}

}  // namespace cdes
