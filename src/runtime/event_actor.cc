#include "runtime/event_actor.h"

#include <algorithm>

#include "algebra/semantics.h"
#include "sim/simulator.h"
#include "temporal/guard_needs.h"
#include "temporal/reduction.h"

namespace cdes {

EventActor::EventActor(ActorHost* host, WorkflowContext* ctx, SymbolId symbol,
                       int site,
                       const Guard* positive_guard,
                       const Guard* negative_guard,
                       const EventAttributes& positive_attrs,
                       const EventAttributes& negative_attrs,
                       const obs::ActorObs* obs)
    : host_(host), ctx_(ctx), symbol_(symbol), site_(site),
      positive_guard_(positive_guard), negative_guard_(negative_guard),
      positive_attrs_(positive_attrs), negative_attrs_(negative_attrs),
      obs_(obs) {}

const Guard* EventActor::HeardResidual(EventLiteral literal) const {
  // The stamp-order fold, every step a ReductionCache probe once warm.
  const Guard* g = CompiledGuard(literal);
  for (const auto& [stamp, occurred] : heard_) {
    g = Reduce(g, {AnnouncementKind::kOccurred, occurred});
  }
  return g;
}

const Guard* EventActor::CurrentGuard(EventLiteral literal) const {
  if (obs_ != nullptr && obs_->reduction_steps != nullptr) {
    obs_->reduction_steps->Observe(heard_.size() + promises_.size());
  }
  if (profile_ != nullptr) {
    const std::vector<GuardProfile::Contribution>& contribs =
        literal.complemented() ? profile_->negative : profile_->positive;
    if (!contribs.empty()) {
      std::vector<const Guard*> reduced;
      reduced.reserve(contribs.size());
      for (const GuardProfile::Contribution& c : contribs) {
        bool sampled = profile_->profiler->BeginEvaluation(c.site);
        uint64_t t0 = sampled ? obs::ProfilerNowNs() : 0;
        uint64_t steps0 = ctx_->residuator()->residuate_calls();
        uint64_t nodes = 0;
        reduced.push_back(ReduceContribution(c.guard, &nodes));
        profile_->profiler->Record(
            c.site, ctx_->residuator()->residuate_calls() - steps0, nodes,
            sampled ? obs::ProfilerNowNs() - t0 : 0, sampled);
      }
      // And() re-canonicalizes to the same node the unprofiled fold below
      // yields; DischargeDiamonds cost is not attributed to any one site.
      return DischargeDiamonds(ctx_->guards()->And(reduced));
    }
  }
  size_t slot = literal.complemented() ? 1 : 0;
  if (current_memo_version_[slot] == version_) return current_memo_[slot];
  const Guard* g = HeardResidual(literal);
  for (const auto& [promised, after] : promises_) {
    g = Reduce(g, {AnnouncementKind::kPromised, promised});
  }
  g = DischargeDiamonds(g);
  current_memo_[slot] = g;
  current_memo_version_[slot] = version_;
  return g;
}

const Guard* EventActor::ReduceContribution(const Guard* g,
                                            uint64_t* nodes) const {
  for (const auto& [stamp, occurred] : heard_) {
    g = ReduceGuardCounted(ctx_->guards(), ctx_->residuator(), g,
                           {AnnouncementKind::kOccurred, occurred}, nodes);
  }
  for (const auto& [promised, after] : promises_) {
    g = ReduceGuardCounted(ctx_->guards(), ctx_->residuator(), g,
                           {AnnouncementKind::kPromised, promised}, nodes);
  }
  return g;
}

const Guard* EventActor::DischargeDiamonds(const Guard* g) const {
  if (promises_.empty()) return g;
  switch (g->kind()) {
    case GuardKind::kFalse:
    case GuardKind::kTrue:
    case GuardKind::kBox:
    case GuardKind::kNeg:
      return g;
    case GuardKind::kDiamond: {
      const Expr* e = g->expr();
      // The promised literals that matter: those the residual mentions.
      std::set<EventLiteral> expr_atoms;
      CollectExprAtoms(e, &expr_atoms);
      std::vector<EventLiteral> relevant;
      for (const auto& [promised, after] : promises_) {
        if (expr_atoms.count(promised)) relevant.push_back(promised);
      }
      if (relevant.empty()) return g;
      // Pure sequence fast path (chains of any length): e1·…·ek is
      // guaranteed iff every atom is promised and each step is ordered
      // after its predecessor by the promises' after-sets.
      if (e->kind() == ExprKind::kSeq || e->IsAtom()) {
        std::vector<EventLiteral> seq_atoms;
        bool pure = true;
        if (e->IsAtom()) {
          seq_atoms.push_back(e->literal());
        } else {
          for (const Expr* c : e->children()) {
            if (!c->IsAtom()) {
              pure = false;
              break;
            }
            seq_atoms.push_back(c->literal());
          }
        }
        if (pure) {
          bool guaranteed = true;
          for (size_t i = 0; i < seq_atoms.size() && guaranteed; ++i) {
            auto it = promises_.find(seq_atoms[i]);
            if (it == promises_.end()) {
              guaranteed = false;
              break;
            }
            if (i > 0 && !it->second.count(seq_atoms[i - 1])) {
              guaranteed = false;
            }
          }
          if (guaranteed) return ctx_->guards()->True();
          return g;
        }
      }
      if (relevant.size() > 6) return g;
      // The real future realizes the promised events in SOME order
      // consistent with their after-sets; E is guaranteed only if every
      // such linearization satisfies it (satisfaction is monotone under
      // inserting unrelated events, so checking the promised events alone
      // is conservative).
      std::sort(relevant.begin(), relevant.end());
      bool any_consistent = false;
      bool all_satisfy = true;
      Trace perm(relevant.begin(), relevant.end());
      do {
        bool consistent = true;
        for (size_t i = 0; i < perm.size() && consistent; ++i) {
          for (EventLiteral before : promises_.at(perm[i])) {
            // An after-constraint on another promised event must be
            // respected within the permutation; constraints on occurred or
            // unknown events do not affect relative order here.
            for (size_t j = i + 1; j < perm.size(); ++j) {
              if (perm[j] == before) {
                consistent = false;
                break;
              }
            }
            if (!consistent) break;
          }
        }
        if (!consistent) continue;
        any_consistent = true;
        if (!Satisfies(perm, e)) {
          all_satisfy = false;
          break;
        }
      } while (std::next_permutation(perm.begin(), perm.end()));
      if (any_consistent && all_satisfy) return ctx_->guards()->True();
      return g;
    }
    case GuardKind::kAnd:
    case GuardKind::kOr: {
      std::vector<const Guard*> kids;
      kids.reserve(g->children().size());
      for (const Guard* c : g->children()) {
        kids.push_back(DischargeDiamonds(c));
      }
      return g->kind() == GuardKind::kAnd ? ctx_->guards()->And(kids)
                                          : ctx_->guards()->Or(kids);
    }
  }
  return g;
}

void EventActor::Attempt(EventLiteral literal, AttemptCallback done) {
  CDES_CHECK_EQ(literal.symbol(), symbol_);
  if (decided_) {
    if (done) done(literal == *decided_ ? Decision::kAccepted
                                        : Decision::kRejected);
    return;
  }
  const Guard* g = CurrentGuard(literal);
  if (ctx_->projection_cache()->EvaluateNow(g)) {
    Occur(literal);
    if (done) done(Decision::kAccepted);
    return;
  }
  const EventAttributes& attrs = Attrs(literal);
  if (g->IsFalse()) {
    if (attrs.rejectable) {
      if (done) done(Decision::kRejected);
    } else {
      // §3.3: "The scheduler has no choice but to accept nonrejectable
      // events like abort."
      host_->RecordViolation(literal);
      Occur(literal);
      if (done) done(Decision::kAccepted);
    }
    return;
  }
  if (!attrs.delayable) {
    if (attrs.rejectable) {
      if (done) done(Decision::kRejected);
    } else {
      host_->RecordViolation(literal);
      Occur(literal);
      if (done) done(Decision::kAccepted);
    }
    return;
  }
  if (done) done(Decision::kParked);
  parked_.push_back(Parked{literal, std::move(done)});
  if (obs_ != nullptr) {
    if (obs_->parks != nullptr) {
      obs_->parks->Increment();
      obs_->parked_depth->Observe(parked_.size());
    }
    if (obs_->tracer != nullptr && obs_->alphabet != nullptr &&
        obs_->sim != nullptr) {
      obs_->tracer->Instant(obs::SpanCategory::kLifecycle,
                            "park " + obs_->alphabet->LiteralName(literal),
                            obs_->sim->now(), site_, symbol_);
    }
  }
  EmitNeeds(literal, g);
  Reevaluate();
}

std::vector<EventLiteral> EventActor::ParkedLiterals() const {
  std::vector<EventLiteral> out;
  out.reserve(parked_.size());
  for (const Parked& p : parked_) out.push_back(p.literal);
  return out;
}

void EventActor::RestoreOccurrence(EventLiteral literal) {
  CDES_CHECK_EQ(literal.symbol(), symbol_);
  CDES_CHECK(!decided_);
  CDES_CHECK(parked_.empty()) << "recovery must precede new attempts";
  decided_ = literal;
}

void EventActor::RestoreBaseline(const Guard* positive, const Guard* negative) {
  CDES_CHECK(!decided_ && heard_.empty() && parked_.empty())
      << "baseline restore requires a fresh actor";
  positive_guard_ = positive;
  negative_guard_ = negative;
  // Profiler contributions decompose the *compiled* guards; against a
  // checkpointed baseline they would re-conjoin to the wrong guard.
  profile_ = nullptr;
  ++version_;
}

void EventActor::Receive(const RuntimeMessage& msg) {
  switch (msg.kind) {
    case RuntimeMessageKind::kAnnounce: {
      // At-most-once assimilation: a symbol decides at most once, so a
      // second announcement of the same literal (duplicated delivery, or a
      // retransmission racing its ack) must be dropped here — folding it
      // into CurrentGuard again would residuate ◇-sequences by an event
      // that occurred only once, corrupting the reduced guard.
      if (!heard_literals_.insert(msg.literal).second) return;
      auto entry = std::make_pair(msg.stamp, msg.literal);
      auto pos = std::upper_bound(heard_.begin(), heard_.end(), entry);
      ++version_;
      heard_.insert(pos, entry);
      ReviewObligations();
      Reevaluate();
      return;
    }
    case RuntimeMessageKind::kPromise: {
      std::set<EventLiteral>& after = promises_[msg.literal];
      after.insert(msg.after.begin(), msg.after.end());
      ++version_;
      Reevaluate();
      return;
    }
    case RuntimeMessageKind::kRequestPromise:
      if (decided_) return;  // the announcement (or nothing) answers it
      if (!TryAnswerPromiseRequest(msg)) pending_requests_.push_back(msg);
      return;
    case RuntimeMessageKind::kTrigger: {
      if (decided_) return;
      for (const Parked& p : parked_) {
        if (p.literal == msg.literal) return;  // already attempted
      }
      Attempt(msg.literal, AttemptCallback());
      return;
    }
  }
}

void EventActor::Occur(EventLiteral literal) {
  CDES_CHECK(!decided_);
  decided_ = literal;
  OccurrenceStamp stamp = host_->NextStamp();
  host_->RecordOccurrence(literal, stamp);
  RuntimeMessage announce{RuntimeMessageKind::kAnnounce, literal, stamp,
                          EventLiteral(), {}, nullptr, {}};
  host_->Broadcast(symbol_, announce);
  // Resolve remaining parked attempts: same literal is (already) accepted,
  // the opposite literal can never occur.
  std::vector<Parked> parked = std::move(parked_);
  parked_.clear();
  for (Parked& p : parked) {
    if (!p.done) continue;
    p.done(p.literal == literal ? Decision::kAccepted : Decision::kRejected);
  }
  pending_requests_.clear();
}

void EventActor::Reevaluate() {
  if (reevaluating_) return;
  reevaluating_ = true;
  bool changed = true;
  while (changed && !decided_) {
    changed = false;
    for (size_t i = 0; i < parked_.size(); ++i) {
      const Guard* g = CurrentGuard(parked_[i].literal);
      if (ctx_->projection_cache()->EvaluateNow(g)) {
        Parked p = std::move(parked_[i]);
        parked_.erase(parked_.begin() + i);
        Occur(p.literal);
        if (p.done) p.done(Decision::kAccepted);
        changed = true;
        break;  // decided_: remaining parked resolved by Occur
      }
      if (g->IsFalse()) {
        Parked p = std::move(parked_[i]);
        parked_.erase(parked_.begin() + i);
        if (Attrs(p.literal).rejectable) {
          if (p.done) p.done(Decision::kRejected);
        } else {
          host_->RecordViolation(p.literal);
          Occur(p.literal);
          if (p.done) p.done(Decision::kAccepted);
        }
        changed = true;
        break;
      }
      EmitNeeds(parked_[i].literal, g);
    }
    if (decided_) break;
    for (size_t i = 0; i < pending_requests_.size(); ++i) {
      if (TryAnswerPromiseRequest(pending_requests_[i])) {
        pending_requests_.erase(pending_requests_.begin() + i);
        changed = true;
        break;
      }
    }
  }
  reevaluating_ = false;
}

void EventActor::EmitNeeds(EventLiteral parked, const Guard* reduced) {
  std::map<EventLiteral, const Expr*> diamond_needs;
  std::set<EventLiteral> box_needs;
  CollectGuardNeeds(reduced, &diamond_needs, &box_needs);
  if (host_->PromisesEnabled()) {
    std::set<EventLiteral> implied_set = ImpliedBoxes(reduced);
    std::vector<EventLiteral> implied(implied_set.begin(),
                                      implied_set.end());
    for (const auto& [need, residual] : diamond_needs) {
      auto key = std::make_pair(need, parked);
      if (requests_sent_.count(key)) continue;
      requests_sent_.insert(key);
      RuntimeMessage request{RuntimeMessageKind::kRequestPromise, need,
                             OccurrenceStamp{}, parked, {}, residual,
                             implied};
      host_->SendTo(symbol_, need.symbol(), request);
    }
  }
  std::set<EventLiteral> trigger_needs = box_needs;
  for (const auto& [need, residual] : diamond_needs) {
    trigger_needs.insert(need);
  }
  for (EventLiteral need : trigger_needs) {
    if (!host_->MayTrigger(need)) continue;
    if (triggers_sent_.count(need)) continue;
    // Trigger only *necessary* events: if the guard could still be
    // discharged were `need` never to occur (hypothetically announce its
    // complement), leave it to the workload — the paper's scheduler causes
    // events "when necessary" (Example 4).
    const Guard* without =
        Reduce(reduced, {AnnouncementKind::kOccurred, need.Complemented()});
    if (!without->IsFalse()) continue;
    triggers_sent_.insert(need);
    RuntimeMessage trigger{RuntimeMessageKind::kTrigger, need,
                           OccurrenceStamp{}, EventLiteral(), {}, nullptr, {}};
    host_->SendTo(symbol_, need.symbol(), trigger);
  }
}

bool EventActor::TryAnswerPromiseRequest(const RuntimeMessage& request) {
  // We can promise ◇x for our parked attempt x when, once the requester's
  // event has occurred, nothing else blocks x — then x is certain to
  // follow the requester (Example 11's conditional promise: the requester
  // proceeds on the promise, and its occurrence discharges it). The
  // hypothetical must reduce to the constant ⊤: a guard that still rests
  // on ¬-atoms could be invalidated before x fires, breaking the promise.
  for (const Parked& p : parked_) {
    if (p.literal != request.literal) continue;
    auto made = std::make_pair(p.literal, request.requester.symbol());
    if (promises_made_.count(made)) return true;
    const Guard* current = CurrentGuard(p.literal);
    // The requester's occurrence implies its own □-obligations occurred
    // first; assume them (in that order) in the hypothetical.
    const Guard* hypothetical = current;
    for (EventLiteral implied : request.implied) {
      hypothetical =
          Reduce(hypothetical, {AnnouncementKind::kOccurred, implied});
    }
    hypothetical = Reduce(hypothetical,
                          {AnnouncementKind::kOccurred, request.requester});
    // Re-apply held promises: the hypothetical occurrences may have
    // residuated a ◇-sequence down to something the promises we already
    // hold can discharge (e.g. ◇(ev2·ev1)/ev2 = ◇ev1 with ◇ev1 in hand).
    for (const auto& [promised, after] : promises_) {
      hypothetical =
          Reduce(hypothetical, {AnnouncementKind::kPromised, promised});
    }
    hypothetical = DischargeDiamonds(hypothetical);
    // Optimistic grant (EvaluateNow rather than the constant ⊤): residual
    // ¬-atoms are tolerated because, for synthesized guards, an event that
    // could falsify them is itself ordered after us (the verifier's
    // race-freedom property); residual ◇/□-atoms still block the grant.
    if (!ctx_->projection_cache()->EvaluateNow(hypothetical)) return false;
    promises_made_.insert(made);
    // The promise carries order guarantees: our □-obligations and the
    // requester necessarily precede our occurrence.
    std::set<EventLiteral> after = ImpliedBoxes(current);
    after.insert(request.requester);
    RuntimeMessage promise{RuntimeMessageKind::kPromise, p.literal,
                           OccurrenceStamp{}, EventLiteral(),
                           std::vector<EventLiteral>(after.begin(),
                                                     after.end()),
                           nullptr,
                           {}};
    host_->SendTo(symbol_, request.requester.symbol(), promise);
    // Forward held promises the requester's residual also depends on, so
    // ordered chains (◇(b·c) at the requester) can discharge.
    if (request.need != nullptr) {
      std::set<EventLiteral> need_atoms;
      CollectExprAtoms(request.need, &need_atoms);
      for (const auto& [held, held_after] : promises_) {
        if (!need_atoms.count(held)) continue;
        RuntimeMessage forward{RuntimeMessageKind::kPromise, held,
                               OccurrenceStamp{}, EventLiteral(),
                               std::vector<EventLiteral>(held_after.begin(),
                                                         held_after.end()),
                               nullptr,
                               {}};
        host_->SendTo(symbol_, request.requester.symbol(), forward);
      }
    }
    return true;
  }
  // Trigger-backed path: a triggerable event the scheduler may cause on
  // its own accord can promise itself, deferring the actual trigger until
  // the requester's residual has no other way to be satisfied (the lazy
  // "when necessary" of Example 4: don't cancel a booking that may yet be
  // paid for).
  if (request.need != nullptr && !request.literal.complemented() &&
      host_->MayTrigger(request.literal)) {
    auto made = std::make_pair(request.literal, request.requester.symbol());
    if (promises_made_.count(made)) return true;
    const Guard* current = CurrentGuard(request.literal);
    const Guard* hypothetical =
        Reduce(current, {AnnouncementKind::kOccurred, request.requester});
    if (!hypothetical->IsTrue()) return false;
    std::set<EventLiteral> after = ImpliedBoxes(current);
    after.insert(request.requester);
    promises_made_.insert(made);
    // Adopt the requester's residual as received; ReviewObligations folds
    // the occurrence log into it in stamp order.
    obligations_.push_back(Obligation{request.need, request.literal});
    RuntimeMessage promise{RuntimeMessageKind::kPromise, request.literal,
                           OccurrenceStamp{}, EventLiteral(),
                           std::vector<EventLiteral>(after.begin(),
                                                     after.end()),
                           nullptr,
                           {}};
    host_->SendTo(symbol_, request.requester.symbol(), promise);
    ReviewObligations();
    return true;
  }
  return false;
}

void EventActor::ReviewObligations() {
  if (obligations_.empty()) return;
  // Each pass refolds the obligation residual by the whole occurrence log
  // in stamp order. Storing a partially residuated expression and folding
  // only new arrivals into it would be wrong on an unordered network:
  // residuation is order-sensitive ((x·y)/y = 0 by rule 7), so an
  // announcement whose stamp precedes one already folded would corrupt the
  // stored residual permanently. The refold is cheap: the Residuator
  // memoizes every (expression, literal) step.
  std::vector<Obligation> remaining;
  std::vector<EventLiteral> to_trigger;
  for (Obligation& ob : obligations_) {
    const Expr* residual = ob.need;
    for (const auto& [stamp, occurred] : heard_) {
      residual = ctx_->residuator()->Residuate(residual, occurred);
    }
    if (residual->IsTop()) continue;  // some alternative materialized
    if (decided_) continue;           // our symbol is settled either way
    const Expr* without_us = PruneImpossibleLiteral(
        ctx_->exprs(), residual, ob.literal);
    bool necessary = !IsSatisfiable(ctx_->residuator(), without_us);
    if (necessary) {
      to_trigger.push_back(ob.literal);
    } else {
      remaining.push_back(std::move(ob));
    }
  }
  obligations_ = std::move(remaining);
  // One pass over parked_ instead of a rescan per trigger; literals this
  // loop itself attempts are added as they go (an attempt only ever parks
  // its own literal).
  std::set<EventLiteral> already_parked;
  for (const Parked& p : parked_) already_parked.insert(p.literal);
  for (EventLiteral literal : to_trigger) {
    if (decided_) break;
    if (already_parked.insert(literal).second) {
      Attempt(literal, AttemptCallback());
    }
  }
}

}  // namespace cdes
