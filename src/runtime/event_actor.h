#ifndef CDES_RUNTIME_EVENT_ACTOR_H_
#define CDES_RUNTIME_EVENT_ACTOR_H_

#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "guards/context.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "runtime/messages.h"
#include "sched/scheduler.h"
#include "spec/ast.h"
#include "temporal/guard.h"

namespace cdes {

/// Services an EventActor needs from its owning scheduler: message
/// transport, occurrence stamping, bookkeeping, and attribute lookup.
class ActorHost {
 public:
  virtual ~ActorHost() = default;

  /// Delivers `msg` to every actor whose guards mention `from`'s symbol.
  virtual void Broadcast(SymbolId from, const RuntimeMessage& msg) = 0;

  /// Delivers `msg` to the actor owning `target`'s symbol.
  virtual void SendTo(SymbolId from, SymbolId target,
                      const RuntimeMessage& msg) = 0;

  /// Issues the next occurrence stamp (monotone in simulation time).
  virtual OccurrenceStamp NextStamp() = 0;

  /// Appends an occurrence to the global history.
  virtual void RecordOccurrence(EventLiteral literal,
                                OccurrenceStamp stamp) = 0;

  /// Records that a non-rejectable event had to be admitted although its
  /// guard had not been established.
  virtual void RecordViolation(EventLiteral literal) = 0;

  /// Whether the runtime may proactively trigger `literal` (§2: "When
  /// triggered by the system, it causes appropriate events like start").
  virtual bool MayTrigger(EventLiteral literal) const = 0;

  /// Whether the promise protocol (Example 11) is enabled.
  virtual bool PromisesEnabled() const = 0;
};

/// Per-actor profiling attachment, built by the owning scheduler when a
/// GuardProfiler is configured: the literal's compiled guard split back
/// into its per-dependency contributions (CompiledWorkflow keeps them),
/// each tagged with its profiler site. CurrentGuard then reduces every
/// contribution separately — so cost is attributed to the owning
/// (dependency, event) pair — and re-conjoins them; ReduceGuard distributes
/// over And and the arena's And canonicalization is deterministic, so the
/// re-conjoined guard is the same hash-consed node the unprofiled path
/// produces.
struct GuardProfile {
  struct Contribution {
    obs::GuardProfiler::Site* site;
    const Guard* guard;
  };
  obs::GuardProfiler* profiler = nullptr;
  std::vector<Contribution> positive;
  std::vector<Contribution> negative;
};

/// The active entity instantiated for each event type (§2): maintains the
/// current guards of an event symbol's two literals, parks attempts whose
/// guard is not yet ⊤, assimilates incoming announcements and promises, and
/// answers promise requests.
///
/// Assimilation model: the actor keeps the *compiled* guards plus an
/// occurrence log sorted by stamp; the current guard is the compiled guard
/// reduced by the log in stamp order and then by received promises. Sorting
/// by stamp (not arrival) is what keeps ◇E residuation sound when the
/// network reorders announcements.
///
/// Evaluation is memoized through `ctx`'s shard-shared symbolic caches:
/// every reduction step of the stamp-order fold goes through its
/// ReductionCache (a hash probe after first touch), EvaluateNow through its
/// ProjectionCache, and CurrentGuard keeps its last result per polarity
/// until the actor's knowledge changes.
class EventActor {
 public:
  /// The compiled guards must live in `ctx`'s arenas. `obs` (optional)
  /// carries pre-resolved instrumentation handles from the owning
  /// scheduler; it must outlive the actor when non-null.
  EventActor(ActorHost* host, WorkflowContext* ctx, SymbolId symbol, int site,
             const Guard* positive_guard, const Guard* negative_guard,
             const EventAttributes& positive_attrs,
             const EventAttributes& negative_attrs,
             const obs::ActorObs* obs = nullptr);

  EventActor(const EventActor&) = delete;
  EventActor& operator=(const EventActor&) = delete;

  /// A co-located task agent attempts `literal`.
  void Attempt(EventLiteral literal, AttemptCallback done);

  /// Recovery: marks `literal` as having occurred without stamping,
  /// logging, or announcing (the recovery driver replays announcements
  /// separately, in stamp order).
  void RestoreOccurrence(EventLiteral literal);

  /// Handles a message from another actor.
  void Receive(const RuntimeMessage& msg);

  /// The literal's guard reduced by everything this actor knows.
  const Guard* CurrentGuard(EventLiteral literal) const;

  /// The compiled guard folded by heard announcements only — no promises,
  /// no ◇-discharge. This is the durable portion of the actor's knowledge:
  /// announcements are logged occurrences, while promises and parked
  /// attempts are soft state the post-recovery protocol re-derives. A
  /// checkpoint snapshots exactly these residuals (runtime/checkpoint.h);
  /// because residuation is a left fold, folding the heard prefix here and
  /// the replayed suffix after recovery equals folding the whole history.
  const Guard* HeardResidual(EventLiteral literal) const;

  /// Recovery: replaces the compiled baseline guards with checkpoint
  /// residuals. Only valid on a fresh actor (nothing decided, heard, or
  /// parked); detaches any profiler attachment, whose per-dependency
  /// contributions conjoin to the *compiled* guards and would misattribute
  /// against a checkpointed baseline.
  void RestoreBaseline(const Guard* positive, const Guard* negative);

  /// Attaches per-dependency profiling (nullptr to detach). `profile` must
  /// outlive the actor; its guards must conjoin to this actor's compiled
  /// guards.
  void set_profile(const GuardProfile* profile) { profile_ = profile; }

  bool decided() const { return decided_.has_value(); }
  std::optional<EventLiteral> decided_literal() const { return decided_; }
  size_t parked_count() const { return parked_.size(); }
  /// Literals of currently parked attempts, in arrival order.
  std::vector<EventLiteral> ParkedLiterals() const;
  SymbolId symbol() const { return symbol_; }
  int site() const { return site_; }
  /// Attributes of the positive literal, as declared in the spec.
  const EventAttributes& attributes() const { return positive_attrs_; }

 private:
  struct Parked {
    EventLiteral literal;
    AttemptCallback done;
  };

  /// A deferred trigger obligation (promise-backed, see
  /// TryAnswerPromiseRequest): the adopted residual and the literal to
  /// trigger when it is the only way left.
  struct Obligation {
    const Expr* need;
    EventLiteral literal;
  };

  const Guard* CompiledGuard(EventLiteral literal) const {
    return literal.complemented() ? negative_guard_ : positive_guard_;
  }

  /// ReduceGuard through the context's arenas and shared ReductionCache.
  const Guard* Reduce(const Guard* g, const Announcement& announcement) const {
    return ReduceGuard(ctx_->guards(), ctx_->residuator(), g, announcement,
                       ctx_->reduction_cache());
  }

  /// The heard_/promises_ fold of CurrentGuard over one contribution,
  /// counting visited guard nodes into `*nodes`.
  const Guard* ReduceContribution(const Guard* g, uint64_t* nodes) const;

  /// Replaces ◇E nodes whose residual is guaranteed by the held ordered
  /// promises with ⊤: every linearization of the promised events that is
  /// consistent with their after-sets must satisfy E.
  const Guard* DischargeDiamonds(const Guard* g) const;
  const EventAttributes& Attrs(EventLiteral literal) const {
    return literal.complemented() ? negative_attrs_ : positive_attrs_;
  }

  /// Makes `literal` occur: stamps, records, announces, resolves parked
  /// attempts of both polarities.
  void Occur(EventLiteral literal);

  /// Re-evaluates parked attempts and pending promise requests after any
  /// state change; loops to a fixpoint.
  void Reevaluate();

  /// Sends promise requests / triggers for the events the reduced guard of
  /// a parked literal still needs.
  void EmitNeeds(EventLiteral parked, const Guard* reduced);

  /// Answers `request` if this actor can now promise; returns true when
  /// consumed. Two grant paths: a parked attempt that is certain to follow
  /// the requester (Example 11), or — for a triggerable event — a
  /// trigger-backed promise that adopts the requester's residual as a
  /// deferred obligation.
  bool TryAnswerPromiseRequest(const RuntimeMessage& request);

  /// Re-examines deferred trigger obligations after an announcement:
  /// obligations whose residual is satisfied are dropped; obligations that
  /// can only be met by this event any more cause a self-trigger.
  void ReviewObligations();

  ActorHost* host_;
  WorkflowContext* ctx_;
  SymbolId symbol_;
  int site_;
  const Guard* positive_guard_;
  const Guard* negative_guard_;
  EventAttributes positive_attrs_;
  EventAttributes negative_attrs_;
  const obs::ActorObs* obs_;
  const GuardProfile* profile_ = nullptr;

  std::optional<EventLiteral> decided_;
  /// (stamp, literal) occurrences heard, kept sorted by stamp.
  std::vector<std::pair<OccurrenceStamp, EventLiteral>> heard_;
  /// Promises ◇ℓ received: literal → events guaranteed to precede it.
  std::map<EventLiteral, std::set<EventLiteral>> promises_;
  std::vector<Parked> parked_;
  /// Promise requests we could not answer yet.
  std::vector<RuntimeMessage> pending_requests_;
  /// Dedup for outgoing requests (needed literal, requesting literal).
  std::set<std::pair<EventLiteral, EventLiteral>> requests_sent_;
  std::set<EventLiteral> triggers_sent_;
  /// Literals of this symbol already promised, per requester symbol.
  std::set<std::pair<EventLiteral, SymbolId>> promises_made_;
  /// Residuals this (triggerable) event has promised to see satisfied.
  std::vector<Obligation> obligations_;
  bool reevaluating_ = false;

  // ---- Memoized-evaluation state.
  /// O(1) duplicate-announcement detection (mirror of heard_'s literals).
  std::unordered_set<EventLiteral, EventLiteralHash> heard_literals_;
  /// CurrentGuard results memoized against the knowledge version: any
  /// heard_/promises_ change bumps version_, invalidating both slots.
  /// Indexed by literal polarity.
  mutable const Guard* current_memo_[2] = {nullptr, nullptr};
  mutable uint64_t current_memo_version_[2] = {0, 0};
  uint64_t version_ = 1;
};

}  // namespace cdes

#endif  // CDES_RUNTIME_EVENT_ACTOR_H_
