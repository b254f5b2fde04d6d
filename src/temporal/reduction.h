#ifndef CDES_TEMPORAL_REDUCTION_H_
#define CDES_TEMPORAL_REDUCTION_H_

#include <unordered_map>

#include "algebra/residuation.h"
#include "obs/metrics.h"
#include "temporal/guard.h"

namespace cdes {

/// What an event actor can announce to the actors whose guards mention it
/// (§4.3): that the event has occurred (□e), or a promise that it will
/// eventually occur (◇e) used to resolve mutually-referential guards
/// (Example 11).
enum class AnnouncementKind { kOccurred, kPromised };

struct Announcement {
  AnnouncementKind kind;
  EventLiteral literal;

  friend bool operator==(const Announcement&, const Announcement&) = default;
};

/// Assimilates one announcement into a guard, applying the §4.3 proof
/// rules. On □ℓ:
///   □ℓ → ⊤, ¬ℓ → 0, □ℓ̄ → 0, ¬ℓ̄ → ⊤, and ◇E → ◇(E/ℓ)
/// (the residuation handles ◇ℓ → ⊤ and kills branches requiring ℓ̄ or a
/// violated order). On ◇ℓ (a promise):
///   ◇ℓ → ⊤, □ℓ̄ → 0, ◇ℓ̄-requiring branches die, ¬ℓ̄ → ⊤,
/// while □ℓ and ¬ℓ are deliberately unaffected — a promised event has not
/// *occurred* yet.
///
/// Memo of guard reductions keyed on (interned guard node, announcement),
/// living alongside a GuardArena and sharing its lifetime and thread
/// confinement (one per WorkflowContext, hence one per engine shard — no
/// locks). Guards are hash-consed, so the key is one pointer plus the
/// announcement's packed literal index; after the first touch of a
/// (node, announcement) pair, ReduceGuard is a single hash probe. The memo
/// is consulted at composite nodes (◇/+/|) only: □, ¬, and constants reduce
/// in a couple of compares, cheaper than the probe itself.
///
/// Reduction is a pure function of (node, announcement) over arenas that
/// only ever grow, so entries never invalidate; every workflow instance
/// resident on a shard shares one cache against the shard's compiled guard
/// table, which is what makes assimilation cost amortize across thousands
/// of instances.
class ReductionCache {
 public:
  /// Packs an announcement into the memo key: literal index ⊕ kind bit.
  static uint64_t KeyOf(const Announcement& a) {
    return (static_cast<uint64_t>(a.literal.index()) << 1) |
           (a.kind == AnnouncementKind::kPromised ? 1u : 0u);
  }

  const Guard* Find(const Guard* g, uint64_t ann) {
    auto it = map_.find(Key{g, ann});
    if (it == map_.end()) {
      ++misses_;
      if (miss_counter_ != nullptr) miss_counter_->Increment();
      return nullptr;
    }
    ++hits_;
    if (hit_counter_ != nullptr) hit_counter_->Increment();
    return it->second;
  }

  void Store(const Guard* g, uint64_t ann, const Guard* reduced) {
    map_.emplace(Key{g, ann}, reduced);
  }

  /// Mirrors hits/misses into `guards.reduction_cache_{hits,misses}`
  /// counters of `registry` (get-or-create; re-attach is idempotent for a
  /// fixed registry). Counters start from the registry's current values —
  /// raw hits()/misses() remain the cache-lifetime truth.
  void AttachMetrics(obs::MetricsRegistry* registry) {
    const Counters& counters = registry->handles<Counters>();
    hit_counter_ = counters.hits;
    miss_counter_ = counters.misses;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const { return map_.size(); }

 private:
  struct Counters {
    explicit Counters(obs::MetricsRegistry* registry)
        : hits(registry->counter("guards.reduction_cache_hits")),
          misses(registry->counter("guards.reduction_cache_misses")) {}
    obs::Counter* hits;
    obs::Counter* misses;
  };
  struct Key {
    const Guard* g;
    uint64_t ann;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = std::hash<const void*>()(k.g);
      h ^= std::hash<uint64_t>()(k.ann) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
      return h;
    }
  };

  std::unordered_map<Key, const Guard*, KeyHash> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  obs::Counter* hit_counter_ = nullptr;
  obs::Counter* miss_counter_ = nullptr;
};

/// IMPORTANT: ◇E reduction by residuation is order-sensitive; occurrence
/// announcements must be assimilated in occurrence order (the runtime's
/// hold-back queue guarantees this — see runtime/event_actor.h).
///
/// With `cache` non-null the reduction walk memoizes composite nodes in it;
/// null reproduces the plain walk (results are identical — the cache stores
/// only values the walk itself computed on the same arenas).
const Guard* ReduceGuard(GuardArena* arena, Residuator* residuator,
                         const Guard* g, const Announcement& announcement,
                         ReductionCache* cache = nullptr);

/// ReduceGuard that additionally accumulates into `*nodes` the number of
/// guard nodes visited by the reduction walk — the profiler's
/// "expression-tree nodes" metric. The counting walk is a separate template
/// instantiation, so the plain overload above compiles without the counter
/// and profiling off costs nothing.
const Guard* ReduceGuardCounted(GuardArena* arena, Residuator* residuator,
                                const Guard* g,
                                const Announcement& announcement,
                                uint64_t* nodes);

/// Replaces every atom `dead` inside `e` with 0 (the event can no longer
/// occur) and rebuilds. Unlike residuation this consumes no ordering
/// information.
const Expr* PruneImpossibleLiteral(ExprArena* arena, const Expr* e,
                                   EventLiteral dead);

/// The "commit now" projection of a reduced guard: the condition under
/// which an event may fire at the current instant per the declarative
/// HoldsAt semantics (Definition 4 / Semantics 13-14), rather than the
/// runtime's optimistic EvaluateNow.
///   □ℓ → 0   (ℓ has not occurred within the prefix, so the past cannot
///             license the firing through it)
///   ¬ℓ → ⊤   (ℓ has not occurred within the prefix, so ¬ℓ holds now)
///   ◇E kept  (an obligation on the remainder of the maximal trace)
/// The result therefore mentions only ◇-atoms and constants: 0 means the
/// firing is not permitted; anything else is the obligation the rest of
/// the trace must discharge (the model checker conjoins it into the path
/// commitment and residuates it by each subsequent occurrence, starting
/// with the fired literal itself — ◇ sees the full trace).
const Guard* CommitNow(GuardArena* arena, const Guard* g);

/// The optimistic runtime evaluation of a reduced guard: whether it
/// licenses occurrence *now*. ¬ℓ atoms count as true while ℓ is unheard
/// (the event has not yet occurred), whereas □/◇ atoms require positive
/// knowledge (an announcement or a promise). This optimistic
/// ¬-evaluation is the per-event agreement the paper flags in §4.3; see
/// DESIGN.md for the soundness discussion.
bool EvaluateNow(const Guard* g);

/// Memo of the two pure per-node projections the hot paths keep
/// recomputing: EvaluateNow and CommitNow. Keyed by interned node (pointer
/// equality is structural equality), it lives beside the ReductionCache
/// with the same lifetime and thread confinement (one per WorkflowContext)
/// and never invalidates. Each projection is the recursive walk above
/// with a probe and a store at every composite node, so a sub-DAG shared
/// between guards — or reached twice within one — is computed once per
/// context; □/¬/◇ and constants are decided inline.
class ProjectionCache {
 public:
  /// ≡ cdes::EvaluateNow(g).
  bool EvaluateNow(const Guard* g);

  /// ≡ cdes::CommitNow(arena, g). `arena` must be the arena `g` lives in.
  const Guard* CommitNow(GuardArena* arena, const Guard* g);

 private:
  std::unordered_map<const Guard*, bool> now_;
  std::unordered_map<const Guard*, const Guard*> commit_;
};

}  // namespace cdes

#endif  // CDES_TEMPORAL_REDUCTION_H_
