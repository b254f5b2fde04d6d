#include "temporal/reduction.h"

namespace cdes {
namespace {

/// The §4.3 reduction walk, one instantiation per announcement kind and
/// per counting mode (the plain instantiations compile without the node
/// counter, so profiling off costs nothing). With `cache` non-null,
/// composite nodes (◇/+/|) probe it before reducing and store after;
/// □/¬/constants are a couple of compares — cheaper than the probe — and
/// are always computed inline. Cached and plain walks return the same
/// pointer: both intern through the same arenas, and the cache only ever
/// stores the walk's own outputs.
template <AnnouncementKind kKind, bool kCount>
struct Walk {
  static constexpr bool kPromised = kKind == AnnouncementKind::kPromised;

  GuardArena* arena;
  Residuator* residuator;
  EventLiteral l;
  ReductionCache* cache;
  uint64_t* nodes;

  const Guard* Reduce(const Guard* g) const {
    if constexpr (kCount) ++*nodes;
    switch (g->kind()) {
      case GuardKind::kFalse:
      case GuardKind::kTrue:
        return g;
      case GuardKind::kBox:
        // A promise of ℓ rules ℓ̄ out forever but does not make ℓ occurred.
        if (!kPromised && g->literal() == l) return arena->True();
        if (g->literal() == l.Complemented()) return arena->False();
        return g;
      case GuardKind::kNeg:
        if (!kPromised && g->literal() == l) return arena->False();
        if (g->literal() == l.Complemented()) return arena->True();
        return g;
      case GuardKind::kDiamond:
      case GuardKind::kAnd:
      case GuardKind::kOr:
        break;
    }
    uint64_t ann = ReductionCache::KeyOf({kKind, l});
    if (cache != nullptr) {
      if (const Guard* memo = cache->Find(g, ann)) return memo;
    }
    const Guard* result;
    if (g->kind() == GuardKind::kDiamond) {
      result = ReduceDiamond(g->expr());
    } else {
      std::vector<const Guard*> kids;
      kids.reserve(g->children().size());
      for (const Guard* c : g->children()) kids.push_back(Reduce(c));
      result =
          g->kind() == GuardKind::kAnd ? arena->And(kids) : arena->Or(kids);
    }
    if (cache != nullptr) cache->Store(g, ann, result);
    return result;
  }

  const Guard* ReduceDiamond(const Expr* e) const {
    if constexpr (!kPromised) {
      return arena->Diamond(residuator->Residuate(e, l));
    } else {
      if (e->IsAtom() && e->literal() == l) return arena->True();
      // An Or alternative consisting of exactly the promised atom will be
      // satisfied eventually.
      if (e->kind() == ExprKind::kOr) {
        for (const Expr* c : e->children()) {
          if (c->IsAtom() && c->literal() == l) return arena->True();
        }
      }
      // Branches that require ℓ̄ can never be satisfied any more.
      return arena->Diamond(
          PruneImpossibleLiteral(arena->exprs(), e, l.Complemented()));
    }
  }
};

template <bool kCount>
const Guard* Reduce(GuardArena* arena, Residuator* residuator, const Guard* g,
                    const Announcement& announcement, ReductionCache* cache,
                    uint64_t* nodes) {
  if (announcement.kind == AnnouncementKind::kOccurred) {
    return Walk<AnnouncementKind::kOccurred, kCount>{
        arena, residuator, announcement.literal, cache, nodes}
        .Reduce(g);
  }
  return Walk<AnnouncementKind::kPromised, kCount>{
      arena, residuator, announcement.literal, cache, nodes}
      .Reduce(g);
}

}  // namespace

const Guard* ReduceGuard(GuardArena* arena, Residuator* residuator,
                         const Guard* g, const Announcement& announcement,
                         ReductionCache* cache) {
  return Reduce<false>(arena, residuator, g, announcement, cache, nullptr);
}

const Guard* ReduceGuardCounted(GuardArena* arena, Residuator* residuator,
                                const Guard* g,
                                const Announcement& announcement,
                                uint64_t* nodes) {
  return Reduce<true>(arena, residuator, g, announcement, nullptr, nodes);
}

const Guard* CommitNow(GuardArena* arena, const Guard* g) {
  switch (g->kind()) {
    case GuardKind::kFalse:
    case GuardKind::kTrue:
    case GuardKind::kDiamond:
      return g;
    case GuardKind::kBox:
      return arena->False();
    case GuardKind::kNeg:
      return arena->True();
    case GuardKind::kAnd:
    case GuardKind::kOr: {
      std::vector<const Guard*> kids;
      kids.reserve(g->children().size());
      for (const Guard* c : g->children()) kids.push_back(CommitNow(arena, c));
      return g->kind() == GuardKind::kAnd ? arena->And(kids)
                                          : arena->Or(kids);
    }
  }
  return g;
}

bool EvaluateNow(const Guard* g) {
  switch (g->kind()) {
    case GuardKind::kTrue:
      return true;
    case GuardKind::kFalse:
      return false;
    case GuardKind::kNeg:
      // Unreduced ¬ℓ means ℓ has not been heard: true at this instant.
      return true;
    case GuardKind::kBox:
    case GuardKind::kDiamond:
      // Unreduced □/◇ means the occurrence / guarantee is not yet known.
      return false;
    case GuardKind::kAnd:
      for (const Guard* c : g->children()) {
        if (!EvaluateNow(c)) return false;
      }
      return true;
    case GuardKind::kOr:
      for (const Guard* c : g->children()) {
        if (EvaluateNow(c)) return true;
      }
      return false;
  }
  return false;
}

bool ProjectionCache::EvaluateNow(const Guard* g) {
  if (g->kind() != GuardKind::kAnd && g->kind() != GuardKind::kOr) {
    return cdes::EvaluateNow(g);
  }
  auto it = now_.find(g);
  if (it != now_.end()) return it->second;
  // + holds unless some child fails, | fails unless some child holds.
  bool is_and = g->kind() == GuardKind::kAnd;
  bool result = is_and;
  for (const Guard* c : g->children()) {
    if (EvaluateNow(c) != is_and) {
      result = !is_and;
      break;
    }
  }
  now_.emplace(g, result);
  return result;
}

const Guard* ProjectionCache::CommitNow(GuardArena* arena, const Guard* g) {
  if (g->kind() != GuardKind::kAnd && g->kind() != GuardKind::kOr) {
    return cdes::CommitNow(arena, g);
  }
  auto it = commit_.find(g);
  if (it != commit_.end()) return it->second;
  std::vector<const Guard*> kids;
  kids.reserve(g->children().size());
  for (const Guard* c : g->children()) kids.push_back(CommitNow(arena, c));
  const Guard* result =
      g->kind() == GuardKind::kAnd ? arena->And(kids) : arena->Or(kids);
  commit_.emplace(g, result);
  return result;
}

const Expr* PruneImpossibleLiteral(ExprArena* arena, const Expr* e,
                                   EventLiteral dead) {
  switch (e->kind()) {
    case ExprKind::kZero:
    case ExprKind::kTop:
      return e;
    case ExprKind::kAtom:
      return e->literal() == dead ? arena->Zero() : e;
    case ExprKind::kSeq:
    case ExprKind::kOr:
    case ExprKind::kAnd: {
      std::vector<const Expr*> kids;
      kids.reserve(e->children().size());
      for (const Expr* c : e->children()) {
        kids.push_back(PruneImpossibleLiteral(arena, c, dead));
      }
      switch (e->kind()) {
        case ExprKind::kSeq:
          return arena->Seq(kids);
        case ExprKind::kOr:
          return arena->Or(kids);
        default:
          return arena->And(kids);
      }
    }
  }
  return e;
}

}  // namespace cdes
