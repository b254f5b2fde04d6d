// Equivalence properties of the symbolic caches: the shard-shared
// ProjectionCache and ReductionCache are *optimizations* — evaluation
// verdicts and reduced-guard identities must match the plain recursive
// walks, which serve as the reference implementations here. (Runtime
// histories and checker findings are pinned to the paper's declarative
// semantics instead, in model_checker_test and failure_injection_test.)
// Everything here runs over hundreds of random specs so the equivalences
// are exercised across guard shapes no hand-written case would cover.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/generator.h"
#include "common/rng.h"
#include "common/strings.h"
#include "guards/workflow.h"
#include "obs/metrics.h"
#include "temporal/reduction.h"

namespace cdes {
namespace {

std::vector<const Expr*> RandomDeps(WorkflowContext* ctx, Rng* rng,
                                    size_t symbols, size_t count) {
  RandomExprOptions options;
  options.symbol_count = symbols;
  options.max_depth = 3;
  options.max_arity = 3;
  options.constant_probability = 0.0;
  std::vector<const Expr*> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(GenerateRandomExpr(ctx->exprs(), rng, options));
  }
  return out;
}

// Compiles `count` random dependencies over `symbols` fresh symbols into
// `ctx`; returns the compiled workflow (possibly impossible — caller skips).
CompiledWorkflow RandomCompiled(WorkflowContext* ctx, uint64_t seed,
                                size_t symbols, size_t count) {
  for (size_t i = 0; i < symbols; ++i) {
    ctx->alphabet()->Intern(StrCat("e", i));
  }
  Rng rng(seed);
  WorkflowSpec spec;
  size_t d = 0;
  for (const Expr* expr : RandomDeps(ctx, &rng, symbols, count)) {
    spec.Add(StrCat("d", d++), expr);
  }
  return CompileWorkflow(ctx, spec);
}

// -------------------------------------------- memoized ≡ recursive walks

// The memoized projections must agree with the recursive EvaluateNow and
// CommitNow on every guard the compiler produces *and* on every reduction
// of those guards along occurrence traces — the states the runtime actually
// evaluates. Each guard's children are queried before the guard itself, so
// the guard's own answer is assembled from inner-node memo entries that
// were each checked against the reference first.
TEST(SymbolicCacheTest, MemoizedProjectionsMatchRecursiveWalks) {
  constexpr size_t kSymbols = 4;
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    WorkflowContext ctx;
    CompiledWorkflow compiled = RandomCompiled(&ctx, seed, kSymbols, 2);
    if (compiled.impossible()) continue;
    ProjectionCache memo;
    Rng rng(seed * 31 + 5);
    std::vector<SymbolId> symbols(compiled.symbols().begin(),
                                  compiled.symbols().end());
    for (SymbolId symbol : symbols) {
      for (bool complemented : {false, true}) {
        const Guard* g =
            compiled.GuardFor(EventLiteral(symbol, complemented));
        // The compiled guard plus a random reduction chain off it.
        for (int step = 0; step < 1 + static_cast<int>(kSymbols); ++step) {
          std::vector<const Guard*> queries = g->children();
          queries.push_back(g);
          for (const Guard* q : queries) {
            ASSERT_EQ(memo.EvaluateNow(q), EvaluateNow(q))
                << "seed " << seed << " guard "
                << GuardToString(q, *ctx.alphabet());
            ASSERT_EQ(memo.CommitNow(ctx.guards(), q),
                      CommitNow(ctx.guards(), q))
                << "seed " << seed << " guard "
                << GuardToString(q, *ctx.alphabet());
          }
          ++compared;
          SymbolId next = symbols[rng.Next() % symbols.size()];
          EventLiteral lit(next, rng.Next() % 2 == 1);
          g = ReduceGuard(ctx.guards(), ctx.residuator(), g,
                          {AnnouncementKind::kOccurred, lit});
        }
      }
    }
  }
  EXPECT_GT(compared, 2000u);
}

// ---------------------------------------- cached ≡ uncached ReduceGuard

// Reduction through the shard-shared cache must return the *same interned
// node* as the plain recursive reduction, for occurrences and promises, on
// first sight (miss path) and on every repeat (hit path).
TEST(SymbolicCacheTest, CachedReductionIsPointerIdentical) {
  constexpr size_t kSymbols = 4;
  size_t compared = 0;
  uint64_t traffic = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    WorkflowContext ctx;
    CompiledWorkflow compiled = RandomCompiled(&ctx, seed * 613 + 3,
                                               kSymbols, 2);
    if (compiled.impossible()) continue;
    ReductionCache cache;
    Rng rng(seed * 17 + 1);
    std::vector<SymbolId> symbols(compiled.symbols().begin(),
                                  compiled.symbols().end());
    for (SymbolId symbol : symbols) {
      for (bool complemented : {false, true}) {
        const Guard* g =
            compiled.GuardFor(EventLiteral(symbol, complemented));
        for (int step = 0; step < 2 * static_cast<int>(kSymbols); ++step) {
          SymbolId next = symbols[rng.Next() % symbols.size()];
          EventLiteral lit(next, rng.Next() % 2 == 1);
          AnnouncementKind kind = rng.Next() % 3 == 0
                                      ? AnnouncementKind::kPromised
                                      : AnnouncementKind::kOccurred;
          Announcement ann{kind, lit};
          const Guard* plain =
              ReduceGuard(ctx.guards(), ctx.residuator(), g, ann);
          // Twice through the cache: the first call exercises the miss
          // path, the second the hit path.
          ASSERT_EQ(ReduceGuard(ctx.guards(), ctx.residuator(), g, ann,
                                &cache),
                    plain)
              << "seed " << seed;
          ASSERT_EQ(ReduceGuard(ctx.guards(), ctx.residuator(), g, ann,
                                &cache),
                    plain)
              << "seed " << seed;
          ++compared;
          if (kind == AnnouncementKind::kOccurred) g = plain;
        }
      }
    }
    traffic += cache.hits() + cache.misses();
  }
  EXPECT_GT(compared, 2000u);
  // Only composite (◇/∧/∨) nodes are memoized — atoms are cheaper than the
  // probe — so not every seed produces traffic, but the corpus must.
  EXPECT_GT(traffic, 0u);
}

// ----------------------------------------------------- counter plumbing

// The hit/miss counters behind the observability surface (GuardProfiler
// TopK reports, cdes-top, BENCH json) must actually move.
TEST(SymbolicCacheTest, CacheCountersReportTraffic) {
  WorkflowContext ctx;
  CompiledWorkflow compiled = RandomCompiled(&ctx, 1, 4, 2);
  for (uint64_t seed = 2; compiled.impossible() && seed <= 50; ++seed) {
    compiled = RandomCompiled(&ctx, seed, 4, 2);
  }
  ASSERT_FALSE(compiled.impossible());
  ReductionCache cache;
  obs::MetricsRegistry metrics;
  cache.AttachMetrics(&metrics);
  const Guard* g = compiled.GuardFor(
      EventLiteral::Positive(*compiled.symbols().begin()));
  Announcement ann{AnnouncementKind::kOccurred,
                   EventLiteral::Positive(*compiled.symbols().rbegin())};
  uint64_t before = ctx.residuator()->cache_hits() +
                    ctx.residuator()->cache_misses();
  ReduceGuard(ctx.guards(), ctx.residuator(), g, ann, &cache);
  ReduceGuard(ctx.guards(), ctx.residuator(), g, ann, &cache);
  if (cache.hits() + cache.misses() > 0) {
    EXPECT_EQ(metrics.counter("guards.reduction_cache_hits")->value(),
              cache.hits());
    EXPECT_EQ(metrics.counter("guards.reduction_cache_misses")->value(),
              cache.misses());
  }
  // Any ◇-bearing guard reduction residuates, so the residuator tallies
  // grow too (≥, not ==: the compile itself may have residuated already).
  EXPECT_GE(ctx.residuator()->cache_hits() + ctx.residuator()->cache_misses(),
            before);
}

}  // namespace
}  // namespace cdes
