#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/generator.h"
#include "algebra/trace.h"
#include "analysis/analyzer.h"
#include "analysis/model_checker.h"
#include "common/rng.h"
#include "common/strings.h"
#include "sched/guard_scheduler.h"
#include "spec/parser.h"

namespace cdes {
namespace {

using analysis::AnalyzeOptions;
using analysis::AnalyzeWorkflow;
using analysis::CheckResult;
using analysis::CheckWorkflow;
using analysis::Diagnostic;
using analysis::ModelCheckOptions;
using analysis::Rule;
using analysis::Severity;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string Fixture(const char* rel) {
  return std::string(CDES_SOURCE_DIR "/") + rel;
}

size_t Count(const std::vector<Diagnostic>& diagnostics, Rule rule) {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) n += d.rule == rule;
  return n;
}

const Diagnostic* Find(const std::vector<Diagnostic>& diagnostics, Rule rule) {
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

// ------------------------------------------------------- golden fixtures

TEST(ModelCheckerGoldenTest, ReachDeadlockFixture) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(
      &ctx, ReadFile(Fixture("examples/specs/bad/reach_deadlock.spec")));
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  // The fixture's whole point: the static analyzer is clean...
  std::vector<Diagnostic> statics = AnalyzeWorkflow(&ctx, parsed.value());
  EXPECT_FALSE(analysis::HasFindings(statics, Severity::kWarning))
      << analysis::FormatDiagnostics(statics);

  // ...and the reachability checker finds the path-dependent deadlock.
  CheckResult result = CheckWorkflow(&ctx, parsed.value());
  EXPECT_FALSE(result.stats.bounded) << result.stats.bound_reason;
  EXPECT_EQ(result.stats.deadlock_states, 1u);
  ASSERT_EQ(Count(result.diagnostics, Rule::kReachableDeadlock), 1u);
  const Diagnostic& d = *Find(result.diagnostics, Rule::kReachableDeadlock);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("blocked by dependency 'left'"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("blocked by dependency 'right'"), std::string::npos)
      << d.message;

  // Shortest counterexample: boot the s_go branch, then decide the four
  // padding events — six steps, starting s_init then s_go; the pads can
  // come in any discovery order.
  ASSERT_EQ(d.trace.size(), 6u);
  EXPECT_EQ(d.trace[0].literal, "s_init");
  EXPECT_EQ(d.trace[0].dependency, "boot");
  EXPECT_EQ(d.trace[1].literal, "s_go");
  std::vector<std::string> pads;
  for (size_t i = 2; i < d.trace.size(); ++i) {
    pads.push_back(d.trace[i].literal);
    // Satellite requirement: every step carries its owning dependency's
    // source location.
    EXPECT_TRUE(d.trace[i].loc.known()) << d.trace[i].literal;
    EXPECT_FALSE(d.trace[i].dependency.empty());
  }
  std::sort(pads.begin(), pads.end());
  EXPECT_EQ(pads, (std::vector<std::string>{"p1", "p2", "p3", "p4"}));

  // The blocked events are still live on other branches, so they are not
  // CL021; the wedge is the only finding.
  EXPECT_EQ(Count(result.diagnostics, Rule::kUnreachableEvent), 0u);
  EXPECT_EQ(Count(result.diagnostics, Rule::kGuardSpecMismatch), 0u);
}

TEST(ModelCheckerGoldenTest, UnreachableEventFixture) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(
      &ctx, ReadFile(Fixture("examples/specs/bad/unreachable_event.spec")));
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  std::vector<Diagnostic> statics = AnalyzeWorkflow(&ctx, parsed.value());
  EXPECT_FALSE(analysis::HasFindings(statics, Severity::kWarning))
      << analysis::FormatDiagnostics(statics);

  CheckResult result = CheckWorkflow(&ctx, parsed.value());
  EXPECT_FALSE(result.stats.bounded) << result.stats.bound_reason;
  EXPECT_GT(result.stats.accepted_states, 0u);
  EXPECT_EQ(result.stats.deadlock_states, 0u);
  ASSERT_EQ(Count(result.diagnostics, Rule::kUnreachableEvent), 1u);
  const Diagnostic& d = *Find(result.diagnostics, Rule::kUnreachableEvent);
  EXPECT_NE(d.message.find("'g'"), std::string::npos) << d.message;
  EXPECT_TRUE(d.loc.known());
  EXPECT_EQ(Count(result.diagnostics, Rule::kReachableDeadlock), 0u);
  EXPECT_EQ(Count(result.diagnostics, Rule::kGuardSpecMismatch), 0u);
}

TEST(ModelCheckerGoldenTest, ShippedGoodSpecsVerifyClean) {
  for (const char* rel : {"examples/specs/travel.wf", "examples/specs/order.wf",
                          "examples/specs/travel_template.wf"}) {
    WorkflowContext ctx;
    auto parsed = ParseWorkflows(&ctx, ReadFile(Fixture(rel)), rel);
    ASSERT_TRUE(parsed.ok()) << rel << ": " << parsed.status();
    for (const ParsedWorkflow& w : parsed.value()) {
      CheckResult result = CheckWorkflow(&ctx, w);
      EXPECT_TRUE(result.diagnostics.empty())
          << rel << ": " << analysis::FormatDiagnostics(result.diagnostics);
      EXPECT_FALSE(result.stats.bounded)
          << rel << ": " << result.stats.bound_reason;
      EXPECT_GT(result.stats.accepted_states, 0u) << rel;
    }
  }
}

// ------------------------------------------------- budgets and bounding

TEST(ModelCheckerBudgetTest, StateBudgetSuppressesAbsenceRules) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(
      &ctx, ReadFile(Fixture("examples/specs/bad/unreachable_event.spec")));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ModelCheckOptions options;
  options.max_states = 2;
  CheckResult result = CheckWorkflow(&ctx, parsed.value(), options);
  EXPECT_TRUE(result.stats.bounded);
  EXPECT_NE(result.stats.bound_reason.find("state budget"), std::string::npos)
      << result.stats.bound_reason;
  // CL021/CL022 are absence claims; a bounded run must not make them.
  EXPECT_EQ(Count(result.diagnostics, Rule::kUnreachableEvent), 0u);
  EXPECT_EQ(Count(result.diagnostics, Rule::kUnexercisedDep), 0u);
}

TEST(ModelCheckerBudgetTest, SymbolCapReportsBoundedNotExplored) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(
      &ctx, ReadFile(Fixture("examples/specs/bad/reach_deadlock.spec")));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ModelCheckOptions options;
  options.max_symbols = 4;  // the fixture mentions 8
  CheckResult result = CheckWorkflow(&ctx, parsed.value(), options);
  EXPECT_TRUE(result.stats.bounded);
  EXPECT_EQ(result.stats.states_explored, 0u);
  EXPECT_TRUE(result.diagnostics.empty());
}

// ------------------------------------------ satellite: location fallback

TEST(ModelCheckerLocationTest, Cl005FallsBackToDependencyLocation) {
  // A programmatic workflow with no event declarations: CL005 (and CL008)
  // used to print the default-constructed 0:0; now they anchor at the
  // first dependency mentioning the symbol.
  WorkflowContext ctx;
  SymbolId e = ctx.alphabet()->Intern("e");
  SymbolId f = ctx.alphabet()->Intern("f");
  ExprArena* arena = ctx.exprs();
  auto atom = [&](SymbolId s, bool c) {
    return arena->Atom(EventLiteral(s, c));
  };
  ParsedWorkflow w;
  w.name = "prog";
  // first: ~e + f.e ; second: ~f + e.f — the CL005 mutual wait.
  w.spec.Add("first",
             arena->Or(atom(e, true),
                       arena->Seq(atom(f, false), atom(e, false))),
             SourceLocation{7, 3});
  w.spec.Add("second",
             arena->Or(atom(f, true),
                       arena->Seq(atom(e, false), atom(f, false))),
             SourceLocation{8, 3});
  std::vector<Diagnostic> diagnostics = AnalyzeWorkflow(&ctx, w);
  const Diagnostic* d = Find(diagnostics, Rule::kStaticDeadlock);
  ASSERT_NE(d, nullptr) << analysis::FormatDiagnostics(diagnostics);
  EXPECT_TRUE(d->loc.known());
  EXPECT_EQ(d->loc.line, 7);
  EXPECT_EQ(d->loc.column, 3);
}

// --------------------------------------------------- property: semantics

// Random spec fodder: `count` dependencies over `symbols` pre-interned
// symbols, drawn without constants so every dependency says something.
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

// The checker's acceptance predicate must agree with the declarative
// Definition 4 (CompiledWorkflow::Generates) on *every* maximal trace —
// this is what makes CL023 an actual Theorem 6 check rather than a third
// semantics.
TEST(ModelCheckerPropertyTest, GuardAcceptsAgreesWithGeneratesEverywhere) {
  constexpr size_t kSymbols = 4;
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    WorkflowContext ctx;
    for (size_t i = 0; i < kSymbols; ++i) {
      ctx.alphabet()->Intern(StrCat("e", i));
    }
    Rng rng(seed);
    ParsedWorkflow w;
    w.name = "rnd";
    size_t d = 0;
    for (const Expr* expr : RandomDeps(&ctx, &rng, kSymbols, 2)) {
      w.spec.Add(StrCat("d", d++), expr);
    }
    CompiledWorkflow compiled = CompileWorkflow(&ctx, w.spec);
    if (compiled.impossible() || compiled.symbols().size() != kSymbols) {
      continue;  // trivial, or some symbol unmentioned (trace mismatch)
    }
    analysis::StateSpace space(&ctx, compiled);
    for (const Trace& u : EnumerateMaximalTraces(kSymbols)) {
      bool generates = compiled.Generates(u);
      ASSERT_EQ(space.GuardAccepts(u), generates)
          << "seed " << seed << " trace "
          << TraceToString(u, *ctx.alphabet());
      // Theorem 6 on the side: generated ⇔ satisfies-all.
      ASSERT_EQ(generates, SatisfiesAll(w.spec, u))
          << "seed " << seed << " trace "
          << TraceToString(u, *ctx.alphabet());
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);  // the skip-guard must not eat the test
}

// Partial-order reduction is an optimization, not a semantics: rule
// counts, acceptance stats, and deadlock stats must be identical with it
// on and off; only states_explored may shrink.
TEST(ModelCheckerPropertyTest, PartialOrderReductionPreservesFindings) {
  constexpr size_t kSymbols = 5;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    WorkflowContext ctx;
    for (size_t i = 0; i < kSymbols; ++i) {
      ctx.alphabet()->Intern(StrCat("e", i));
    }
    Rng rng(seed * 977 + 11);
    ParsedWorkflow w;
    w.name = "rnd";
    size_t d = 0;
    for (const Expr* expr : RandomDeps(&ctx, &rng, kSymbols, 3)) {
      w.spec.Add(StrCat("d", d++), expr);
    }
    if (CompileWorkflow(&ctx, w.spec).impossible()) continue;
    ModelCheckOptions naive;
    naive.partial_order_reduction = false;
    ModelCheckOptions reduced;
    reduced.partial_order_reduction = true;
    CheckResult full = CheckWorkflow(&ctx, w, naive);
    CheckResult por = CheckWorkflow(&ctx, w, reduced);
    ASSERT_FALSE(full.stats.bounded) << seed;
    ASSERT_FALSE(por.stats.bounded) << seed;
    for (Rule rule : {Rule::kReachableDeadlock, Rule::kUnreachableEvent,
                      Rule::kUnexercisedDep, Rule::kGuardSpecMismatch}) {
      EXPECT_EQ(Count(full.diagnostics, rule), Count(por.diagnostics, rule))
          << "seed " << seed << " rule " << analysis::RuleCode(rule) << "\n"
          << "naive:\n" << analysis::FormatDiagnostics(full.diagnostics)
          << "por:\n" << analysis::FormatDiagnostics(por.diagnostics);
    }
    EXPECT_EQ(full.stats.accepted_states, por.stats.accepted_states) << seed;
    EXPECT_EQ(full.stats.deadlock_states > 0, por.stats.deadlock_states > 0)
        << seed;
    EXPECT_LE(por.stats.states_explored, full.stats.states_explored) << seed;
  }
}

// ------------------------------------- property: scheduler closure check

// Every history the runtime scheduler actually produces (attempts plus
// Close()) must be a member of the checker's accepted maximal-trace set —
// the paper's declarative semantics (Definition 4) as the oracle. Two
// networks: every actor on one site, and one actor per site on a jittered
// non-FIFO 4-site network, where announcements reach actors out of stamp
// order and each actor must still fold what it heard in stamp order.
// Counts into `*closed` the seeds whose closure was cross-checked.
void CheckSchedulerClosures(bool jittered, size_t* closed) {
  constexpr size_t kSymbols = 4;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    WorkflowContext gen_ctx;
    for (size_t i = 0; i < kSymbols; ++i) {
      gen_ctx.alphabet()->Intern(StrCat("e", i));
    }
    Rng rng(seed * 131 + 7);
    std::string text = "workflow rnd {\n";
    if (jittered) {
      for (size_t i = 0; i < kSymbols; ++i) {
        text += StrCat("  agent a", i, " @ site(", i, ");\n");
        text += StrCat("  event e", i, " agent(a", i, ");\n");
      }
    } else {
      text += "  agent a @ site(0);\n";
      for (size_t i = 0; i < kSymbols; ++i) {
        text += StrCat("  event e", i, " agent(a);\n");
      }
    }
    size_t d = 0;
    for (const Expr* expr : RandomDeps(&gen_ctx, &rng, kSymbols, 2)) {
      text += StrCat("  dep d", d++, ": ",
                     ExprToString(expr, *gen_ctx.alphabet()), ";\n");
    }
    text += "}\n";

    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    CompiledWorkflow compiled = CompileWorkflow(&ctx, parsed.value().spec);
    if (compiled.impossible()) continue;

    // Only drive the scheduler on specs the checker proved wedge-free:
    // a deadlocked spec would park the closure forever.
    CheckResult result = CheckWorkflow(&ctx, parsed.value());
    ASSERT_FALSE(result.stats.bounded) << seed;
    if (result.stats.deadlock_states > 0 ||
        result.stats.accepted_states == 0) {
      continue;
    }

    Simulator sim;
    NetworkOptions nopts;
    nopts.base_latency = 50;
    nopts.seed = seed;
    if (jittered) {
      nopts.jitter = 400;
      nopts.fifo_links = false;
    }
    Network network(&sim, 4, nopts);
    GuardScheduler sched(&ctx, parsed.value(), &network);
    // Attempt a random half of the events positively, then close. On the
    // jittered network the attempts are concurrent, so their announcements
    // race each other.
    for (size_t i = 0; i < kSymbols; ++i) {
      if (rng.Next() % 2 == 0) {
        auto lit = ctx.alphabet()->ParseLiteral(StrCat("e", i));
        ASSERT_TRUE(lit.ok());
        sched.Attempt(lit.value(), AttemptCallback());
        if (!jittered) sim.Run();
      }
    }
    sim.Run();
    for (int round = 0; round < 8 && !sched.Undecided().empty(); ++round) {
      sched.Close();
      sim.Run();
    }
    if (!sched.Undecided().empty()) continue;  // parked on a doomed attempt
    if (!sched.HistoryConsistent(true)) continue;

    analysis::StateSpace space(&ctx, compiled);
    EXPECT_TRUE(space.GuardAccepts(sched.history()))
        << (jittered ? "jittered, " : "") << "seed " << seed << " history "
        << TraceToString(sched.history(), *ctx.alphabet()) << "\n" << text;
    ++*closed;
  }
}

TEST(ModelCheckerPropertyTest, SchedulerClosureIsAcceptedByChecker) {
  // Most random seeds wedge, self-contradict, or park a doomed attempt and
  // are rightly skipped; what matters is a healthy count of full closures
  // actually cross-checked against the accepted set.
  for (bool jittered : {false, true}) {
    size_t closed = 0;
    CheckSchedulerClosures(jittered, &closed);
    EXPECT_GT(closed, 10u) << (jittered ? "jittered" : "single site");
  }
}

}  // namespace
}  // namespace cdes
