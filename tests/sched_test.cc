#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "algebra/generator.h"
#include "common/strings.h"
#include "sched/automata_scheduler.h"
#include "sched/guard_scheduler.h"
#include "sched/residuation_scheduler.h"
#include "spec/parser.h"

namespace cdes {
namespace {

constexpr char kPrecedesSpec[] = R"(
workflow prec {
  agent a @ site(0);
  agent b @ site(1);
  event e agent(a);
  event f agent(b);
  dep d: e < f;
}
)";

constexpr char kTravelSpec[] = R"(
workflow travel {
  agent air @ site(0);
  agent car @ site(1);
  event s_buy    agent(air);
  event c_buy    agent(air);
  event s_book   agent(car) attrs(triggerable);
  event c_book   agent(car);
  event s_cancel agent(car) attrs(triggerable);
  dep d1: ~s_buy + s_book;
  dep d2: ~c_buy + c_book . c_buy;
  dep d3: ~c_book + c_buy + s_cancel;
}
)";

struct World {
  explicit World(const char* spec_text, uint64_t seed = 1,
                 GuardSchedulerOptions options = {}) {
    auto parsed = ParseWorkflow(&ctx, spec_text);
    CDES_CHECK(parsed.ok()) << parsed.status();
    workflow = std::move(parsed).value();
    NetworkOptions nopts;
    nopts.base_latency = 100;
    nopts.seed = seed;
    network = std::make_unique<Network>(&sim, 8, nopts);
    sched = std::make_unique<GuardScheduler>(&ctx, workflow, network.get(),
                                             options);
  }

  EventLiteral Lit(std::string_view name) {
    auto r = ctx.alphabet()->ParseLiteral(name);
    CDES_CHECK(r.ok()) << r.status();
    return r.value();
  }

  Decision AttemptAndRun(std::string_view name) {
    Decision last = Decision::kParked;
    bool got = false;
    sched->Attempt(Lit(name), [&](Decision d) {
      last = d;
      got = true;
    });
    sim.Run();
    CDES_CHECK(got);
    return last;
  }

  std::string History() {
    return TraceToString(sched->history(), *ctx.alphabet());
  }

  WorkflowContext ctx;
  Simulator sim;
  std::unique_ptr<Network> network;
  ParsedWorkflow workflow;
  std::unique_ptr<GuardScheduler> sched;
};

// ------------------------------------------------ GuardScheduler basics

TEST(GuardSchedulerTest, PrecedesInOrderAccepts) {
  World w(kPrecedesSpec);
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kAccepted);
  EXPECT_EQ(w.AttemptAndRun("f"), Decision::kAccepted);
  EXPECT_EQ(w.History(), "<e f>");
  EXPECT_TRUE(w.sched->HistoryConsistent(true));
}

TEST(GuardSchedulerTest, Example10FAttemptedFirstParksThenNotEEnables) {
  // Example 10: f attempted first is parked; ē then occurs right away and
  // f is enabled when the announcement arrives.
  World w(kPrecedesSpec);
  std::vector<Decision> f_decisions;
  w.sched->Attempt(w.Lit("f"), [&](Decision d) { f_decisions.push_back(d); });
  w.sim.Run();
  ASSERT_EQ(f_decisions.size(), 1u);
  EXPECT_EQ(f_decisions[0], Decision::kParked);
  EXPECT_EQ(w.sched->parked_count(), 1u);

  EXPECT_EQ(w.AttemptAndRun("~e"), Decision::kAccepted);
  ASSERT_EQ(f_decisions.size(), 2u);
  EXPECT_EQ(f_decisions[1], Decision::kAccepted);
  EXPECT_EQ(w.History(), "<~e f>");
  EXPECT_TRUE(w.sched->HistoryConsistent(true));
}

TEST(GuardSchedulerTest, ParkedFUnblockedByE) {
  World w(kPrecedesSpec);
  std::vector<Decision> f_decisions;
  w.sched->Attempt(w.Lit("f"), [&](Decision d) { f_decisions.push_back(d); });
  w.sim.Run();
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kAccepted);
  ASSERT_EQ(f_decisions.size(), 2u);
  EXPECT_EQ(f_decisions[1], Decision::kAccepted);
  EXPECT_EQ(w.History(), "<e f>");
}

TEST(GuardSchedulerTest, ComplementsAlwaysFree) {
  World w(kPrecedesSpec);
  EXPECT_EQ(w.AttemptAndRun("~f"), Decision::kAccepted);
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kAccepted);
  EXPECT_TRUE(w.sched->HistoryConsistent(true));
}

TEST(GuardSchedulerTest, RepeatAttemptOfOccurredEventAccepted) {
  World w(kPrecedesSpec);
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kAccepted);
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kAccepted);
  EXPECT_EQ(w.AttemptAndRun("~e"), Decision::kRejected);
  EXPECT_EQ(w.History(), "<e>");
}

TEST(GuardSchedulerTest, UnconstrainedEventAcceptsImmediately) {
  World w(kPrecedesSpec);
  SymbolId z = w.ctx.alphabet()->Intern("z");
  Decision d = Decision::kParked;
  w.sched->Attempt(EventLiteral::Positive(z), [&](Decision got) { d = got; });
  EXPECT_EQ(d, Decision::kAccepted);
}

// --------------------------------------------------- Example 11 promises

TEST(GuardSchedulerTest, MutualImplicationResolvedByPromises) {
  constexpr char kMutual[] = R"(
workflow mutual {
  event e;
  event f;
  dep d1: e -> f;
  dep d2: f -> e;
}
)";
  World w(kMutual);
  std::vector<Decision> e_decisions, f_decisions;
  w.sched->Attempt(w.Lit("e"), [&](Decision d) { e_decisions.push_back(d); });
  w.sched->Attempt(w.Lit("f"), [&](Decision d) { f_decisions.push_back(d); });
  w.sim.Run();
  ASSERT_FALSE(e_decisions.empty());
  ASSERT_FALSE(f_decisions.empty());
  EXPECT_EQ(e_decisions.back(), Decision::kAccepted);
  EXPECT_EQ(f_decisions.back(), Decision::kAccepted);
  EXPECT_EQ(w.sched->history().size(), 2u);
  EXPECT_TRUE(w.sched->HistoryConsistent(true));
  // Message breakdown of the handshake: each side requests a promise,
  // each grants one, each announces its occurrence to the other.
  auto sent = [&](const char* kind) {
    return w.sched->metrics()->counter(StrCat("sched.msgs.", kind))->value();
  };
  EXPECT_EQ(sent("promise_request"), 2u);
  EXPECT_EQ(sent("promise"), 2u);
  EXPECT_EQ(sent("announce"), 2u);
  EXPECT_EQ(sent("trigger"), 0u);
}

TEST(GuardSchedulerTest, MutualImplicationDeadlocksWithoutPromises) {
  constexpr char kMutual[] = R"(
workflow mutual {
  event e;
  event f;
  dep d1: e -> f;
  dep d2: f -> e;
}
)";
  GuardSchedulerOptions options;
  options.enable_promises = false;
  World w(kMutual, 1, options);
  std::vector<Decision> decisions;
  w.sched->Attempt(w.Lit("e"), [&](Decision d) { decisions.push_back(d); });
  w.sched->Attempt(w.Lit("f"), [&](Decision d) { decisions.push_back(d); });
  w.sim.Run();
  EXPECT_EQ(decisions, (std::vector<Decision>{Decision::kParked,
                                              Decision::kParked}));
  EXPECT_EQ(w.sched->parked_count(), 2u);
  EXPECT_TRUE(w.sched->history().empty());
}

TEST(GuardSchedulerTest, OneSidedImplicationNeedsNoPromiseToProceed) {
  // Only e -> f: f is unconstrained; e parks until f's occurrence or
  // promise. Attempting f directly unblocks e.
  constexpr char kOneSided[] = R"(
workflow one {
  event e;
  event f;
  dep d1: e -> f;
}
)";
  World w(kOneSided);
  std::vector<Decision> e_decisions;
  w.sched->Attempt(w.Lit("e"), [&](Decision d) { e_decisions.push_back(d); });
  w.sim.Run();
  EXPECT_EQ(e_decisions.back(), Decision::kParked);
  EXPECT_EQ(w.AttemptAndRun("f"), Decision::kAccepted);
  EXPECT_EQ(e_decisions.back(), Decision::kAccepted);
  EXPECT_EQ(w.History(), "<f e>");
}

// ------------------------------------------------ Travel workflow (Ex. 4)

TEST(GuardSchedulerTest, TravelHappyPathTriggersBooking) {
  World w(kTravelSpec);
  // Starting buy requires book to start; s_book is triggerable, so the
  // scheduler causes it proactively (§2).
  EXPECT_EQ(w.AttemptAndRun("s_buy"), Decision::kAccepted);
  const Trace& h = w.sched->history();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(w.ctx.alphabet()->LiteralName(h[0]), "s_book");
  EXPECT_EQ(w.ctx.alphabet()->LiteralName(h[1]), "s_buy");

  // Commit book, then commit buy (order enforced by d2).
  EXPECT_EQ(w.AttemptAndRun("c_book"), Decision::kAccepted);
  EXPECT_EQ(w.AttemptAndRun("c_buy"), Decision::kAccepted);
  EXPECT_TRUE(w.sched->HistoryConsistent());
  EXPECT_EQ(w.sched->violations(), 0u);
}

TEST(GuardSchedulerTest, TravelCommitOrderEnforced) {
  World w(kTravelSpec);
  ASSERT_EQ(w.AttemptAndRun("s_buy"), Decision::kAccepted);
  // Attempting c_buy before c_book parks it (guard □c_book).
  std::vector<Decision> c_buy_decisions;
  w.sched->Attempt(w.Lit("c_buy"),
                   [&](Decision d) { c_buy_decisions.push_back(d); });
  w.sim.Run();
  EXPECT_EQ(c_buy_decisions.back(), Decision::kParked);
  EXPECT_EQ(w.AttemptAndRun("c_book"), Decision::kAccepted);
  EXPECT_EQ(c_buy_decisions.back(), Decision::kAccepted);
  EXPECT_TRUE(w.sched->HistoryConsistent());
}

TEST(GuardSchedulerTest, TravelCompensationTriggersCancel) {
  // Abort path: book committed but buy never commits; d3 forces the
  // compensating s_cancel, which the scheduler triggers.
  World w(kTravelSpec);
  ASSERT_EQ(w.AttemptAndRun("s_buy"), Decision::kAccepted);
  ASSERT_EQ(w.AttemptAndRun("c_book"), Decision::kAccepted);
  EXPECT_EQ(w.AttemptAndRun("~c_buy"), Decision::kAccepted);
  // s_cancel must have been triggered to license ~c_buy.
  bool cancelled = false;
  for (EventLiteral l : w.sched->history()) {
    cancelled |= (w.ctx.alphabet()->LiteralName(l) == "s_cancel");
  }
  EXPECT_TRUE(cancelled);
  EXPECT_TRUE(w.sched->HistoryConsistent());
}

// ------------------------------------------------- Attribute handling

// Two symbol-disjoint instances whose symbol ids interleave (a* even, b*
// odd), one installed by the compiled constructor and one by AddInstance:
// everything the scheduler walks over all installed symbols — Undecided(),
// Close()'s complement attempts, a broadcast's targets — comes out in
// ascending symbol order across both instances, because send order fixes
// the simulator's sequence numbers.
constexpr char kOrderSpecA[] = R"(
workflow a {
  agent p @ site(0);
  agent q @ site(1);
  event a1 agent(p);
  event a2 agent(q) attrs(triggerable);
  event a3 agent(q);
  dep d1: a1 < a3;
  dep d2: a1 < a2;
}
)";
constexpr char kOrderSpecB[] = R"(
workflow b {
  agent p @ site(0);
  agent q @ site(1);
  event b1 agent(p);
  event b2 agent(q);
  event b3 agent(q) attrs(triggerable);
  dep e1: b1 < b3;
  dep e2: b1 < b2;
}
)";

TEST(GuardSchedulerTest, InstancesIterateInAscendingSymbolOrder) {
  WorkflowContext ctx;
  for (const char* name : {"a1", "b1", "a2", "b2", "a3", "b3", "z"}) {
    ctx.alphabet()->Intern(name);
  }
  auto a = ParseWorkflow(&ctx, kOrderSpecA);
  auto b = ParseWorkflow(&ctx, kOrderSpecB);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  Simulator sim;
  NetworkOptions nopts;
  nopts.base_latency = 100;
  Network net(&sim, 2, nopts);
  obs::TraceRecorder tracer;
  GuardSchedulerOptions options;
  options.tracer = &tracer;
  CompiledWorkflowRef compiled = CompileWorkflowShared(&ctx, a.value().spec);
  GuardScheduler sched(&ctx, compiled, a.value(), &net, options);
  ASSERT_TRUE(sched.AddInstance(b.value()).ok());
  auto lit = [&](std::string_view name) {
    return ctx.alphabet()->ParseLiteral(name).value();
  };
  auto names = [&](const std::vector<SymbolId>& symbols) {
    std::vector<std::string> out;
    for (SymbolId s : symbols) out.push_back(ctx.alphabet()->Name(s));
    return out;
  };
  const std::vector<std::string> all = {"a1", "b1", "a2", "b2", "a3", "b3"};
  EXPECT_EQ(names(sched.Undecided()), all);
  EXPECT_EQ(names(sched.symbols()), all);

  // A symbol outside both instances: no actor, ⊤ guards, never triggered,
  // and its attempts are accepted without coordination.
  const Guard* top = ctx.guards()->True();
  EXPECT_EQ(sched.actor(lit("z").symbol()), nullptr);
  EXPECT_EQ(sched.CompiledGuardOf(lit("z")), top);
  EXPECT_EQ(sched.CompiledGuardOf(lit("~z")), top);
  EXPECT_EQ(sched.CurrentGuardOf(lit("z")), top);
  EXPECT_FALSE(sched.MayTrigger(lit("z")));
  EXPECT_FALSE(sched.MayTrigger(lit("~z")));
  EXPECT_EQ(sched.CompiledGuardOf(lit("~a3")),
            compiled->GuardFor(lit("~a3")));
  EXPECT_TRUE(sched.MayTrigger(lit("a2")));
  EXPECT_TRUE(sched.MayTrigger(lit("b3")));
  EXPECT_FALSE(sched.MayTrigger(lit("~a2")));
  EXPECT_FALSE(sched.MayTrigger(lit("a1")));
  Decision z_decision = Decision::kParked;
  sched.Attempt(lit("z"), [&](Decision d) { z_decision = d; });
  EXPECT_EQ(z_decision, Decision::kAccepted);

  // Every a1/b1 subscriber hears the occurrence, in ascending symbol order
  // (d1/e1 name the higher-numbered subscriber first).
  sched.Attempt(lit("a1"), AttemptCallback());
  sched.Attempt(lit("b1"), AttemptCallback());
  sim.Run();
  std::vector<std::string> announced;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.name != "announce a1" && event.name != "announce b1") continue;
    for (const auto& [key, value] : event.args) {
      if (key == "to") announced.push_back(event.name + " to " + value);
    }
  }
  EXPECT_EQ(announced,
            (std::vector<std::string>{"announce a1 to a2", "announce a1 to a3",
                                      "announce b1 to b2",
                                      "announce b1 to b3"}));

  // Close() attempts the complement of every undecided symbol in ascending
  // symbol order, interleaving the two instances.
  size_t first = tracer.events().size();
  sched.Close();
  std::vector<std::string> closing;
  for (size_t i = first; i < tracer.events().size(); ++i) {
    const std::string& name = tracer.events()[i].name;
    if (name.rfind("attempt ", 0) == 0) closing.push_back(name);
  }
  EXPECT_EQ(closing, (std::vector<std::string>{"attempt ~a2", "attempt ~b2",
                                               "attempt ~a3", "attempt ~b3"}));
  sim.Run();
  EXPECT_TRUE(sched.HistoryConsistent());
}

TEST(GuardSchedulerTest, NonRejectableEventForcedThroughZeroGuard) {
  constexpr char kAbort[] = R"(
workflow ab {
  event abort attrs(nonrejectable);
  dep d: ~abort;   # the specification forbids abort outright
}
)";
  World w(kAbort);
  // abort's guard is 0 (the dependency requires it never to occur), but
  // §3.3: the scheduler has no choice but to accept nonrejectable events.
  EXPECT_EQ(w.AttemptAndRun("abort"), Decision::kAccepted);
  EXPECT_EQ(w.sched->violations(), 1u);
  EXPECT_FALSE(w.sched->HistoryConsistent());
}

TEST(GuardSchedulerTest, RejectableEventRejectedByZeroGuard) {
  constexpr char kForbidden[] = R"(
workflow fb {
  event e;
  dep d: ~e;
}
)";
  World w(kForbidden);
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kRejected);
  EXPECT_TRUE(w.sched->history().empty());
  EXPECT_EQ(w.AttemptAndRun("~e"), Decision::kAccepted);
}

TEST(GuardSchedulerTest, NonDelayableRejectableEventRejectedWhenBlocked) {
  constexpr char kNd[] = R"(
workflow nd {
  event e attrs(nondelayable);
  event f;
  dep d: f < e;   # e must follow f when both occur... e needs f decided
}
)";
  World w(kNd);
  // e's guard is ◇f̄ + □f (Example 9.8 with roles swapped): blocked now.
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kRejected);
  EXPECT_TRUE(w.sched->history().empty());
}

// ------------------------------------------- Centralized baselines

template <typename SchedulerT>
struct CentralWorld {
  explicit CentralWorld(const char* spec_text) {
    auto parsed = ParseWorkflow(&ctx, spec_text);
    CDES_CHECK(parsed.ok()) << parsed.status();
    workflow = std::move(parsed).value();
    NetworkOptions nopts;
    nopts.base_latency = 100;
    network = std::make_unique<Network>(&sim, 8, nopts);
    sched = std::make_unique<SchedulerT>(&ctx, workflow, network.get());
  }

  EventLiteral Lit(std::string_view name) {
    auto r = ctx.alphabet()->ParseLiteral(name);
    CDES_CHECK(r.ok()) << r.status();
    return r.value();
  }

  Decision AttemptAndRun(std::string_view name) {
    Decision last = Decision::kParked;
    sched->Attempt(Lit(name), [&](Decision d) { last = d; });
    sim.Run();
    return last;
  }

  WorkflowContext ctx;
  Simulator sim;
  std::unique_ptr<Network> network;
  ParsedWorkflow workflow;
  std::unique_ptr<SchedulerT> sched;
};

TEST(ResiduationSchedulerTest, Figure2Narrative) {
  // Fig 2: "if f happens, then only ē must happen afterwards (e cannot be
  // permitted any more)". The centralized scheduler accepts f first and
  // rejects a later e.
  CentralWorld<ResiduationScheduler> w(kPrecedesSpec);
  EXPECT_EQ(w.AttemptAndRun("f"), Decision::kAccepted);
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kRejected);
  EXPECT_EQ(w.AttemptAndRun("~e"), Decision::kAccepted);
  EXPECT_EQ(TraceToString(w.sched->history(), *w.ctx.alphabet()), "<f ~e>");
}

TEST(ResiduationSchedulerTest, InOrderAccepts) {
  CentralWorld<ResiduationScheduler> w(kPrecedesSpec);
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kAccepted);
  EXPECT_EQ(w.AttemptAndRun("f"), Decision::kAccepted);
  // Residual of d is ⊤ once both occurred in order.
  EXPECT_TRUE(w.sched->ResidualOf(0)->IsTop());
}

TEST(ResiduationSchedulerTest, ParkedAttemptResolvesOnLaterOccurrence) {
  // Chain e.f: f parked until e occurs.
  constexpr char kChain[] = R"(
workflow ch {
  event e;
  event f;
  dep d: e . f;
}
)";
  CentralWorld<ResiduationScheduler> w(kChain);
  std::vector<Decision> f_decisions;
  w.sched->Attempt(w.Lit("f"), [&](Decision d) { f_decisions.push_back(d); });
  w.sim.Run();
  EXPECT_EQ(f_decisions.back(), Decision::kParked);
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kAccepted);
  EXPECT_EQ(f_decisions.back(), Decision::kAccepted);
  // ~f is rejected under chain dependency (f must occur).
  EXPECT_EQ(w.AttemptAndRun("~e"), Decision::kRejected);
}

TEST(ResiduationSchedulerTest, ComplementOfRequiredEventRejected) {
  constexpr char kChain[] = R"(
workflow ch {
  event e;
  event f;
  dep d: e . f;
}
)";
  CentralWorld<ResiduationScheduler> w(kChain);
  EXPECT_EQ(w.AttemptAndRun("~e"), Decision::kRejected);
  EXPECT_EQ(w.AttemptAndRun("~f"), Decision::kRejected);
  EXPECT_EQ(w.AttemptAndRun("e"), Decision::kAccepted);
  EXPECT_EQ(w.AttemptAndRun("f"), Decision::kAccepted);
}

TEST(AutomataSchedulerTest, PrecompiledStatesMatchFigure2) {
  CentralWorld<AutomataScheduler> w(kPrecedesSpec);
  ASSERT_EQ(w.sched->automata().size(), 1u);
  // D_< has 5 reachable residuals (incl. ⊤ and 0).
  EXPECT_EQ(w.sched->total_states(), 5u);
  EXPECT_GT(w.sched->total_transitions(), 0u);
}

TEST(AutomataSchedulerTest, MatchesResiduationDecisions) {
  // Property: on identical sequential workloads the automata scheduler
  // makes exactly the decisions of the residuation scheduler.
  Rng rng(2025);
  RandomExprOptions options;
  options.symbol_count = 3;
  options.max_depth = 3;
  for (int iter = 0; iter < 25; ++iter) {
    WorkflowContext ctx_a, ctx_b;
    // Build the same random workflow in both contexts.
    std::string spec_text = "workflow r { event a; event b; event c;\n";
    {
      WorkflowContext scratch;
      Rng local(iter * 7919 + 13);
      const Expr* d1 = GenerateRandomExpr(scratch.exprs(), &local, options);
      const Expr* d2 = GenerateRandomExpr(scratch.exprs(), &local, options);
      Alphabet names;
      names.Intern("a");
      names.Intern("b");
      names.Intern("c");
      spec_text += StrCat("  dep d1: ", ExprToString(d1, names), ";\n");
      spec_text += StrCat("  dep d2: ", ExprToString(d2, names), ";\n}");
    }
    auto wa = ParseWorkflow(&ctx_a, spec_text);
    auto wb = ParseWorkflow(&ctx_b, spec_text);
    ASSERT_TRUE(wa.ok()) << wa.status() << "\n" << spec_text;
    ASSERT_TRUE(wb.ok());

    Simulator sim_a, sim_b;
    NetworkOptions nopts;
    Network net_a(&sim_a, 2, nopts), net_b(&sim_b, 2, nopts);
    ResiduationScheduler rs(&ctx_a, wa.value(), &net_a);
    AutomataScheduler as(&ctx_b, wb.value(), &net_b);

    // Random attempt order over all literals.
    std::vector<std::string> names = {"a", "b", "c", "~a", "~b", "~c"};
    for (size_t i = names.size(); i > 1; --i) {
      std::swap(names[i - 1], names[rng.Uniform(i)]);
    }
    for (const std::string& n : names) {
      std::map<std::string, Decision> last;
      auto lit_a = ctx_a.alphabet()->ParseLiteral(n);
      auto lit_b = ctx_b.alphabet()->ParseLiteral(n);
      ASSERT_TRUE(lit_a.ok() && lit_b.ok());
      rs.Attempt(lit_a.value(), [&](Decision d) { last["r"] = d; });
      as.Attempt(lit_b.value(), [&](Decision d) { last["a"] = d; });
      sim_a.Run();
      sim_b.Run();
      EXPECT_EQ(static_cast<int>(last["r"]), static_cast<int>(last["a"]))
          << spec_text << " attempting " << n;
    }
    EXPECT_EQ(TraceToString(rs.history(), *ctx_a.alphabet()),
              TraceToString(as.history(), *ctx_b.alphabet()));
  }
}

// ------------------------------------------- Cross-scheduler safety sweep

struct SafetyParam {
  uint64_t seed;
  size_t symbol_count;
  size_t dependency_count;
};

class SchedulerSafetyTest : public ::testing::TestWithParam<SafetyParam> {};

TEST_P(SchedulerSafetyTest, AcceptedHistoriesNeverViolateDependencies) {
  const SafetyParam param = GetParam();
  Rng rng(param.seed);
  RandomExprOptions options;
  options.symbol_count = param.symbol_count;
  options.max_depth = 3;
  options.constant_probability = 0.05;
  for (int iter = 0; iter < 10; ++iter) {
    // Build one spec text reused across schedulers.
    std::string spec_text = "workflow s {\n";
    std::vector<std::string> event_names;
    for (size_t s = 0; s < param.symbol_count; ++s) {
      event_names.push_back(StrCat("ev", s));
      spec_text += StrCat("  event ev", s, ";\n");
    }
    {
      WorkflowContext scratch;
      Alphabet names;
      for (const std::string& n : event_names) names.Intern(n);
      for (size_t d = 0; d < param.dependency_count; ++d) {
        const Expr* expr = GenerateRandomExpr(scratch.exprs(), &rng, options);
        spec_text += StrCat("  dep d", d, ": ", ExprToString(expr, names),
                            ";\n");
      }
    }
    spec_text += "}\n";

    // Random attempt order over all literals (positives then complements
    // shuffled together).
    std::vector<std::string> attempt_order;
    for (const std::string& n : event_names) {
      attempt_order.push_back(n);
      attempt_order.push_back(StrCat("~", n));
    }
    for (size_t i = attempt_order.size(); i > 1; --i) {
      std::swap(attempt_order[i - 1], attempt_order[rng.Uniform(i)]);
    }

    auto drive = [&](auto make_scheduler) {
      WorkflowContext ctx;
      auto parsed = ParseWorkflow(&ctx, spec_text);
      ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << spec_text;
      Simulator sim;
      NetworkOptions nopts;
      Network net(&sim, 4, nopts);
      auto sched = make_scheduler(&ctx, parsed.value(), &net);
      for (const std::string& n : attempt_order) {
        auto lit = ctx.alphabet()->ParseLiteral(n);
        ASSERT_TRUE(lit.ok());
        sched->Attempt(lit.value(), AttemptCallback());
        sim.Run();
      }
      // An unsatisfiable dependency admits no computation at all: every
      // scheduler must realize the empty history.
      bool impossible = false;
      for (const Dependency& dep : parsed.value().spec.dependencies()) {
        impossible |= ctx.residuator()->NormalForm(dep.expr)->IsZero();
      }
      if (impossible) {
        EXPECT_TRUE(sched->history().empty()) << sched->name();
        return;
      }
      // Safety: the realized history keeps every dependency satisfiable,
      // and fully-decided dependencies are satisfied outright.
      for (const Dependency& dep : parsed.value().spec.dependencies()) {
        const Expr* residual =
            ctx.residuator()->ResiduateTrace(dep.expr, sched->history());
        EXPECT_FALSE(residual->IsZero())
            << sched->name() << " violated " << dep.name << "\nspec: "
            << spec_text << "history: "
            << TraceToString(sched->history(), *ctx.alphabet());
        std::set<SymbolId> dep_symbols = MentionedSymbols(residual);
        bool all_decided = true;
        for (SymbolId s : dep_symbols) {
          bool decided = false;
          for (EventLiteral l : sched->history()) {
            decided |= (l.symbol() == s);
          }
          all_decided &= decided;
        }
        if (all_decided) {
          EXPECT_TRUE(residual->IsTop())
              << sched->name() << " left " << dep.name << " unsatisfied";
        }
      }
    };

    drive([](WorkflowContext* ctx, const ParsedWorkflow& w, Network* net) {
      return std::make_unique<GuardScheduler>(ctx, w, net);
    });
    drive([](WorkflowContext* ctx, const ParsedWorkflow& w, Network* net) {
      return std::make_unique<ResiduationScheduler>(ctx, w, net);
    });
    drive([](WorkflowContext* ctx, const ParsedWorkflow& w, Network* net) {
      return std::make_unique<AutomataScheduler>(ctx, w, net);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchedulerSafetyTest,
                         ::testing::Values(SafetyParam{21, 2, 1},
                                           SafetyParam{22, 2, 2},
                                           SafetyParam{23, 3, 1},
                                           SafetyParam{24, 3, 2},
                                           SafetyParam{25, 3, 3},
                                           SafetyParam{26, 4, 2}));

TEST(GuardSchedulerTest, DeterministicUnderSeed) {
  auto run = [](uint64_t seed) {
    World w(kTravelSpec, seed);
    w.AttemptAndRun("s_buy");
    w.AttemptAndRun("c_book");
    w.AttemptAndRun("c_buy");
    return w.History();
  };
  EXPECT_EQ(run(3), run(3));
}

TEST(GuardSchedulerTest, MessageAccountingDistributedVsCentral) {
  // The distributed scheduler sends actor-to-actor announcements; the
  // centralized one pays a round trip per attempt through the center.
  World w(kPrecedesSpec);
  w.AttemptAndRun("e");
  w.AttemptAndRun("f");
  uint64_t distributed_msgs =
      w.network->metrics()->counter("net.messages")->value();

  CentralWorld<ResiduationScheduler> c(kPrecedesSpec);
  c.AttemptAndRun("e");
  c.AttemptAndRun("f");
  uint64_t central_msgs =
      c.network->metrics()->counter("net.messages")->value();
  EXPECT_GE(central_msgs, 4u);  // 2 attempts × (request + reply)
  EXPECT_GT(distributed_msgs, 0u);
}

}  // namespace
}  // namespace cdes
