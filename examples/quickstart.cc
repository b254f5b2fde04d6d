// Quickstart: the event algebra, residuation, and guard synthesis on the
// paper's two running dependencies (Klein's e → f and e < f), then a small
// distributed execution.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "algebra/generator.h"
#include "algebra/residuation.h"
#include "guards/context.h"
#include "guards/workflow.h"
#include "sched/guard_scheduler.h"
#include "spec/parser.h"

namespace {

void PrintSection(const char* title) { std::printf("\n== %s ==\n", title); }

}  // namespace

int main() {
  using namespace cdes;

  WorkflowContext ctx;
  SymbolId e = ctx.alphabet()->Intern("e");
  SymbolId f = ctx.alphabet()->Intern("f");

  PrintSection("Dependencies (Examples 2 and 3)");
  const Expr* d_implies = KleinImplies(ctx.exprs(), e, f);   // ē + f
  const Expr* d_precedes = KleinPrecedes(ctx.exprs(), e, f); // ē + f̄ + e·f
  std::printf("D->  (e -> f): %s\n",
              ExprToString(d_implies, *ctx.alphabet()).c_str());
  std::printf("D<   (e <  f): %s\n",
              ExprToString(d_precedes, *ctx.alphabet()).c_str());

  PrintSection("Residuation (Figure 2)");
  EventLiteral pe = EventLiteral::Positive(e);
  EventLiteral pf = EventLiteral::Positive(f);
  const Expr* after_e = ctx.residuator()->Residuate(d_precedes, pe);
  const Expr* after_f = ctx.residuator()->Residuate(d_precedes, pf);
  std::printf("D< / e = %s   (f or ~f may still happen)\n",
              ExprToString(after_e, *ctx.alphabet()).c_str());
  std::printf("D< / f = %s   (only ~e is acceptable afterwards)\n",
              ExprToString(after_f, *ctx.alphabet()).c_str());

  PrintSection("Guards on events (Example 9)");
  for (EventLiteral l : {pe, pf, pe.Complemented(), pf.Complemented()}) {
    const Guard* g = ctx.synthesizer()->SynthesizeSimplified(d_precedes, l);
    std::printf("G(D<, %-2s) = %s\n",
                ctx.alphabet()->LiteralName(l).c_str(),
                GuardToString(g, *ctx.alphabet()).c_str());
  }

  PrintSection("Distributed execution (Example 10)");
  auto parsed = ParseWorkflow(&ctx, R"(
workflow quickstart {
  agent a @ site(0);
  agent b @ site(1);
  event e agent(a);
  event f agent(b);
  dep order: e < f;
}
)");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  Simulator sim;
  NetworkOptions nopts;
  nopts.base_latency = 1000;  // 1ms links
  Network net(&sim, 2, nopts);
  GuardScheduler sched(&ctx, parsed.value(), &net);

  sched.Attempt(pf, [&](Decision d) {
    std::printf("t=%-6llu f attempted: %s\n",
                static_cast<unsigned long long>(sim.now()),
                DecisionToString(d).c_str());
  });
  sim.Run();
  sched.Attempt(pe, [&](Decision d) {
    std::printf("t=%-6llu e attempted: %s\n",
                static_cast<unsigned long long>(sim.now()),
                DecisionToString(d).c_str());
  });
  sim.Run();
  std::printf("history: %s\n",
              TraceToString(sched.history(), *ctx.alphabet()).c_str());
  std::printf("messages on the wire: %llu (mean latency %.0f ticks)\n",
              static_cast<unsigned long long>(
                  net.metrics()->counter("net.messages")->value()),
              net.metrics()->histogram("net.latency_us")->Mean());
  std::printf("all dependencies satisfied: %s\n",
              sched.HistoryConsistent(true) ? "yes" : "no");
  return 0;
}
