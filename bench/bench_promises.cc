// Experiment E11+ — the ordered-promise consensus machinery (§4.3's
// "conditional promise", generalized): resolution cost of ◇-webs that a
// centralized scheduler would decide trivially. Chains a1·a2·...·an with
// every event attempted simultaneously are the stress case: promises must
// flow backward through the chain (with implied-□ sets and forwarding)
// before the head can fire. We report the message-kind breakdown and the
// simulated resolution time per chain length, plus the promise-ablation
// deadlock behavior.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"

namespace cdes {
namespace {

struct ChainResult {
  bool resolved = false;
  SimTime time = 0;
  /// The scheduler's sched.msgs.* counters.
  uint64_t promise_requests = 0;
  uint64_t promises = 0;
  uint64_t announcements = 0;
  uint64_t triggers = 0;
};

ChainResult RunChain(size_t n, bool promises_enabled) {
  std::string spec_text = "workflow ch {\n";
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) {
    names.push_back(StrCat("a", i));
    spec_text += StrCat("  event a", i, ";\n");
  }
  spec_text += "  dep chain: " + StrJoin(names, " . ") + ";\n}\n";

  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, spec_text);
  CDES_CHECK(parsed.ok());
  Simulator sim;
  NetworkOptions nopts;
  nopts.base_latency = 1000;
  Network net(&sim, 4, nopts);
  GuardSchedulerOptions options;
  options.enable_promises = promises_enabled;
  GuardScheduler sched(&ctx, parsed.value(), &net, options);
  for (size_t i = n; i-- > 0;) {
    sched.Attempt(ctx.alphabet()->ParseLiteral(names[i]).value(), {});
  }
  sim.Run();
  ChainResult result;
  result.resolved = (sched.history().size() == n);
  result.time = sim.now();
  obs::MetricsRegistry* metrics = sched.metrics();
  result.promise_requests =
      metrics->counter("sched.msgs.promise_request")->value();
  result.promises = metrics->counter("sched.msgs.promise")->value();
  result.announcements = metrics->counter("sched.msgs.announce")->value();
  result.triggers = metrics->counter("sched.msgs.trigger")->value();
  return result;
}

void PrintPromiseTables() {
  std::printf("==== Ordered-promise consensus: chain a1...an, all attempted "
              "at t=0, 1ms links ====\n");
  std::printf("%-4s %-9s %-13s %-9s %-9s %-9s %-9s\n", "n", "resolved",
              "sim-time(us)", "requests", "promises", "announce", "trigger");
  for (size_t n : {2, 3, 4, 5, 6, 8}) {
    ChainResult r = RunChain(n, true);
    std::printf("%-4zu %-9s %-13llu %-9llu %-9llu %-9llu %-9llu\n", n,
                r.resolved ? "yes" : "NO",
                static_cast<unsigned long long>(r.time),
                static_cast<unsigned long long>(r.promise_requests),
                static_cast<unsigned long long>(r.promises),
                static_cast<unsigned long long>(r.announcements),
                static_cast<unsigned long long>(r.triggers));
  }
  std::printf("\nablation (promises disabled): ");
  ChainResult off = RunChain(4, false);
  std::printf("chain of 4 %s — the mutual ◇-waits deadlock exactly as "
              "Example 11 predicts\n\n",
              off.resolved ? "resolved (unexpected!)" : "parks forever");
}

void BM_ChainResolution(benchmark::State& state) {
  const size_t n = state.range(0);
  for (auto _ : state) {
    ChainResult r = RunChain(n, true);
    benchmark::DoNotOptimize(r.resolved);
    state.counters["msgs"] = static_cast<double>(
        r.promise_requests + r.promises + r.announcements + r.triggers);
    state.counters["sim_us"] = static_cast<double>(r.time);
  }
}
BENCHMARK(BM_ChainResolution)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_MutualPromiseHandshake(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, R"(
workflow mutual {
  event e;
  event f;
  dep d1: e -> f;
  dep d2: f -> e;
}
)");
    CDES_CHECK(parsed.ok());
    Simulator sim;
    NetworkOptions nopts;
    Network net(&sim, 2, nopts);
    GuardScheduler sched(&ctx, parsed.value(), &net);
    state.ResumeTiming();
    sched.Attempt(ctx.alphabet()->ParseLiteral("e").value(), {});
    sched.Attempt(ctx.alphabet()->ParseLiteral("f").value(), {});
    sim.Run();
    benchmark::DoNotOptimize(sched.history().size());
  }
  state.SetLabel("Example 11: request/promise/announce round");
}
BENCHMARK(BM_MutualPromiseHandshake);

}  // namespace
}  // namespace cdes

int main(int argc, char** argv) {
  cdes::PrintPromiseTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  cdes::bench::ExportBenchMetrics("promises");
  return 0;
}
