// Experiment C2/E11 — the paper's distribution claim (§4, §6): the
// event-centric guard scheduler localizes decisions on events, while the
// centralized schedulers serialize every attempt through one site. We run
// identical multi-instance travel workloads (Example 12) through all three
// schedulers over the simulated network and report completion time,
// messages, and remote traffic, across instance counts and link latencies;
// the promise handshake of Example 11 is also exercised and counted.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"

namespace cdes {
namespace {

using bench::DriveConcurrent;
using bench::DriveResult;
using bench::MakeTravelInstances;
using bench::TravelHappyScript;

struct RunConfig {
  size_t instances = 16;
  int sites = 8;
  SimTime latency = 1000;       // 1ms links
  SimTime processing = 50;      // 50us serial handling per message per site
};

template <typename SchedulerT>
DriveResult RunTravel(const RunConfig& config) {
  WorkflowContext ctx;
  ParsedWorkflow workflow =
      MakeTravelInstances(&ctx, config.instances, config.sites);
  Simulator sim;
  NetworkOptions nopts;
  nopts.base_latency = config.latency;
  nopts.site_processing = config.processing;
  Network net(&sim, static_cast<size_t>(config.sites), nopts);
  SchedulerT sched(&ctx, workflow, &net);
  std::vector<std::vector<std::string>> scripts;
  for (size_t i = 0; i < config.instances; ++i) {
    scripts.push_back(TravelHappyScript(static_cast<ParamValue>(i)));
  }
  DriveResult result =
      DriveConcurrent(&ctx, &sched, &sim, &net, std::move(scripts));
  result.consistent = true;
  for (const Dependency& dep : workflow.spec.dependencies()) {
    const Expr* residual =
        ctx.residuator()->ResiduateTrace(dep.expr, sched.history());
    result.consistent &= !residual->IsZero();
  }
  result.parked_final = sched.parked_count();
  return result;
}

void PrintComparison() {
  std::printf(
      "==== Scheduler comparison: N concurrent travel workflows "
      "(Example 12) over 8 sites, 1ms links, 50us/message site "
      "processing ====\n");
  std::printf("all decisions of the centralized schedulers funnel through "
              "site 0; the guard scheduler decides at the events' own "
              "sites.\n\n");
  std::printf("%-10s %-26s %13s %10s %10s %6s\n", "instances", "scheduler",
              "makespan(us)", "messages", "remote", "ok");
  for (size_t instances : {1, 4, 16, 64, 256}) {
    struct Row {
      const char* name;
      DriveResult r;
    };
    RunConfig config;
    config.instances = instances;
    std::vector<Row> rows = {
        {"guard-distributed", RunTravel<GuardScheduler>(config)},
        {"residuation-centralized",
         RunTravel<ResiduationScheduler>(config)},
        {"automata-centralized", RunTravel<AutomataScheduler>(config)},
    };
    for (const Row& row : rows) {
      std::printf("%-10zu %-26s %13llu %10llu %10llu %6s\n", instances,
                  row.name,
                  static_cast<unsigned long long>(row.r.completion_time),
                  static_cast<unsigned long long>(row.r.messages),
                  static_cast<unsigned long long>(row.r.remote_messages),
                  row.r.consistent && row.r.parked_final == 0 ? "yes" : "NO");
    }
  }

  std::printf(
      "\n==== Single-workflow decision latency (no load): the centralized "
      "round trip vs the distributed announcement chain ====\n");
  std::printf("%-14s %-22s %-22s %-22s\n", "link latency", "guard-dist",
              "residuation-central", "automata-central");
  for (SimTime latency : {100u, 1000u, 10000u, 100000u}) {
    RunConfig config;
    config.instances = 1;
    config.sites = 2;
    config.latency = latency;
    config.processing = 0;
    std::printf("%-14llu %-22llu %-22llu %-22llu\n",
                static_cast<unsigned long long>(latency),
                static_cast<unsigned long long>(
                    RunTravel<GuardScheduler>(config).completion_time),
                static_cast<unsigned long long>(
                    RunTravel<ResiduationScheduler>(config).completion_time),
                static_cast<unsigned long long>(
                    RunTravel<AutomataScheduler>(config).completion_time));
  }

  // Example 11: the promise handshake.
  std::printf("\n==== Example 11: mutual implications via promises ====\n");
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, R"(
workflow mutual {
  agent a @ site(0);
  agent b @ site(1);
  event e agent(a);
  event f agent(b);
  dep d1: e -> f;
  dep d2: f -> e;
}
)");
  CDES_CHECK(parsed.ok());
  Simulator sim;
  NetworkOptions nopts;
  nopts.base_latency = 1000;
  Network net(&sim, 2, nopts);
  GuardScheduler sched(&ctx, parsed.value(), &net);
  sched.Attempt(ctx.alphabet()->ParseLiteral("e").value(), {});
  sched.Attempt(ctx.alphabet()->ParseLiteral("f").value(), {});
  sim.Run();
  std::printf("history %s resolved in %llu us with %llu messages "
              "(request/promise/announce)\n\n",
              TraceToString(sched.history(), *ctx.alphabet()).c_str(),
              static_cast<unsigned long long>(sim.now()),
              static_cast<unsigned long long>(
                  net.metrics()->counter("net.messages")->value()));
}

template <typename SchedulerT>
void BM_TravelWorkload(benchmark::State& state) {
  RunConfig config;
  config.instances = state.range(0);
  for (auto _ : state) {
    DriveResult r = RunTravel<SchedulerT>(config);
    benchmark::DoNotOptimize(r.messages);
    state.counters["sim_us"] = static_cast<double>(r.completion_time);
    state.counters["msgs"] = static_cast<double>(r.messages);
  }
}
BENCHMARK_TEMPLATE(BM_TravelWorkload, GuardScheduler)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32);
BENCHMARK_TEMPLATE(BM_TravelWorkload, ResiduationScheduler)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32);
BENCHMARK_TEMPLATE(BM_TravelWorkload, AutomataScheduler)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32);

}  // namespace
}  // namespace cdes

int main(int argc, char** argv) {
  cdes::PrintComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  cdes::bench::ExportBenchMetrics("scheduler_comparison");
  return 0;
}
