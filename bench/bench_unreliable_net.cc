// Goodput and decision latency of the distributed guard scheduler on an
// unreliable network: the loss rate sweeps from 0 to 30%, frames
// duplicate, and a partition cuts the car enterprise off mid-run. The
// reliable-delivery layer (runtime/reliable_transport.h) repairs the
// transport with retransmissions, so the interesting quantities are how
// much longer a workflow takes to settle and how many extra frames the
// repair costs at each loss rate.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"

namespace cdes {
namespace {

using bench::DriveResult;
using bench::DriveScript;

struct ChaosResult {
  DriveResult drive;
  uint64_t retransmits = 0;
  uint64_t acks = 0;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  bool consistent = false;
};

ChaosResult RunChaos(double loss, double dup, bool partition, uint64_t seed) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, bench::kTravelSpec);
  CDES_CHECK(parsed.ok());
  Simulator sim;
  NetworkOptions nopts;
  nopts.base_latency = 1000;
  nopts.jitter = 500;
  nopts.fifo_links = false;
  nopts.drop_probability = loss;
  nopts.duplicate_probability = dup;
  nopts.seed = seed;
  Network net(&sim, 2, nopts);
  if (partition) net.SchedulePartition({1}, 5000, 60000);
  GuardScheduler sched(&ctx, parsed.value(), &net);
  ChaosResult out;
  out.drive = DriveScript(&ctx, &sched, &sim, &net,
                          {"s_buy", "c_book", "c_buy"});
  out.retransmits = sched.transport()->retransmits();
  out.acks = sched.transport()->acks();
  out.dropped = net.metrics()->counter("net.dropped")->value();
  out.duplicated = net.metrics()->counter("net.duplicated")->value();
  out.consistent = sched.HistoryConsistent();
  return out;
}

void PrintLossSweep() {
  std::printf("==== travel workflow vs loss rate (10 seeds each) ====\n");
  std::printf("%-6s %-12s %-10s %-12s %-9s %-9s %s\n", "loss", "sim-time",
              "frames", "retransmits", "dropped", "goodput", "ok");
  for (double loss : {0.0, 0.1, 0.2, 0.3}) {
    uint64_t time_sum = 0, frames = 0, retr = 0, dropped = 0;
    size_t payloads = 0;
    bool all_consistent = true;
    constexpr int kSeeds = 10;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      ChaosResult r = RunChaos(loss, /*dup=*/0.0, /*partition=*/false, seed);
      time_sum += r.drive.completion_time;
      frames += r.drive.messages;
      retr += r.retransmits;
      dropped += r.dropped;
      // Payload goodput: protocol messages that mattered, i.e. total
      // frames minus acks, retransmissions, and dropped copies.
      payloads += r.drive.messages - r.acks - r.retransmits;
      all_consistent &= r.consistent;
    }
    std::printf("%-6.2f %-12llu %-10llu %-12llu %-9llu %-9.3f %s\n", loss,
                static_cast<unsigned long long>(time_sum / kSeeds),
                static_cast<unsigned long long>(frames / kSeeds),
                static_cast<unsigned long long>(retr / kSeeds),
                static_cast<unsigned long long>(dropped / kSeeds),
                static_cast<double>(payloads) / static_cast<double>(frames),
                all_consistent ? "yes" : "NO");
    obs::MetricsRegistry& m = bench::BenchMetrics();
    m.counter("bench.net.retransmits")->Increment(retr);
    m.counter("bench.net.dropped")->Increment(dropped);
  }
  std::printf("\n");
}

void PrintPartitionRun() {
  std::printf("==== partition/heal cycle (30%% loss, duplication) ====\n");
  ChaosResult r = RunChaos(0.3, 0.15, /*partition=*/true, 7);
  std::printf(
      "sim-time %llu  frames %llu  retransmits %llu  duplicated %llu  "
      "consistent %s\n\n",
      static_cast<unsigned long long>(r.drive.completion_time),
      static_cast<unsigned long long>(r.drive.messages),
      static_cast<unsigned long long>(r.retransmits),
      static_cast<unsigned long long>(r.duplicated),
      r.consistent ? "yes" : "NO");
}

void BM_LossRate(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  uint64_t seed = 1;
  for (auto _ : state) {
    ChaosResult r = RunChaos(loss, 0.0, false, seed++);
    benchmark::DoNotOptimize(r.drive.completion_time);
    state.counters["sim_time"] =
        static_cast<double>(r.drive.completion_time);
    state.counters["retransmits"] = static_cast<double>(r.retransmits);
  }
}
BENCHMARK(BM_LossRate)->Arg(0)->Arg(10)->Arg(20)->Arg(30);

// The CI chaos smoke test filters on this benchmark: 10% loss on the
// travel workflow, asserting nothing beyond "terminates and stays
// consistent" (the CHECK below) — its job is to run the retransmission
// machinery under the sanitizers.
void BM_ChaosSmoke(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    ChaosResult r = RunChaos(0.1, 0.05, true, seed++);
    CDES_CHECK(r.consistent);
    benchmark::DoNotOptimize(r.drive.messages);
  }
}
BENCHMARK(BM_ChaosSmoke);

}  // namespace
}  // namespace cdes

int main(int argc, char** argv) {
  cdes::PrintLossSweep();
  cdes::PrintPartitionRun();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  cdes::bench::ExportBenchMetrics("unreliable_net");
  return 0;
}
