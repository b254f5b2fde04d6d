#ifndef CDES_BENCH_BENCH_UTIL_H_
#define CDES_BENCH_BENCH_UTIL_H_

// Shared helpers for the benchmark harness: canonical workloads and
// drivers used across the per-figure binaries, plus the machine-readable
// metrics snapshot every bench binary emits (see docs/OBSERVABILITY.md).

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/strings.h"
#include "guards/context.h"
#include "obs/metrics.h"
#include "params/param_workflow.h"
#include "sched/automata_scheduler.h"
#include "sched/guard_scheduler.h"
#include "sched/residuation_scheduler.h"
#include "spec/parser.h"

namespace cdes::bench {

/// The process-wide registry bench runs report into; exported as JSON by
/// ExportBenchMetrics at the end of every bench main.
inline obs::MetricsRegistry& BenchMetrics() {
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
  return *registry;
}

/// Folds one driven run's stats into BenchMetrics().
inline void RecordRunMetrics(const struct DriveResult& result);

/// Schema of the BENCH_*.json envelope written by ExportBenchMetrics.
/// Version 2 wraps the raw registry dump in
/// {"schema_version", "host": {"hostname", "hardware_threads"}, "metrics"}
/// so sweep tooling can tell runs from different machines apart (version 1
/// was the bare registry JSON).
inline constexpr int kBenchSchemaVersion = 2;

/// {"hostname": ..., "hardware_threads": ...} for the machine running the
/// bench — the provenance fields every BENCH_*.json shares.
inline std::string BenchHostJson() {
  char hostname[256] = "unknown";
  if (gethostname(hostname, sizeof(hostname)) != 0) {
    std::snprintf(hostname, sizeof(hostname), "unknown");
  }
  hostname[sizeof(hostname) - 1] = '\0';
  return StrCat("{\"hostname\": \"", hostname, "\", \"hardware_threads\": ",
                std::thread::hardware_concurrency(), "}");
}

/// Writes the BENCH_<name>.json envelope (schema_version, host provenance,
/// BenchMetrics() dump) in the working directory, so sweep tooling can diff
/// runs without scraping console output. Returns the path it wrote (empty
/// on failure).
inline std::string ExportBenchMetrics(const std::string& name) {
  std::string path = StrCat("BENCH_", name, ".json");
  std::string json =
      StrCat("{\"schema_version\": ", kBenchSchemaVersion,
             ",\n \"host\": ", BenchHostJson(),
             ",\n \"metrics\": ", BenchMetrics().ToJson(), "}");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return "";
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "bench: metrics snapshot -> %s\n", path.c_str());
  return path;
}

inline constexpr char kTravelSpec[] = R"(
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

/// A multi-instance travel workload: `instances` customers with their own
/// agent copies, spread round-robin over `sites` sites.
inline ParsedWorkflow MakeTravelInstances(WorkflowContext* ctx,
                                          size_t instances, int sites) {
  WorkflowTemplate travel = TravelTemplate();
  ParsedWorkflow combined;
  for (size_t i = 0; i < instances; ++i) {
    CDES_CHECK(travel.InstantiateInto(ctx, {{"cid", (ParamValue)i}},
                                      &combined,
                                      /*per_instance_agents=*/true)
                   .ok());
  }
  for (size_t a = 0; a < combined.agents.size(); ++a) {
    combined.agents[a].site = static_cast<int>(a % sites);
  }
  return combined;
}

/// The happy-path attempt script for customer `cid`.
inline std::vector<std::string> TravelHappyScript(ParamValue cid) {
  return {StrCat("s_buy[", cid, "]"), StrCat("c_book[", cid, "]"),
          StrCat("c_buy[", cid, "]")};
}

/// The compensation-path script.
inline std::vector<std::string> TravelCompensationScript(ParamValue cid) {
  return {StrCat("s_buy[", cid, "]"), StrCat("c_book[", cid, "]"),
          StrCat("~c_buy[", cid, "]")};
}

struct DriveResult {
  SimTime completion_time = 0;
  uint64_t messages = 0;
  uint64_t remote_messages = 0;
  uint64_t bytes = 0;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t parked_final = 0;
  bool consistent = true;
};

inline void RecordRunMetrics(const DriveResult& result) {
  obs::MetricsRegistry& m = BenchMetrics();
  m.counter("bench.runs")->Increment();
  m.counter("bench.messages")->Increment(result.messages);
  m.counter("bench.remote_messages")->Increment(result.remote_messages);
  m.counter("bench.bytes")->Increment(result.bytes);
  m.counter("bench.accepted")->Increment(result.accepted);
  m.counter("bench.rejected")->Increment(result.rejected);
  m.histogram("bench.sim_time_us", obs::MetricsRegistry::ExponentialBounds())
      ->Observe(result.completion_time);
}

/// Drives `script` (event literal names, attempted in order, each run to
/// quiescence) through a scheduler; returns timing and message stats.
template <typename SchedulerT>
DriveResult DriveScript(WorkflowContext* ctx, SchedulerT* sched,
                        Simulator* sim, Network* net,
                        const std::vector<std::string>& script) {
  DriveResult out;
  for (const std::string& name : script) {
    auto lit = ctx->alphabet()->ParseLiteral(name);
    CDES_CHECK(lit.ok()) << lit.status() << " for " << name;
    sched->Attempt(lit.value(), [&out](Decision d) {
      if (d == Decision::kAccepted) ++out.accepted;
      if (d == Decision::kRejected) ++out.rejected;
    });
    sim->Run();
  }
  out.completion_time = sim->now();
  obs::MetricsRegistry* net_metrics = net->metrics();
  out.messages = net_metrics->counter("net.messages")->value();
  out.remote_messages = net_metrics->counter("net.remote_messages")->value();
  out.bytes = net_metrics->counter("net.bytes")->value();
  RecordRunMetrics(out);
  return out;
}

/// Interleaved happy-path scripts for `instances` customers.
inline std::vector<std::string> InterleavedTravelScript(size_t instances) {
  std::vector<std::string> script;
  for (const char* stage : {"s_buy[", "c_book[", "c_buy["}) {
    for (size_t i = 0; i < instances; ++i) {
      script.push_back(StrCat(stage, i, "]"));
    }
  }
  return script;
}

/// Drives one script per instance *concurrently*: every instance submits
/// its next attempt the moment the previous one resolves, so independent
/// workflows overlap and a centralized scheduler's site becomes the
/// bottleneck. Returns stats after the simulator drains.
template <typename SchedulerT>
DriveResult DriveConcurrent(WorkflowContext* ctx, SchedulerT* sched,
                            Simulator* sim, Network* net,
                            std::vector<std::vector<std::string>> scripts) {
  auto result = std::make_shared<DriveResult>();
  struct Driver {
    WorkflowContext* ctx;
    SchedulerT* sched;
    std::vector<std::vector<std::string>> scripts;
    std::shared_ptr<DriveResult> result;

    void Start(size_t script_index, size_t pos) {
      if (pos >= scripts[script_index].size()) return;
      auto lit = ctx->alphabet()->ParseLiteral(scripts[script_index][pos]);
      CDES_CHECK(lit.ok());
      sched->Attempt(lit.value(), [this, script_index, pos](Decision d) {
        if (d == Decision::kParked) return;  // wait for the final verdict
        if (d == Decision::kAccepted) ++result->accepted;
        if (d == Decision::kRejected) ++result->rejected;
        Start(script_index, pos + 1);
      });
    }
  };
  auto driver = std::make_shared<Driver>(
      Driver{ctx, sched, std::move(scripts), result});
  for (size_t i = 0; i < driver->scripts.size(); ++i) {
    // Keep the driver alive for the whole run via the capture.
    sim->Schedule(0, [driver, i] { driver->Start(i, 0); });
  }
  sim->Run();
  result->completion_time = sim->now();
  obs::MetricsRegistry* net_metrics = net->metrics();
  result->messages = net_metrics->counter("net.messages")->value();
  result->remote_messages =
      net_metrics->counter("net.remote_messages")->value();
  result->bytes = net_metrics->counter("net.bytes")->value();
  RecordRunMetrics(*result);
  return *result;
}

}  // namespace cdes::bench

#endif  // CDES_BENCH_BENCH_UTIL_H_
