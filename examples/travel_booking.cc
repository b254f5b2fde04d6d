// The paper's motivating workflow (Examples 4, 10, 12): buy a plane ticket
// and book a rental car across two autonomous enterprises, without a mutual
// commit protocol. Runs the happy path and the compensation path through
// task agents and the distributed guard scheduler, then two parametrized
// instances (customers) side by side.
//
// Build & run:  ./build/examples/travel_booking
//
// With --trace=<file>, the run additionally records event-lifecycle spans,
// protocol messages, and promise windows across all three phases and writes
// a Chrome-trace JSON loadable in Perfetto (see docs/OBSERVABILITY.md).
// Single-instance phases carry per-message flow arrows (send→assimilate);
// engine mode carries submit→complete flow arrows across shard lanes.
//
// With --profile (or --profile=<collapsed-out>), guard evaluations are
// attributed per (dependency, event) site and a top-K hotspot table is
// printed; the =<file> form writes collapsed stacks for flamegraph.pl.
// --telemetry=<file> (engine mode) streams JSONL snapshots consumable by
// tools/cdes-top; --prom=<file> writes a Prometheus text-format snapshot.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "agents/task_agent.h"
#include "engine/engine.h"
#include "obs/chrome_trace.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/prom.h"
#include "params/param_workflow.h"
#include "sched/guard_scheduler.h"
#include "spec/parser.h"

namespace {

constexpr char kTravelSpec[] = R"(
# Example 4: non-refundable ticket, cancellable booking.
workflow travel {
  agent air @ site(0);
  agent car @ site(1);
  event s_buy    agent(air);
  event c_buy    agent(air);
  event s_book   agent(car) attrs(triggerable);
  event c_book   agent(car);
  event s_cancel agent(car) attrs(triggerable);
  dep d1: ~s_buy + s_book;              # book starts if buy starts
  dep d2: ~c_buy + c_book . c_buy;      # buy commits only after book
  dep d3: ~c_book + c_buy + s_cancel;   # cancel book if buy never commits
}
)";

void PrintHistory(const cdes::GuardScheduler& sched,
                  const cdes::Alphabet& alphabet) {
  std::printf("  history: %s\n",
              cdes::TraceToString(sched.history(), alphabet).c_str());
  std::printf("  dependencies satisfied: %s\n",
              sched.HistoryConsistent() ? "yes" : "NO");
}

struct CliOptions {
  const char* trace_path = nullptr;
  bool profile = false;
  const char* profile_path = nullptr;    // collapsed-stack output
  const char* telemetry_path = nullptr;  // engine-mode JSONL stream
  const char* prom_path = nullptr;       // Prometheus text snapshot
};

/// Prints the hotspot table and, when requested, writes collapsed stacks.
int DumpProfile(const cdes::obs::GuardProfiler& profiler, const char* path,
                const cdes::obs::SymbolicCacheStats* caches = nullptr) {
  std::printf("\n-- guard profile --\n%s",
              profiler.TopKReport(10, caches).c_str());
  if (path == nullptr) return 0;
  std::string collapsed = profiler.CollapsedStacks();
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fwrite(collapsed.data(), 1, collapsed.size(), f);
  std::fclose(f);
  std::printf("profile: %zu sites -> %s (collapsed stacks)\n",
              profiler.site_count(), path);
  return 0;
}

// --engine=N mode: run N customer instances through the sharded
// multi-instance engine (src/engine, docs/ENGINE.md) instead of the
// narrative single-instance phases, and print the engine's metrics
// snapshot. With --trace=<file> the exported timeline carries one span per
// instance (rows grouped by shard).
int RunEngineMode(size_t instances, size_t shards, const CliOptions& cli) {
  using namespace cdes;
  std::printf("== Engine: %zu customers", instances);
  if (shards > 0) std::printf(" across %zu shards", shards);
  std::printf(" ==\n");

  auto spec = engine::EngineSpec::FromText(kTravelSpec);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  obs::TraceRecorder recorder;
  obs::GuardProfiler profiler(/*sample_every=*/16);
  engine::EngineOptions opts;
  opts.shards = shards;  // 0 = auto
  // Per-shard sched.* histograms, merged into the final snapshot at Stop.
  opts.lifecycle_metrics = true;
  if (cli.trace_path != nullptr) opts.tracer = &recorder;
  if (cli.profile) opts.profiler = &profiler;
  engine::Engine eng(spec.value(), opts);
  if (cli.telemetry_path != nullptr) {
    Status started = eng.StartTelemetryFile(std::chrono::milliseconds(50),
                                            cli.telemetry_path);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
  }
  for (size_t i = 0; i < instances; ++i) {
    engine::InstanceScript script;
    script.tag = i;
    // Two thirds of the customers commit, the rest compensate.
    script.attempts = i % 3 == 2
                          ? std::vector<std::string>{"s_buy", "c_book", "~c_buy"}
                          : std::vector<std::string>{"s_buy", "c_book", "c_buy"};
    if (!eng.Submit(std::move(script)).ok()) return 1;
  }
  eng.Drain();
  eng.Stop();

  size_t consistent = 0;
  for (const engine::InstanceResult& r : eng.TakeResults()) {
    if (r.consistent && r.maximal) ++consistent;
  }
  engine::EngineMetricsSnapshot snap = eng.Metrics();
  std::printf("%s", snap.ToString().c_str());
  std::printf("  consistent maximal traces: %zu / %zu\n", consistent,
              instances);
  if (cli.telemetry_path != nullptr) {
    std::printf("telemetry: JSONL -> %s (view with cdes-top)\n",
                cli.telemetry_path);
  }
  if (cli.profile) {
    obs::MetricsRegistry merged;
    eng.MergeMetricsInto(&merged);
    obs::SymbolicCacheStats cache_stats = obs::CacheStatsFrom(merged);
    if (DumpProfile(profiler, cli.profile_path, &cache_stats) != 0) return 1;
  }
  if (cli.prom_path != nullptr) {
    obs::MetricsRegistry prom_registry;
    eng.MergeMetricsInto(&prom_registry);
    snap.PublishTo(&prom_registry);
    Status written =
        obs::WritePrometheusFile(prom_registry, cli.prom_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("prometheus: snapshot -> %s\n", cli.prom_path);
  }

  if (cli.trace_path != nullptr) {
    Status written = obs::WriteChromeTrace(recorder, cli.trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("trace: %zu events -> %s (load in ui.perfetto.dev)\n",
                recorder.events().size(), cli.trace_path);
  }
  return consistent == instances ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdes;

  CliOptions cli;
  size_t engine_instances = 0;
  size_t engine_shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      cli.trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      engine_instances = static_cast<size_t>(std::strtoull(argv[i] + 9, nullptr, 10));
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      engine_shards = static_cast<size_t>(std::strtoull(argv[i] + 9, nullptr, 10));
    } else if (std::string_view(argv[i]) == "--profile") {
      cli.profile = true;
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      cli.profile = true;
      if (argv[i][10] != '\0') cli.profile_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
      cli.telemetry_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--prom=", 7) == 0) {
      cli.prom_path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace=<file>] [--profile[=<file>]] "
                   "[--prom=<file>] [--engine=<instances> [--shards=<k>] "
                   "[--telemetry=<file>]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (engine_instances > 0) {
    return RunEngineMode(engine_instances, engine_shards, cli);
  }
  const char* trace_path = cli.trace_path;
  // One recorder + registry shared by all three phases: the exported
  // timeline shows them back to back (each phase restarts SimTime at 0).
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  obs::GuardProfiler profiler(/*sample_every=*/1);
  obs::TraceRecorder* tracer = trace_path != nullptr ? &recorder : nullptr;
  obs::MetricsRegistry* reg =
      trace_path != nullptr || cli.prom_path != nullptr ? &metrics : nullptr;
  obs::GuardProfiler* prof = cli.profile ? &profiler : nullptr;

  // ---------------------------------------------------------- Happy path
  {
    std::printf("== Happy path: both tasks commit ==\n");
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, kTravelSpec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    Simulator sim;
    obs::RegisterGlobalSimulator(&sim);
    if (tracer != nullptr) {
      tracer->Instant(obs::SpanCategory::kSim, "phase: happy path", 0, 0, 0);
    }
    NetworkOptions nopts;
    nopts.base_latency = 2000;  // 2ms between the two enterprises
    nopts.tracer = tracer;
    nopts.metrics = reg;
    Network net(&sim, 2, nopts);
    GuardSchedulerOptions sopts;
    sopts.tracer = tracer;
    sopts.metrics = reg;
    sopts.profiler = prof;
    GuardScheduler sched(&ctx, parsed.value(), &net, sopts);

    TaskAgent buy(TaskModel::RdaTransaction("buy"), &ctx, &sched);
    (void)buy.MapEvent("start", "s_buy");
    (void)buy.MapEvent("commit", "c_buy");
    TaskAgent book(TaskModel::RdaTransaction("book"), &ctx, &sched);
    (void)book.MapEvent("start", "s_book");
    (void)book.MapEvent("commit", "c_book");

    (void)buy.Attempt("start");
    sim.Run();
    std::printf("  buy agent:  %s (s_book was auto-triggered)\n",
                buy.state().c_str());
    std::printf("  book agent: %s\n", book.state().c_str());

    (void)book.Attempt("commit");
    sim.Run();
    (void)buy.Attempt("commit");
    sim.Run();
    std::printf("  buy agent:  %s\n", buy.state().c_str());
    std::printf("  book agent: %s\n", book.state().c_str());
    PrintHistory(sched, *ctx.alphabet());
    std::printf("  messages: %llu\n\n",
                static_cast<unsigned long long>(
                    net.metrics()->counter("net.messages")->value()));
    obs::UnregisterGlobalSimulator(&sim);
  }

  // -------------------------------------------------- Compensation path
  {
    std::printf("== Compensation: buy never commits, cancel is triggered ==\n");
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, kTravelSpec);
    Simulator sim;
    obs::RegisterGlobalSimulator(&sim);
    if (tracer != nullptr) {
      tracer->Instant(obs::SpanCategory::kSim, "phase: compensation", 0, 0, 0);
    }
    NetworkOptions nopts;
    nopts.base_latency = 2000;
    nopts.tracer = tracer;
    nopts.metrics = reg;
    Network net(&sim, 2, nopts);
    GuardSchedulerOptions sopts;
    sopts.tracer = tracer;
    sopts.metrics = reg;
    sopts.profiler = prof;
    GuardScheduler sched(&ctx, parsed.value(), &net, sopts);

    auto attempt = [&](const char* name) {
      auto lit = ctx.alphabet()->ParseLiteral(name);
      sched.Attempt(lit.value(), [&, name](Decision d) {
        std::printf("  %-8s -> %s\n", name, DecisionToString(d).c_str());
      });
      sim.Run();
    };
    attempt("s_buy");
    attempt("c_book");
    attempt("~c_buy");  // the airline transaction aborted
    PrintHistory(sched, *ctx.alphabet());
    std::printf("\n");
    obs::UnregisterGlobalSimulator(&sim);
  }

  // -------------------------------- Unreliable network (chaos run)
  {
    std::printf(
        "== Chaos: 20%% loss, duplication, and a mid-run partition ==\n");
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, kTravelSpec);
    Simulator sim;
    obs::RegisterGlobalSimulator(&sim);
    if (tracer != nullptr) {
      tracer->Instant(obs::SpanCategory::kSim, "phase: chaos", 0, 0, 0);
    }
    NetworkOptions nopts;
    nopts.base_latency = 2000;
    nopts.jitter = 1000;
    nopts.fifo_links = false;
    nopts.drop_probability = 0.2;
    nopts.duplicate_probability = 0.1;
    nopts.seed = 42;
    nopts.tracer = tracer;
    nopts.metrics = reg;
    Network net(&sim, 2, nopts);
    // The car enterprise drops off the network for 100ms mid-run; the
    // reliable-delivery layer keeps retransmitting until the heal.
    net.SchedulePartition({1}, 10000, 110000);
    GuardSchedulerOptions sopts;
    sopts.tracer = tracer;
    sopts.metrics = reg;
    sopts.profiler = prof;
    GuardScheduler sched(&ctx, parsed.value(), &net, sopts);

    auto attempt = [&](const char* name) {
      auto lit = ctx.alphabet()->ParseLiteral(name);
      sched.Attempt(lit.value(), AttemptCallback());
      sim.Run();
    };
    attempt("s_buy");
    attempt("c_book");
    attempt("c_buy");
    PrintHistory(sched, *ctx.alphabet());
    std::printf(
        "  frames dropped %llu, duplicated %llu, blocked by partition %llu\n"
        "  recovered with %llu retransmissions (%llu acks); settled at "
        "t=%llu\n\n",
        static_cast<unsigned long long>(
            net.metrics()->counter("net.dropped")->value()),
        static_cast<unsigned long long>(
            net.metrics()->counter("net.duplicated")->value()),
        static_cast<unsigned long long>(
            net.metrics()->counter("net.partitioned")->value()),
        static_cast<unsigned long long>(sched.transport()->retransmits()),
        static_cast<unsigned long long>(sched.transport()->acks()),
        static_cast<unsigned long long>(sim.now()));
    obs::UnregisterGlobalSimulator(&sim);
  }

  // ------------------------------------- Two customers (Example 12)
  {
    std::printf("== Parametrized: customers 7 and 8 share one scheduler ==\n");
    WorkflowContext ctx;
    WorkflowTemplate travel = TravelTemplate();
    ParsedWorkflow combined;
    (void)travel.InstantiateInto(&ctx, {{"cid", 7}}, &combined);
    (void)travel.InstantiateInto(&ctx, {{"cid", 8}}, &combined);

    Simulator sim;
    obs::RegisterGlobalSimulator(&sim);
    if (tracer != nullptr) {
      tracer->Instant(obs::SpanCategory::kSim, "phase: two customers", 0, 0, 0);
    }
    NetworkOptions nopts;
    nopts.base_latency = 2000;
    nopts.tracer = tracer;
    nopts.metrics = reg;
    Network net(&sim, 2, nopts);
    GuardSchedulerOptions sopts;
    sopts.tracer = tracer;
    sopts.metrics = reg;
    sopts.profiler = prof;
    GuardScheduler sched(&ctx, combined, &net, sopts);

    auto attempt = [&](const char* name) {
      auto lit = ctx.alphabet()->ParseLiteral(name);
      sched.Attempt(lit.value(), AttemptCallback());
      sim.Run();
    };
    // Customer 7 commits; customer 8's purchase falls through.
    attempt("s_buy[7]");
    attempt("s_buy[8]");
    attempt("c_book[7]");
    attempt("c_book[8]");
    attempt("c_buy[7]");
    attempt("~c_buy[8]");
    PrintHistory(sched, *ctx.alphabet());
    obs::UnregisterGlobalSimulator(&sim);
  }

  if (prof != nullptr && DumpProfile(*prof, cli.profile_path) != 0) return 1;
  if (cli.prom_path != nullptr) {
    Status written = obs::WritePrometheusFile(metrics, cli.prom_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("prometheus: snapshot -> %s\n", cli.prom_path);
  }
  if (trace_path != nullptr) {
    Status written = obs::WriteChromeTrace(recorder, trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("\ntrace: %zu events -> %s (load in ui.perfetto.dev)\n",
                recorder.events().size(), trace_path);
    std::printf("metrics: %s\n", metrics.ToJson().c_str());
  }
  return 0;
}
