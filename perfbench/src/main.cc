// cdes end-to-end benchmark: one client process driving the public cdes API
// over four seeded workloads (travel, pipeline, durable, verify).
//
//   cdes_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>]
//
// --trace 0 measures the end-to-end metrics with all tracing off. --trace 1
// repeats the workload with the engine's profiler, lifecycle metrics and
// tracer on, runs a single-threaded replica whose calls into each layer are
// timed as spans, and prints the per-layer metrics. Either way every
// output is checked (oracle.h) and the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc_counter.h"
#include "analysis/analyzer.h"
#include "analysis/model_checker.h"
#include "common.h"
#include "engine/engine.h"
#include "closed_loop.h"
#include "obs/profiler.h"
#include "oracle.h"
#include "replica.h"
#include "spec/parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cdes::engine::InstanceResult;

/// Set-ups per run; setup_s is their median.
constexpr size_t kSetupReps = 25;
/// Crash-image size of the durable workload (instances left open).
constexpr size_t kImageCap = 2000;
/// Spec texts in the verify corpus.
constexpr size_t kVerifyCorpus = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

/// What one run attempted, how much of it failed the output checks, and the
/// metrics it reports.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Figures printed for the reader but not part of the JSON result.
  Report extra;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with tracing off.
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "ops/s"},         {"events_per_s", "events/s"},
    {"latency_p50_ms", "ms"},       {"latency_p99_ms", "ms"},
    {"setup_s", "s"},               {"peak_rss_mb", "MB"},
};

/// Per-layer metrics of the traced run; a layer a workload does not
/// exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"spec.parse_us", "us"},
    {"guards.compile_us", "us"},
    {"guards.reduction_cache_hit_rate", "ratio"},
    {"temporal.guard_evals_per_event", "evals/event"},
    {"temporal.guard_eval_ns_per_event", "ns/event"},
    {"temporal.guard_eval_share", "ratio"},
    {"algebra.residuation_cache_hit_rate", "ratio"},
    {"algebra.residuation_steps_per_event", "steps/event"},
    {"runtime.msgs_per_event", "msgs/event"},
    {"runtime.bytes_per_event", "B/event"},
    {"runtime.parks_per_event", "parks/event"},
    {"runtime.log_parse_us_per_instance", "us/instance"},
    {"sim.steps_per_event", "steps/event"},
    {"sim.run_us_per_instance", "us/instance"},
    {"sched.world_build_us", "us/instance"},
    {"sched.world_teardown_us", "us/instance"},
    {"sched.finish_us", "us/instance"},
    {"sched.recover_us_per_instance", "us/instance"},
    {"engine.admission_wait_p99_ms", "ms"},
    {"engine.shard_speedup", "ratio"},
    {"engine.shard_imbalance", "ratio"},
    {"engine.allocs_per_event", "allocs/event"},
    {"engine.alloc_bytes_per_instance", "B/instance"},
    {"engine.unattributed_frac", "ratio"},
    {"engine.recover_s", "s"},
    {"engine.wal.records_per_event", "records/event"},
    {"engine.wal.flushes_per_event", "flushes/event"},
    {"engine.wal.us_per_instance", "us/instance"},
    {"engine.wal.errors", "count"},
    {"analysis.static_us", "us"},
    {"analysis.check_us", "us"},
    {"analysis.states_per_s", "states/s"},
    {"analysis.states_per_spec", "states/spec"},
    {"obs.trace_overhead_frac", "ratio"},
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t CounterOr0(const cdes::obs::MetricsRegistry& registry,
                    const char* name) {
  auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0 : it->second->value();
}

double GaugeOr0(const cdes::obs::MetricsRegistry& registry, const char* name) {
  auto it = registry.gauges().find(name);
  return it == registry.gauges().end() ? 0 : it->second->value();
}

std::string SubDir(const Args& args, const std::string& name) {
  return (fs::path(args.workdir) / name).string();
}

size_t CountLogs(const std::string& dir) {
  std::error_code ec;
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".log") ++n;
  }
  return n;
}

/// Throughput and latency of one untraced window: medians over its slices.
void AddWindowMetrics(const SlicedWindow& window, Outcome* out) {
  out->values["ops_per_s"] = window.OpsPerS();
  out->values["events_per_s"] = window.EventsPerS();
  out->values["latency_p50_ms"] = window.LatencyP50();
  out->values["latency_p99_ms"] = window.LatencyP99();
}

// ---------------------------------------------------------------------------
// Durable workload: crash image and recovery.

struct CrashLog {
  uint64_t id = 0;
  std::string history;
  std::string log_text;
};

/// A hook that checks every result and keeps the logs of instances that
/// stayed open (up to kImageCap) as the crash image, while `*collect`.
ResultHook CheckAndCollect(HistoryOracle* oracle, std::vector<CrashLog>* image,
                           const bool* collect) {
  return [=](const InstanceResult& r, bool closed) {
    oracle->Observe(r, closed);
    if (*collect && !closed && image->size() < kImageCap) {
      image->push_back({r.id, r.history, r.log_text});
    }
  };
}

/// Recovers the crash image in a fresh engine and checks every recovered
/// instance: maximal, consistent, no error, accepted by the oracle, and
/// extending its pre-crash prefix. With an empty `dir` the logs are handed
/// over in memory (Engine::Recover); otherwise they are written as one
/// <id>.log each and the engine, pointed at `dir` as its wal_dir, restarts
/// from it (Engine::RecoverDir). Returns the wall seconds from the recover
/// call until the last recovered result was collected.
double RecoverImage(const EngineWorkload& w, const std::string& dir,
                    const std::vector<CrashLog>& image, HistoryOracle* oracle,
                    Outcome* out) {
  std::unordered_map<uint64_t, const CrashLog*> by_id;
  std::vector<std::string> logs;
  for (const CrashLog& c : image) {
    by_id[c.id] = &c;
    if (dir.empty()) logs.push_back(c.log_text);
  }
  if (!dir.empty()) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const CrashLog& c : image) {
      std::ofstream(fs::path(dir) / (std::to_string(c.id) + ".log"),
                    std::ios::binary)
          << c.log_text;
    }
  }
  WarmEngine warm = SetUpEngine(w, EngineOptionsFor(w, w.shards, dir),
                                [&](const InstanceResult& r, bool closed) {
                                  oracle->Observe(r, closed);
                                });
  Clock::time_point t0 = Clock::now();
  cdes::Status status =
      dir.empty() ? warm.engine->Recover(logs) : warm.engine->RecoverDir(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", status.ToString().c_str());
    out->failed += image.size();
    return 0;
  }
  CollectResults(warm.engine.get(), image.size(), [&](InstanceResult& r) {
    auto it = by_id.find(r.id);
    if (it == by_id.end() || !ExtendsPrefix(r.history, it->second->history)) {
      ++out->failed;
    }
    oracle->Observe(r, /*closed=*/true);
  });
  double recover_s = SecondsSince(t0);
  warm.engine->Stop();
  if (!dir.empty()) out->failed += CountLogs(dir);  // retired on completion
  return recover_s;
}

// ---------------------------------------------------------------------------
// Engine workloads.

Outcome RunEngineUntraced(const EngineWorkload& w, const Args& args) {
  Outcome out;
  HistoryOracle oracle(w.spec_text);
  std::vector<CrashLog> image;
  const bool collect = true;
  ResultHook hook = CheckAndCollect(&oracle, &image, &collect);
  std::vector<double> setups;
  WarmEngine warm;
  for (size_t k = 0; k < kSetupReps; ++k) {
    warm.engine.reset();
    warm = SetUpEngine(w, EngineOptionsFor(w, w.shards, ""), hook);
    setups.push_back(warm.setup_s);
  }
  ScriptSource source(w, kRunStream);
  LoopStats loop =
      RunClosedLoop(&warm, &source, args.seconds, 0, hook);
  warm.engine.reset();
  AddWindowMetrics(loop.sliced, &out);
  out.values["setup_s"] = Median(setups);
  if (w.durable) {
    out.extra.Add("recover_s", RecoverImage(w, "", image, &oracle, &out), "s");
    out.extra.Add("recovered_instances", static_cast<double>(image.size()),
                  "count");
  }
  out.attempted = oracle.observed();
  out.failed += oracle.Finish();
  out.values["peak_rss_mb"] = PeakRssMb();
  return out;
}

/// The engine counters of a stopped engine, as per-event ratios.
void HarvestEngineCounters(const cdes::engine::Engine& engine,
                           const cdes::obs::GuardProfiler& profiler,
                           std::map<std::string, double>* v) {
  cdes::obs::MetricsRegistry registry;
  engine.MergeMetricsInto(&registry);
  cdes::engine::EngineMetricsSnapshot snap = engine.Metrics();
  const double events = static_cast<double>(snap.events);
  auto per_event = [&](const char* counter) {
    return Ratio(static_cast<double>(CounterOr0(registry, counter)), events);
  };
  uint64_t evaluations = 0, steps = 0;
  double eval_ns = 0;
  for (const cdes::obs::GuardSiteStats& site : profiler.Snapshot()) {
    evaluations += site.evaluations;
    steps += site.residuation_steps;
    eval_ns += site.EstimatedWallNs();
  }
  (*v)["temporal.guard_evals_per_event"] =
      Ratio(static_cast<double>(evaluations), events);
  (*v)["temporal.guard_eval_ns_per_event"] = Ratio(eval_ns, events);
  (*v)["algebra.residuation_steps_per_event"] =
      Ratio(static_cast<double>(steps), events);
  (*v)["guards.reduction_cache_hit_rate"] = snap.ReductionCacheHitRate();
  // Each shard publishes its own residuator tallies as gauges, which a
  // registry merge would overwrite rather than add.
  double hits = 0, misses = 0;
  for (size_t k = 0; k < engine.shard_count(); ++k) {
    hits += GaugeOr0(engine.shard_metrics(k), "algebra.residuation_cache_hits");
    misses +=
        GaugeOr0(engine.shard_metrics(k), "algebra.residuation_cache_misses");
  }
  (*v)["algebra.residuation_cache_hit_rate"] = Ratio(hits, hits + misses);
  (*v)["runtime.msgs_per_event"] = per_event("net.messages");
  (*v)["runtime.bytes_per_event"] = per_event("net.bytes");
  (*v)["runtime.parks_per_event"] = per_event("sched.parks");
  (*v)["sim.steps_per_event"] =
      Ratio(static_cast<double>(snap.sim_steps), events);
  double max_shard = 0, sum_shard = 0;
  for (uint64_t e : snap.shard_events) {
    max_shard = std::max(max_shard, static_cast<double>(e));
    sum_shard += static_cast<double>(e);
  }
  (*v)["engine.shard_imbalance"] = Ratio(
      max_shard, sum_shard / static_cast<double>(snap.shard_events.size()));
}

/// The WAL's counters and the RecoverDir restart, on a wal_dir engine.
void HarvestWal(const cdes::engine::Engine& engine,
                std::map<std::string, double>* v) {
  cdes::obs::MetricsRegistry registry;
  engine.MergeMetricsInto(&registry);
  const double events = static_cast<double>(engine.Metrics().events);
  (*v)["engine.wal.records_per_event"] = Ratio(
      static_cast<double>(CounterOr0(registry, "engine.wal.records")), events);
  (*v)["engine.wal.flushes_per_event"] = Ratio(
      static_cast<double>(CounterOr0(registry, "engine.wal.group_commits")),
      events);
  (*v)["engine.wal.errors"] =
      static_cast<double>(CounterOr0(registry, "engine.wal.errors"));
}

double LoopOpsPerS(const LoopStats& loop) { return loop.sliced.OpsPerS(); }

Outcome RunEngineTraced(const EngineWorkload& w, const Args& args) {
  Outcome out;
  HistoryOracle oracle(w.spec_text);
  // Instance ids restart with every engine, so the crash image comes from
  // one engine's window alone: the WAL phase (g).
  std::vector<CrashLog> image;
  bool collect = false;
  ResultHook hook = CheckAndCollect(&oracle, &image, &collect);
  const double s = args.seconds;
  std::map<std::string, double>& v = out.values;

  // (a) Untraced reference window: the base of the tracing overhead.
  double untraced_ops_per_s = 0;
  {
    WarmEngine warm = SetUpEngine(w, EngineOptionsFor(w, w.shards, ""), hook);
    ScriptSource source(w, kRunStream);
    untraced_ops_per_s = LoopOpsPerS(
        RunClosedLoop(&warm, &source, 0.25 * s, 0, hook));
  }

  // (b) The same window with profiler, lifecycle metrics, tracer and the
  // allocation counter on; counters are harvested after Stop.
  {
    cdes::obs::GuardProfiler profiler;
    cdes::obs::TraceRecorder tracer;
    tracer.set_capacity(1 << 16);
    cdes::engine::EngineOptions options = EngineOptionsFor(w, w.shards, "");
    options.profiler = &profiler;
    options.tracer = &tracer;
    options.lifecycle_metrics = true;
    WarmEngine warm = SetUpEngine(w, options, hook);
    ScriptSource source(w, kRunStream);
    alloc::Start();
    LoopStats loop =
        RunClosedLoop(&warm, &source, 0.25 * s, 0, hook);
    alloc::Tally allocs = alloc::Stop();
    warm.engine->Stop();
    v["obs.trace_overhead_frac"] =
        1.0 - Ratio(LoopOpsPerS(loop), untraced_ops_per_s);
    v["engine.allocs_per_event"] =
        Ratio(static_cast<double>(allocs.count),
              static_cast<double>(loop.collected_events));
    v["engine.alloc_bytes_per_instance"] = Ratio(
        static_cast<double>(allocs.bytes), static_cast<double>(loop.collected));
    v["engine.admission_wait_p99_ms"] = loop.submit_ms.Percentile(0.99);
    HarvestEngineCounters(*warm.engine, profiler, &v);
  }

  // (c) Shard scaling: the same workload at 1 shard, untraced.
  if (w.shards > 1) {
    WarmEngine warm = SetUpEngine(w, EngineOptionsFor(w, 1, ""), hook);
    ScriptSource source(w, kRunStream);
    double one_shard = LoopOpsPerS(
        RunClosedLoop(&warm, &source, 0.15 * s, 0, hook));
    v["engine.shard_speedup"] = Ratio(untraced_ops_per_s, one_shard);
  }

  // (d) Replica spans, then (e) a 1-shard engine over the same instances:
  // the engine time the replica's layer spans do not cover.
  SpecLoadTimes load = MeasureSpecLoad(w.spec_text, 5);
  v["spec.parse_us"] = load.parse_us;
  v["guards.compile_us"] = load.compile_us;
  {
    Replica replica(w, "", nullptr);
    ScriptSource warmups(w, kWarmupStream);
    replica.Run(&warmups, 0, 1, hook);
    ScriptSource source(w, kRunStream);
    replica.Run(&source, 0.1 * s, 0, hook);
    const double n = static_cast<double>(replica.instances());
    std::map<std::string, double> self = replica.spans().SelfNs();
    v["sim.run_us_per_instance"] = Ratio(self["sim_run"], n) / 1e3;
    v["sched.world_build_us"] = Ratio(self["world_build"], n) / 1e3;
    v["sched.world_teardown_us"] = Ratio(self["teardown"], n) / 1e3;
    v["sched.finish_us"] = Ratio(self["finish"], n) / 1e3;

    WarmEngine warm = SetUpEngine(w, EngineOptionsFor(w, 1, ""), hook);
    ScriptSource same(w, kRunStream);
    LoopStats loop =
        RunClosedLoop(&warm, &same, 0, replica.instances(), hook);
    v["engine.unattributed_frac"] =
        1.0 - Ratio(replica.spans().CoveredNs() / 1e9, loop.window_s);
  }

  // (f) Guard-evaluation share of a profiled replica's busy time.
  {
    cdes::obs::GuardProfiler profiler;
    Replica replica(w, "", &profiler);
    ScriptSource source(w, kRunStream);
    replica.Run(&source, 0.05 * s, 0, hook);
    double eval_ns = 0;
    for (const cdes::obs::GuardSiteStats& site : profiler.Snapshot()) {
      eval_ns += site.EstimatedWallNs();
    }
    v["temporal.guard_eval_share"] = Ratio(eval_ns, replica.busy_ns());
  }

  // (g) Durable: the same workload with every log mirrored to an on-disk
  // WAL (group commit fixed by the workload), its RecoverDir restart, and
  // the replica's ShardWal calls, log parses and scheduler recoveries.
  if (w.durable) {
    {
      collect = true;
      WarmEngine warm = SetUpEngine(
          w, EngineOptionsFor(w, w.shards, SubDir(args, "wal")), hook);
      ScriptSource source(w, kRunStream);
      RunClosedLoop(&warm, &source, 0.1 * s, 0, hook);
      warm.engine->Stop();
      collect = false;
      out.failed += CountLogs(SubDir(args, "wal"));  // retired on completion
      HarvestWal(*warm.engine, &v);
    }
    v["engine.recover_s"] =
        RecoverImage(w, SubDir(args, "image"), image, &oracle, &out);

    Replica wal_replica(w, SubDir(args, "wal-replica"), nullptr);
    ScriptSource source(w, kRunStream);
    wal_replica.Run(&source, 0.05 * s, 0, hook);
    out.failed += wal_replica.wal_errors();
    std::map<std::string, double> self = wal_replica.spans().SelfNs();
    v["engine.wal.us_per_instance"] =
        Ratio(self["wal_create"] + self["wal_append"] + self["wal_flush"] +
                  self["wal_remove"],
              static_cast<double>(wal_replica.instances())) /
        1e3;

    std::vector<std::string> logs;
    for (const CrashLog& c : image) logs.push_back(c.log_text);
    Replica recovery(w, "", nullptr);
    recovery.Recover(logs);
    out.failed += logs.size() - recovery.recovered();
    self = recovery.spans().SelfNs();
    const double n = static_cast<double>(logs.size());
    v["runtime.log_parse_us_per_instance"] = Ratio(self["log_parse"], n) / 1e3;
    v["sched.recover_us_per_instance"] = Ratio(self["sched_recover"], n) / 1e3;
  }
  out.attempted = oracle.observed();
  out.failed += oracle.Finish();
  return out;
}

// ---------------------------------------------------------------------------
// Verify workload: the cdes-lint --check path, one spec per operation.

struct VerifyTimes {
  double parse_ns = 0, static_ns = 0, compile_ns = 0, check_ns = 0;
  uint64_t states = 0;

  void Add(const VerifyTimes& o) {
    parse_ns += o.parse_ns;
    static_ns += o.static_ns;
    compile_ns += o.compile_ns;
    check_ns += o.check_ns;
    states += o.states;
  }
};

/// Parses and verifies one spec in a fresh context, as cdes-lint --check
/// does: the static analyzer, then the exhaustive reachability checker.
/// With `times`, each layer call is timed separately (compile and check
/// are then called apart, which is what CheckWorkflow does inside).
/// Returns false when the spec fails the output check: no parse, a
/// `bounded` check, or a CL023 guards/spec mismatch.
bool VerifyOne(const std::string& text, VerifyTimes* times) {
  namespace an = cdes::analysis;
  cdes::WorkflowContext ctx;
  uint64_t t0 = NowNs();
  auto parsed = cdes::ParseWorkflow(&ctx, text);
  if (!parsed.ok()) return false;
  const cdes::ParsedWorkflow& workflow = parsed.value();
  uint64_t t1 = NowNs();
  an::AnalyzeOptions options;
  std::vector<an::Diagnostic> findings =
      an::AnalyzeWorkflow(&ctx, workflow, options);
  uint64_t t2 = NowNs();
  an::CheckResult check;
  if (times == nullptr) {
    check = an::CheckWorkflow(&ctx, workflow, options.check);
  } else {
    cdes::CompiledWorkflow compiled =
        cdes::CompileWorkflow(&ctx, workflow.spec);
    uint64_t t3 = NowNs();
    check = an::CheckCompiled(&ctx, workflow, compiled, options.check);
    uint64_t t4 = NowNs();
    times->parse_ns += static_cast<double>(t1 - t0);
    times->static_ns += static_cast<double>(t2 - t1);
    times->compile_ns += static_cast<double>(t3 - t2);
    times->check_ns += static_cast<double>(t4 - t3);
    times->states += check.stats.states_explored;
  }
  auto mismatch = [](const an::Diagnostic& d) {
    return d.rule == an::Rule::kGuardSpecMismatch;
  };
  return !check.stats.bounded &&
         std::none_of(findings.begin(), findings.end(), mismatch) &&
         std::none_of(check.diagnostics.begin(), check.diagnostics.end(),
                      mismatch);
}

/// The fixed per-process cost: verifying one small spec (the travel
/// workflow) in a fresh context.
double VerifySetup(Outcome* out) {
  Clock::time_point t0 = Clock::now();
  ++out->attempted;
  if (!VerifyOne(TravelWorkload(1).spec_text, nullptr)) ++out->failed;
  return SecondsSince(t0);
}

/// Verify slices are long enough to hold about a thousand specs, so each
/// slice's p99 has ten specs beyond it.
constexpr double kVerifySliceSeconds = 2.5;

/// Client threads of the verify loop. Spec checks are independent, as when
/// cdes-lint checks several files at once, and a single thread followed
/// the speed of whichever CPU of the shared host it ran on: its throughput
/// spread 13–27% between runs, against 4–15% for the 2-shard workloads.
size_t VerifyThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? std::min<size_t>(3, hw - 1) : 1;
}

/// Closed loop over the corpus for `seconds`, one spec per operation, on
/// VerifyThreads() client threads taking specs in turn. The clients rotate
/// over the CPUs (CpuRotation), driven from the calling thread.
SlicedWindow RunVerifyLoop(const std::vector<std::string>& corpus,
                           double seconds, VerifyTimes* times, Outcome* out) {
  SlicedWindow window(Clock::now(), seconds, kVerifySliceSeconds);
  const Clock::time_point deadline = window.deadline();
  std::mutex mu;  // guards window, *times and *out
  std::atomic<size_t> next{0};
  std::vector<pid_t> tids(VerifyThreads());
  std::atomic<size_t> started{0};
  auto client = [&](size_t t) {
    tids[t] = gettid();
    started.fetch_add(1, std::memory_order_release);
    VerifyTimes local;
    uint64_t attempted = 0, failed = 0;
    Clock::time_point now = Clock::now();
    while (now < deadline) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      ++attempted;
      if (!VerifyOne(corpus[i % corpus.size()],
                     times == nullptr ? nullptr : &local)) {
        ++failed;
      }
      Clock::time_point done = Clock::now();
      if (done < deadline) {
        std::lock_guard<std::mutex> lock(mu);
        window.Add(done, SecondsBetween(now, done) * 1e3, kVerifyEvents);
      }
      now = done;
    }
    std::lock_guard<std::mutex> lock(mu);
    out->attempted += attempted;
    out->failed += failed;
    if (times != nullptr) times->Add(local);
  };
  std::vector<std::thread> clients;
  for (size_t t = 0; t < tids.size(); ++t) clients.emplace_back(client, t);
  while (started.load(std::memory_order_acquire) < tids.size()) {
    std::this_thread::yield();
  }
  CpuRotation rotation(tids);
  for (Clock::time_point now = Clock::now(); now < deadline;
       now = Clock::now()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    rotation.MaybeRotate(now);
  }
  for (std::thread& t : clients) t.join();
  window.Finish();
  return window;
}

Outcome RunVerifyUntraced(const Args& args) {
  Outcome out;
  std::vector<std::string> corpus = VerifyCorpus(args.seed, kVerifyCorpus);
  std::vector<double> setups;
  for (size_t k = 0; k < kSetupReps; ++k) setups.push_back(VerifySetup(&out));
  // A spec's events are its declared events.
  AddWindowMetrics(RunVerifyLoop(corpus, args.seconds, nullptr, &out), &out);
  out.values["setup_s"] = Median(setups);
  out.values["peak_rss_mb"] = PeakRssMb();
  return out;
}

Outcome RunVerifyTraced(const Args& args) {
  Outcome out;
  std::vector<std::string> corpus = VerifyCorpus(args.seed, kVerifyCorpus);
  VerifySetup(&out);
  SlicedWindow untraced =
      RunVerifyLoop(corpus, 0.4 * args.seconds, nullptr, &out);
  VerifyTimes times;
  uint64_t before = out.attempted;
  SlicedWindow traced = RunVerifyLoop(corpus, 0.6 * args.seconds, &times, &out);
  const double n = static_cast<double>(out.attempted - before);
  std::map<std::string, double>& v = out.values;
  v["spec.parse_us"] = Ratio(times.parse_ns, n) / 1e3;
  v["guards.compile_us"] = Ratio(times.compile_ns, n) / 1e3;
  v["analysis.static_us"] = Ratio(times.static_ns, n) / 1e3;
  v["analysis.check_us"] = Ratio(times.check_ns, n) / 1e3;
  v["analysis.states_per_s"] =
      Ratio(static_cast<double>(times.states), times.check_ns / 1e9);
  v["analysis.states_per_spec"] = Ratio(static_cast<double>(times.states), n);
  v["obs.trace_overhead_frac"] =
      1.0 - Ratio(traced.OpsPerS(), untraced.OpsPerS());
  return out;
}

// ---------------------------------------------------------------------------

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: cdes_perfbench --workload "
               "travel|pipeline|durable|verify --seed N --seconds S --trace "
               "0|1 [--workdir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  fs::remove_all(args.workdir);
  fs::create_directories(args.workdir);

  Outcome out;
  if (args.workload == "verify") {
    out = args.trace ? RunVerifyTraced(args) : RunVerifyUntraced(args);
  } else {
    EngineWorkload w;
    if (args.workload == "travel") {
      w = TravelWorkload(args.seed);
    } else if (args.workload == "pipeline") {
      w = PipelineWorkload(args.seed);
    } else if (args.workload == "durable") {
      w = DurableWorkload(args.seed);
    } else {
      Usage(("unknown workload " + args.workload).c_str());
    }
    out = args.trace ? RunEngineTraced(w, args) : RunEngineUntraced(w, args);
  }
  fs::remove_all(args.workdir);

  Report report;
  for (const MetricSpec& m : args.trace ? std::vector<MetricSpec>(
                                              std::begin(kPerLayer),
                                              std::end(kPerLayer))
                                        : std::vector<MetricSpec>(
                                              std::begin(kEndToEnd),
                                              std::end(kEndToEnd))) {
    auto it = out.values.find(m.name);
    report.Add(m.name, it == out.values.end() ? 0.0 : it->second, m.unit);
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  report.Print(stdout);
  out.extra.Add("failed_frac",
                Ratio(static_cast<double>(out.failed),
                      static_cast<double>(out.attempted)),
                "ratio");
  out.extra.Print(stdout);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      out.failed == 0 && out.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), report.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
