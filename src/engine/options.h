#ifndef CDES_ENGINE_OPTIONS_H_
#define CDES_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/obs.h"
#include "obs/profiler.h"
#include "sim/simulator.h"

namespace cdes::engine {

/// Every knob of the multi-instance engine. The Engine and each of its
/// shards read this one struct; a shard adds only its own index and the
/// engine's wall-clock epoch.
struct EngineOptions {
  /// Worker shards. 0 = auto (half the hardware threads, at least 1).
  size_t shards = 0;
  /// Admission limit: instances in flight (submitted, not yet completed)
  /// before Submit blocks / TrySubmit rejects. 0 = unbounded.
  size_t max_in_flight = 4096;
  /// Instances a shard interleaves at once; further commands wait in its
  /// mailbox (bounds live memory at shards × max_resident worlds).
  size_t max_resident_per_shard = 64;
  /// Seed for the per-instance network RNG streams. Together with the
  /// submission order (which fixes instance ids), this fully determines
  /// every instance's history — independent of shard count.
  uint64_t seed = 1;
  /// Per-instance simulated network latency between distinct sites, plus
  /// uniform jitter drawn from the instance's seeded RNG.
  SimTime base_latency = 1000;
  SimTime jitter = 0;
  /// Keep one EventLog per instance and return its serialized form in the
  /// InstanceResult, enabling Engine::Recover after a crash.
  bool durable_logs = false;
  /// When non-empty, every in-flight instance's log is mirrored to
  /// `<wal_dir>/<id>.log` on disk as it runs (implies durable_logs; the
  /// directory is created). A crashed engine rebuilds from those files via
  /// RecoverDir. Completed instances' files are removed — their sealed log
  /// lives in the InstanceResult.
  std::string wal_dir;
  /// Group commit: WAL appends buffer across a shard's residents and hit
  /// the filesystem once this many lines accumulate (or at a barrier —
  /// shard idle, stop). 1 = write-through on every record. Needs wal_dir.
  size_t group_commit_records = 1;
  /// Construct paused: submissions queue but no shard consumes until
  /// Resume(). Deterministic admission tests; bench preloading.
  bool start_paused = false;
  /// When set, one Complete span per instance ("instance <id>", tid =
  /// instance id, pid = shard index, wall-clock microseconds) is recorded,
  /// plus a "submit <id>" span on the engine lane and a flow arrow linking
  /// the two across threads. Calls are serialized by the instance manager,
  /// so an ordinary TraceRecorder is safe despite the multi-threaded
  /// engine.
  obs::TraceRecorder* tracer = nullptr;
  /// When set, every shard's resident schedulers attribute guard
  /// evaluations to it. GuardProfiler is internally thread-safe (atomic
  /// record path), so one profiler shared by all shards is the intended
  /// shape.
  obs::GuardProfiler* profiler = nullptr;
  /// Turn on per-instance lifecycle histograms in the shard registries
  /// (sched.decision_latency_us, sched.guard_reduction_steps, ...). Off by
  /// default: the engine hot path skips that instrumentation.
  bool lifecycle_metrics = false;
};

}  // namespace cdes::engine

#endif  // CDES_ENGINE_OPTIONS_H_
