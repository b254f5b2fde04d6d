#ifndef CDES_PERFBENCH_CLOSED_LOOP_H_
#define CDES_PERFBENCH_CLOSED_LOOP_H_

// The closed-loop generator for the engine workloads: one client thread
// keeps a fixed window of instances outstanding, submits the next one as
// each result is collected, and times every instance itself (Submit to
// collection from TakeResults).

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "workloads.h"

namespace perfbench {

/// Called once per collected result with whether its script closed.
using ResultHook = std::function<void(
    const cdes::engine::InstanceResult& result, bool closed)>;

/// Engine options for `workload` at `shards` shards, mirroring every log to
/// `wal_dir` when it is non-empty.
cdes::engine::EngineOptions EngineOptionsFor(const EngineWorkload& workload,
                                             size_t shards,
                                             const std::string& wal_dir);

/// Moves an engine's shard threads and the generator round-robin over the
/// process's CPUs, each thread on a CPU of its own while there are enough.
/// One CPU of the shared host can run markedly slower than another for
/// tens of seconds, so a thread left where the scheduler first put it makes
/// the run's throughput a draw of that placement. Rotating every
/// kRotateInterval gives every thread every CPU for an equal share of the
/// window.
class CpuRotation {
 public:
  CpuRotation() = default;
  /// Pins `threads` (thread ids) to the first CPUs the process may use, in
  /// order. With fewer than 2 CPUs nothing is pinned.
  explicit CpuRotation(std::vector<pid_t> threads);
  /// Moves every thread one CPU on once an interval has passed since the
  /// last move.
  void MaybeRotate(Clock::time_point now);

 private:
  void Pin();

  std::vector<pid_t> threads_;
  std::vector<int> cpus_;
  size_t step_ = 0;
  Clock::time_point last_{};
};

struct WarmEngine {
  std::unique_ptr<cdes::engine::Engine> engine;
  CpuRotation rotation;
  /// Spec load + engine construction + one completed warm-up instance per
  /// shard (each shard compiles lazily on its own thread).
  double setup_s = 0;
};

/// Builds and warms an engine; warm-up results go to `hook`.
WarmEngine SetUpEngine(const EngineWorkload& workload,
                       const cdes::engine::EngineOptions& options,
                       const ResultHook& hook);

struct LoopStats {
  LoopStats(double seconds, double slice_seconds)
      : sliced(Clock::now(), seconds, slice_seconds) {}
  /// Throughput and client-timed latency (Submit to collection), per slice.
  SlicedWindow sliced;
  /// Wall time from the first Submit to the last collection inside the
  /// window: the whole batch when the loop ran to `max_ops`.
  double window_s = 0;
  /// Duration of the Submit calls (the client's admission wait).
  Reservoir submit_ms;
  /// Every result collected, window and final drain alike.
  uint64_t collected = 0;
  uint64_t collected_events = 0;
};

/// Runs the closed loop for `seconds` (or, when `max_ops` > 0, until that
/// many instances have completed, timing the whole batch in `window_s`),
/// then stops submitting and drains what is still outstanding. Shards and
/// generator rotate over the CPUs throughout.
LoopStats RunClosedLoop(WarmEngine* warm, ScriptSource* source,
                        double seconds, uint64_t max_ops,
                        const ResultHook& hook);

/// Collects `count` results, polling TakeResults.
void CollectResults(
    cdes::engine::Engine* engine, size_t count,
    const std::function<void(cdes::engine::InstanceResult&)>& fn);

}  // namespace perfbench

#endif  // CDES_PERFBENCH_CLOSED_LOOP_H_
