#ifndef CDES_PERFBENCH_REPLICA_H_
#define CDES_PERFBENCH_REPLICA_H_

// The traced run's single-threaded replica of an engine shard. It drives
// the same instances through the public classes a shard assembles per
// instance (Simulator, Network, GuardScheduler, EventLog, ShardWal) and
// times each call from outside as a span whose parent is the instance.
// Nothing inside the library is instrumented.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/wal.h"
#include "closed_loop.h"
#include "guards/context.h"
#include "guards/workflow.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "spec/ast.h"
#include "workloads.h"

namespace perfbench {

/// Spans kept in memory: name, start, end and the span that caused them.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  int Begin(const char* name, int parent) {
    spans_.push_back({name, NowNs(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }
  void Clear() { spans_.clear(); }

  /// Self time per span name: duration minus the children's durations.
  std::map<std::string, double> SelfNs() const;
  /// Total duration of the children of root spans: the time the layer
  /// spans cover.
  double CoveredNs() const;

 private:
  struct Span {
    const char* name;
    uint64_t begin_ns;
    uint64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
};

/// Median wall time of parsing and of compiling `spec_text`, each in a
/// fresh context, over `reps` repetitions.
struct SpecLoadTimes {
  double parse_us = 0;
  double compile_us = 0;
};
SpecLoadTimes MeasureSpecLoad(const std::string& spec_text, size_t reps);

class Replica {
 public:
  /// With a non-empty `wal_dir` every instance log is mirrored there through
  /// a ShardWal; `profiler` (nullable) is attached to every scheduler.
  Replica(const EngineWorkload& workload, const std::string& wal_dir,
          cdes::obs::GuardProfiler* profiler);
  ~Replica();

  /// Steps instances from `source` the way a shard does: up to the
  /// engine's max_resident_per_shard live worlds, round-robin, a batch of
  /// simulator events per instance per turn. Admits new instances until
  /// `seconds` have passed or `max_instances` (when > 0) were admitted,
  /// then finishes the residents. Results go to `hook`. Spans and counts
  /// restart with every call, so a first short call serves as warm-up.
  void Run(ScriptSource* source, double seconds, uint64_t max_instances,
           const ResultHook& hook);

  /// Rebuilds one instance per serialized log: a fresh world, then
  /// EventLog::LoadTolerant and GuardScheduler::Recover.
  void Recover(const std::vector<std::string>& logs);

  const SpanLog& spans() const { return spans_; }
  /// Wall time of the last Run, admission to last completion.
  double busy_ns() const { return busy_ns_; }
  uint64_t instances() const { return instances_; }
  uint64_t recovered() const { return recovered_; }
  /// ShardWal calls that returned an error.
  uint64_t wal_errors() const { return wal_errors_; }

 private:
  struct World;
  std::unique_ptr<World> Build(uint64_t id, int parent);
  /// One cooperative turn; true when the instance is finished.
  bool Step(World& w);
  void SyncWal(World& w);
  void Finish(std::unique_ptr<World> w, const ResultHook& hook);

  const EngineWorkload& workload_;
  cdes::obs::GuardProfiler* const profiler_;
  std::unique_ptr<cdes::WorkflowContext> ctx_;
  cdes::ParsedWorkflow workflow_;
  cdes::CompiledWorkflowRef compiled_;
  size_t sites_ = 1;
  std::unique_ptr<cdes::engine::ShardWal> wal_;
  cdes::obs::MetricsRegistry metrics_;
  SpanLog spans_;
  double busy_ns_ = 0;
  uint64_t next_id_ = 0;
  uint64_t instances_ = 0;
  uint64_t recovered_ = 0;
  uint64_t wal_errors_ = 0;
};

}  // namespace perfbench

#endif  // CDES_PERFBENCH_REPLICA_H_
