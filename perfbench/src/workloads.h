#ifndef CDES_PERFBENCH_WORKLOADS_H_
#define CDES_PERFBENCH_WORKLOADS_H_

// The benchmark's inputs: spec texts, per-instance scripts and the verify
// corpus, all generated from the run's seed and nothing else.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "engine/instance.h"

namespace perfbench {

/// How one engine workload is run: its spec, the engine shape and the
/// closed-loop window (operations kept outstanding by the generator).
struct EngineWorkload {
  std::string name;
  std::string spec_text;
  size_t shards = 1;
  size_t window = 64;
  /// Length of one slice of the timed window (see SlicedWindow): long
  /// enough that a slice holds many completions.
  double slice_seconds = 1.0;
  /// Keep a durable log per instance (EngineOptions::durable_logs); a share
  /// of the instances stays open and their logs form a crash image.
  bool durable = false;
  uint64_t seed = 1;
};

/// Per-instance scripts of one workload, drawn in order from the seed: the
/// same seed yields the same sequence, which is what lets the traced run's
/// replica and 1-shard reference drive exactly the instances the engine ran.
class ScriptSource {
 public:
  ScriptSource(const EngineWorkload& workload, uint64_t stream);
  /// The next script; `tag` is left for the caller.
  cdes::engine::InstanceScript Next();
  const EngineWorkload& workload() const { return workload_; }

 private:
  const EngineWorkload& workload_;
  InputRng rng_;
};

/// WAL group-commit threshold whenever an engine runs with a wal_dir.
inline constexpr size_t kGroupCommitRecords = 64;

/// Script streams: the measured instances, and the warm-ups.
inline constexpr uint64_t kRunStream = 1;
inline constexpr uint64_t kWarmupStream = 0xA11CE;

EngineWorkload TravelWorkload(uint64_t seed);
EngineWorkload PipelineWorkload(uint64_t seed);
EngineWorkload DurableWorkload(uint64_t seed);

/// Seeded corpus of `count` spec texts for the verify workload.
std::vector<std::string> VerifyCorpus(uint64_t seed, size_t count);

/// Number of events each verify spec declares.
inline constexpr size_t kVerifyEvents = 8;

}  // namespace perfbench

#endif  // CDES_PERFBENCH_WORKLOADS_H_
