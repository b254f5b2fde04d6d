#include "closed_loop.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

using cdes::engine::Engine;
using cdes::engine::EngineOptions;
using cdes::engine::InstanceResult;
using cdes::engine::InstanceScript;

namespace {

/// How long the client sleeps when no result is ready. Sleeping rather
/// than spinning keeps the client off the cores and the manager mutex the
/// shards use; it delays each collection by at most about this much.
constexpr auto kPollInterval = std::chrono::microseconds(50);

/// The CPUs the process may use, read on first use: by the main thread,
/// before any CpuRotation has narrowed its mask.
const std::vector<int>& ProcessCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> list;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return list;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) list.push_back(cpu);
    }
    return list;
  }();
  return cpus;
}

void PinThread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

/// How long a thread stays on one CPU before CpuRotation moves it on.
constexpr auto kRotateInterval = std::chrono::milliseconds(100);

/// The ids of this process's threads, ascending.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10)));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

/// Builds an engine whose shards and generator each hold a CPU of their
/// own. The threads the constructor starts are the shards; with the
/// calling thread (the generator) they rotate over the process's CPUs
/// (CpuRotation). Sharing a CPU, the generator's 50 µs poll wake-ups
/// preempted a shard thousands of times a second. With fewer than 2 CPUs
/// nothing is pinned.
void MakeEngine(cdes::engine::EngineSpecRef spec, const EngineOptions& options,
                WarmEngine* warm) {
  std::vector<pid_t> before = ThreadIds();
  warm->engine = std::make_unique<Engine>(spec, options);
  std::vector<pid_t> after = ThreadIds();
  std::vector<pid_t> threads;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(threads));
  threads.push_back(gettid());
  warm->rotation = CpuRotation(std::move(threads));
}

void CheckSubmitted(const cdes::Result<uint64_t>& id) {
  if (!id.ok()) {
    std::fprintf(stderr, "submit failed: %s\n", id.status().ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

CpuRotation::CpuRotation(std::vector<pid_t> threads)
    : threads_(std::move(threads)), cpus_(ProcessCpus()) {
  if (cpus_.size() >= 2) Pin();
}

void CpuRotation::MaybeRotate(Clock::time_point now) {
  if (cpus_.size() < 2 || now - last_ < kRotateInterval) return;
  last_ = now;
  ++step_;
  Pin();
}

void CpuRotation::Pin() {
  for (size_t k = 0; k < threads_.size(); ++k) {
    PinThread(threads_[k], cpus_[(k + step_) % cpus_.size()]);
  }
}

EngineOptions EngineOptionsFor(const EngineWorkload& workload, size_t shards,
                               const std::string& wal_dir) {
  EngineOptions options;
  options.shards = shards;
  options.seed = workload.seed;
  options.durable_logs = workload.durable;
  if (!wal_dir.empty()) {
    options.wal_dir = wal_dir;
    options.group_commit_records = kGroupCommitRecords;
  }
  return options;
}

void CollectResults(Engine* engine, size_t count,
                    const std::function<void(InstanceResult&)>& fn) {
  size_t seen = 0;
  while (seen < count) {
    std::vector<InstanceResult> results = engine->TakeResults();
    if (results.empty()) {
      std::this_thread::sleep_for(kPollInterval);
      continue;
    }
    for (InstanceResult& r : results) fn(r);
    seen += results.size();
  }
}

WarmEngine SetUpEngine(const EngineWorkload& workload,
                       const EngineOptions& options, const ResultHook& hook) {
  WarmEngine warm;
  Clock::time_point t0 = Clock::now();
  auto spec = cdes::engine::EngineSpec::FromText(workload.spec_text);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec rejected: %s\n",
                 spec.status().ToString().c_str());
    std::exit(1);
  }
  MakeEngine(spec.value(), options, &warm);
  // Ids route by id mod shards, so the first `shards` submissions put one
  // warm-up instance on every shard.
  ScriptSource warmups(workload, kWarmupStream);
  size_t shards = warm.engine->shard_count();
  for (size_t k = 0; k < shards; ++k) {
    InstanceScript script = warmups.Next();
    while (!script.close) script = warmups.Next();
    CheckSubmitted(warm.engine->Submit(std::move(script)));
  }
  CollectResults(warm.engine.get(), shards,
                 [&](InstanceResult& r) { hook(r, /*closed=*/true); });
  warm.setup_s = SecondsSince(t0);
  return warm;
}

LoopStats RunClosedLoop(WarmEngine* warm, ScriptSource* source,
                        double seconds, uint64_t max_ops,
                        const ResultHook& hook) {
  Engine* engine = warm->engine.get();
  const EngineWorkload& workload = source->workload();
  const size_t window = workload.window;
  LoopStats stats(max_ops > 0 ? workload.slice_seconds : seconds,
                  workload.slice_seconds);
  struct Pending {
    Clock::time_point submitted_at;
    bool closed;
    size_t shard;
  };
  std::unordered_map<uint64_t, Pending> outstanding;
  outstanding.reserve(2 * window);
  uint64_t submitted = 0;
  // The window is split evenly over the shards. Ids are allocated in order
  // and routed by id mod shards, so the next id's shard is known before it
  // is submitted. Without the split, the shards' shares of one window
  // random-walk apart: one shard queues instances in its mailbox while the
  // other runs few, and latency then depends on where the walk wandered.
  const size_t shards = engine->shard_count();
  const size_t per_shard = (window + shards - 1) / shards;
  std::vector<size_t> in_shard(shards);
  uint64_t next_id = 0;
  bool submitting = true;
  Clock::time_point t0 = Clock::now();
  Clock::time_point deadline =
      max_ops > 0 ? Clock::time_point::max() : stats.sliced.deadline();
  Clock::time_point last_in_window = t0;
  while (submitting || !outstanding.empty()) {
    while (submitting && outstanding.size() < window &&
           in_shard[next_id % shards] < per_shard) {
      InstanceScript script = source->Next();
      script.tag = submitted++;
      size_t shard = next_id % shards;
      Pending pending{Clock::now(), script.close, shard};
      cdes::Result<uint64_t> id = engine->Submit(std::move(script));
      CheckSubmitted(id);
      stats.submit_ms.Add(SecondsSince(pending.submitted_at) * 1e3);
      outstanding[submitted - 1] = pending;
      ++in_shard[shard];
      next_id = id.value() + 1;
      if (max_ops > 0 && submitted >= max_ops) submitting = false;
    }
    std::vector<InstanceResult> results = engine->TakeResults();
    if (results.empty()) {
      std::this_thread::sleep_for(kPollInterval);
      warm->rotation.MaybeRotate(Clock::now());
      continue;
    }
    Clock::time_point now = Clock::now();
    warm->rotation.MaybeRotate(now);
    bool in_window = now <= deadline;
    if (in_window) last_in_window = now;
    if (!in_window) submitting = false;
    for (InstanceResult& r : results) {
      auto it = outstanding.find(r.tag);
      if (it == outstanding.end()) {
        std::fprintf(stderr, "result for unknown tag %llu\n",
                     static_cast<unsigned long long>(r.tag));
        std::exit(1);
      }
      Pending pending = it->second;
      outstanding.erase(it);
      --in_shard[pending.shard];
      ++stats.collected;
      stats.collected_events += r.events;
      if (in_window) {
        stats.sliced.Add(now, SecondsBetween(pending.submitted_at, now) * 1e3,
                         r.events);
      }
      hook(r, pending.closed);
    }
  }
  stats.window_s = SecondsBetween(t0, last_in_window);
  stats.sliced.Finish();
  return stats;
}

}  // namespace perfbench
