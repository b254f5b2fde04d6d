#include "replica.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "algebra/trace.h"
#include "engine/engine.h"
#include "runtime/event_log.h"
#include "sched/guard_scheduler.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "spec/parser.h"

namespace perfbench {
namespace {

/// The engine's defaults: closure waves before giving up on maximality,
/// simulator events per instance per cooperative turn, and live instances
/// per shard.
constexpr size_t kMaxCloseRounds = 16;
constexpr size_t kStepBatch = 64;
const size_t kMaxResident =
    cdes::engine::EngineOptions{}.max_resident_per_shard;

cdes::ParsedWorkflow ParseOrDie(cdes::WorkflowContext* ctx,
                                const std::string& text) {
  auto parsed = cdes::ParseWorkflow(ctx, text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "replica: spec does not parse: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(parsed).value();
}

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, int parent)
      : log_(log), span_(log->Begin(name, parent)) {}
  ~Scoped() { log_->End(span_); }

 private:
  SpanLog* log_;
  int span_;
};

}  // namespace

std::map<std::string, double> SpanLog::SelfNs() const {
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    self[s.name] += static_cast<double>(s.end_ns - s.begin_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    self[p.name] -= static_cast<double>(s.end_ns - s.begin_ns);
  }
  return self;
}

double SpanLog::CoveredNs() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    if (spans_[static_cast<size_t>(s.parent)].parent != kNoParent) continue;
    total += static_cast<double>(s.end_ns - s.begin_ns);
  }
  return total;
}

SpecLoadTimes MeasureSpecLoad(const std::string& spec_text, size_t reps) {
  std::vector<double> parse_us, compile_us;
  for (size_t i = 0; i < reps; ++i) {
    cdes::WorkflowContext ctx;
    Clock::time_point t0 = Clock::now();
    cdes::ParsedWorkflow workflow = ParseOrDie(&ctx, spec_text);
    Clock::time_point t1 = Clock::now();
    cdes::CompiledWorkflowRef compiled =
        cdes::CompileWorkflowShared(&ctx, workflow.spec);
    Clock::time_point t2 = Clock::now();
    parse_us.push_back(SecondsBetween(t0, t1) * 1e6);
    compile_us.push_back(SecondsBetween(t1, t2) * 1e6);
  }
  return {Median(parse_us), Median(compile_us)};
}

/// One instance world plus its script state, as a shard's resident holds
/// it. The world's members come in dependency order (sim before net before
/// log before sched) so destruction unwinds safely.
struct Replica::World {
  uint64_t id = 0;
  /// The instance span every call on this world is a child of.
  int span = SpanLog::kNoParent;
  cdes::engine::InstanceScript script;
  size_t pos = 0;
  enum class Phase { kScript, kClosing, kDone } phase = Phase::kScript;
  size_t close_rounds = 0;
  size_t wal_seen = 0;
  cdes::engine::InstanceResult result;
  cdes::Simulator sim;
  std::unique_ptr<cdes::Network> net;
  std::unique_ptr<cdes::EventLog> log;
  std::unique_ptr<cdes::GuardScheduler> sched;
};

Replica::Replica(const EngineWorkload& workload, const std::string& wal_dir,
                 cdes::obs::GuardProfiler* profiler)
    : workload_(workload),
      profiler_(profiler),
      ctx_(std::make_unique<cdes::WorkflowContext>()) {
  workflow_ = ParseOrDie(ctx_.get(), workload.spec_text);
  compiled_ = cdes::CompileWorkflowShared(ctx_.get(), workflow_.spec);
  for (const cdes::AgentDecl& agent : workflow_.agents) {
    sites_ = std::max(sites_, static_cast<size_t>(agent.site) + 1);
  }
  if (!wal_dir.empty()) {
    std::filesystem::create_directories(wal_dir);
    cdes::engine::WalOptions wopts;
    wopts.dir = wal_dir;
    wopts.group_commit_records = kGroupCommitRecords;
    wal_ = std::make_unique<cdes::engine::ShardWal>(wopts);
  }
}

Replica::~Replica() = default;

std::unique_ptr<Replica::World> Replica::Build(uint64_t id, int parent) {
  Scoped span(&spans_, "world_build", parent);
  auto w = std::make_unique<World>();
  w->id = id;
  w->span = parent;
  w->result.id = id;
  cdes::NetworkOptions nopts;
  nopts.seed = workload_.seed + id;
  nopts.metrics = &metrics_;
  w->net = std::make_unique<cdes::Network>(&w->sim, sites_, nopts);
  cdes::GuardSchedulerOptions sopts;
  sopts.metrics = &metrics_;
  sopts.lifecycle_instrumentation = false;
  sopts.profiler = profiler_;
  sopts.trace_id = id;
  if (workload_.durable || wal_ != nullptr) {
    w->log = std::make_unique<cdes::EventLog>();
    w->log->set_instance(id);
    sopts.durable_log = w->log.get();
  }
  w->sched = std::make_unique<cdes::GuardScheduler>(ctx_.get(), compiled_,
                                                    workflow_, w->net.get(),
                                                    sopts);
  return w;
}

void Replica::SyncWal(World& w) {
  if (wal_ == nullptr) return;
  {
    Scoped span(&spans_, "wal_append", w.span);
    const std::vector<cdes::EventLog::Record>& records = w.log->records();
    for (size_t i = w.wal_seen; i < records.size(); ++i) {
      wal_->Append(w.id,
                   cdes::EventLog::RecordLine(records[i], *ctx_->alphabet()));
    }
    w.wal_seen = records.size();
  }
  if (wal_->ShouldFlush()) {
    Scoped span(&spans_, "wal_flush", w.span);
    if (!wal_->FlushAll().ok()) ++wal_errors_;
  }
}

bool Replica::Step(World& w) {
  if (w.sim.pending() > 0) {
    {
      Scoped span(&spans_, "sim_run", w.span);
      w.sim.Run(kStepBatch);
    }
    SyncWal(w);
    if (w.sim.pending() > 0) return false;
  }
  switch (w.phase) {
    case World::Phase::kScript: {
      if (w.pos < w.script.attempts.size()) {
        const std::string& name = w.script.attempts[w.pos++];
        Scoped span(&spans_, "attempt", w.span);
        auto literal = ctx_->alphabet()->ParseLiteral(name);
        if (!literal.ok()) {
          w.result.error = "unknown event " + name;
          w.phase = World::Phase::kDone;
          return true;
        }
        cdes::engine::InstanceResult* result = &w.result;
        w.sched->Attempt(literal.value(), [result](cdes::Decision d) {
          if (d == cdes::Decision::kAccepted) ++result->accepted;
          if (d == cdes::Decision::kRejected) ++result->rejected;
        });
        return false;
      }
      if (!w.script.close) {
        w.phase = World::Phase::kDone;
        return true;
      }
      w.phase = World::Phase::kClosing;
      return false;
    }
    case World::Phase::kClosing: {
      Scoped span(&spans_, "close", w.span);
      if (w.sched->Undecided().empty() ||
          ++w.close_rounds > kMaxCloseRounds) {
        w.phase = World::Phase::kDone;
        return true;
      }
      w.sched->Close();
      return false;
    }
    case World::Phase::kDone:
      return true;
  }
  return true;
}

void Replica::Finish(std::unique_ptr<World> w, const ResultHook& hook) {
  const int instance = w->span;
  if (w->result.error.empty()) {
    Scoped span(&spans_, "finish", instance);
    w->result.events = w->sched->history().size();
    w->result.maximal = w->sched->Undecided().empty();
    w->result.consistent = w->sched->HistoryConsistent(w->result.maximal);
    w->result.history =
        cdes::TraceToString(w->sched->history(), *ctx_->alphabet());
    if (w->log != nullptr) {
      w->result.log_text = w->log->Serialize(*ctx_->alphabet());
    }
  }
  if (wal_ != nullptr) {
    Scoped span(&spans_, "wal_remove", instance);
    if (!wal_->Remove(w->id).ok()) ++wal_errors_;
  }
  cdes::engine::InstanceResult result = std::move(w->result);
  bool closed = w->script.close;
  {
    Scoped span(&spans_, "teardown", instance);
    w.reset();
  }
  spans_.End(instance);
  ++instances_;
  hook(result, closed);
}

void Replica::Run(ScriptSource* source, double seconds, uint64_t max_instances,
                  const ResultHook& hook) {
  spans_.Clear();
  instances_ = 0;
  Clock::time_point t0 = Clock::now();
  uint64_t admitted = 0;
  auto admitting = [&] {
    return max_instances > 0 ? admitted < max_instances
                             : SecondsSince(t0) < seconds;
  };
  std::vector<std::unique_ptr<World>> active;
  while (true) {
    while (active.size() < kMaxResident && admitting()) {
      int instance = spans_.Begin("instance", SpanLog::kNoParent);
      std::unique_ptr<World> w = Build(next_id_++, instance);
      w->script = source->Next();
      if (wal_ != nullptr) {
        Scoped span(&spans_, "wal_create", instance);
        if (!wal_->Create(w->id, w->log->SerializeOpen(*ctx_->alphabet()))
                 .ok()) {
          ++wal_errors_;
        }
      }
      active.push_back(std::move(w));
      ++admitted;
    }
    if (active.empty()) break;
    for (auto it = active.begin(); it != active.end();) {
      if (Step(**it)) {
        Finish(std::move(*it), hook);
        it = active.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (wal_ != nullptr && !wal_->FlushAll().ok()) ++wal_errors_;
  busy_ns_ = SecondsSince(t0) * 1e9;
}

void Replica::Recover(const std::vector<std::string>& logs) {
  for (const std::string& text : logs) {
    int instance = spans_.Begin("recover_instance", SpanLog::kNoParent);
    std::unique_ptr<World> w = Build(next_id_++, instance);
    cdes::Result<cdes::EventLog> log = [&] {
      Scoped span(&spans_, "log_parse", instance);
      return cdes::EventLog::LoadTolerant(*ctx_->alphabet(), text);
    }();
    if (log.ok()) {
      Scoped span(&spans_, "sched_recover", instance);
      if (w->sched->Recover(log.value()).ok()) ++recovered_;
    }
    {
      Scoped span(&spans_, "teardown", instance);
      w.reset();
    }
    spans_.End(instance);
  }
}

}  // namespace perfbench
