#include "sched/guard_scheduler.h"

#include "algebra/semantics.h"
#include "common/strings.h"

namespace cdes {
namespace {

/// Estimated bytes per runtime message, for network accounting.
constexpr size_t kMessageBytes = 48;

}  // namespace

/// The always-on "sched.*" counters.
struct GuardScheduler::Metrics {
  explicit Metrics(obs::MetricsRegistry* registry)
      : sent_announcements(registry->counter("sched.msgs.announce")),
        sent_promises(registry->counter("sched.msgs.promise")),
        sent_promise_requests(registry->counter("sched.msgs.promise_request")),
        sent_triggers(registry->counter("sched.msgs.trigger")),
        attempts(registry->counter("sched.attempts")),
        occurrences(registry->counter("sched.occurrences")),
        violations(registry->counter("sched.violations")),
        accepted(registry->counter("sched.decisions.accepted")),
        rejected(registry->counter("sched.decisions.rejected")) {}

  obs::Counter* sent_announcements;
  obs::Counter* sent_promises;
  obs::Counter* sent_promise_requests;
  obs::Counter* sent_triggers;
  obs::Counter* attempts;
  obs::Counter* occurrences;
  obs::Counter* violations;
  obs::Counter* accepted;
  obs::Counter* rejected;
};

/// The per-attempt lifecycle metrics, created only when lifecycle
/// instrumentation is on.
struct GuardScheduler::LifecycleMetrics {
  explicit LifecycleMetrics(obs::MetricsRegistry* registry)
      : decision_latency(registry->histogram("sched.decision_latency_us")),
        reduction_steps(registry->histogram("sched.guard_reduction_steps")),
        parked_depth(registry->histogram("sched.parked_depth")),
        parks(registry->counter("sched.parks")) {}

  obs::Histogram* decision_latency;
  obs::Histogram* reduction_steps;
  obs::Histogram* parked_depth;
  obs::Counter* parks;
};

std::string DecisionToString(Decision d) {
  switch (d) {
    case Decision::kAccepted:
      return "accepted";
    case Decision::kRejected:
      return "rejected";
    case Decision::kParked:
      return "parked";
  }
  return "unknown";
}

GuardScheduler::GuardScheduler(WorkflowContext* ctx,
                               const ParsedWorkflow& workflow,
                               Network* network,
                               const GuardSchedulerOptions& options)
    : ctx_(ctx), network_(network),
      transport_(std::make_unique<ReliableTransport>(network)),
      options_(options) {
  Init(workflow, nullptr);
}

GuardScheduler::GuardScheduler(WorkflowContext* ctx,
                               CompiledWorkflowRef compiled,
                               const ParsedWorkflow& workflow,
                               Network* network,
                               const GuardSchedulerOptions& options)
    : ctx_(ctx), network_(network),
      transport_(std::make_unique<ReliableTransport>(network)),
      options_(options) {
  CDES_CHECK(compiled != nullptr);
  Init(workflow, std::move(compiled));
}

void GuardScheduler::Init(const ParsedWorkflow& workflow,
                          CompiledWorkflowRef compiled) {
  const GuardSchedulerOptions& options = options_;
  if (options.metrics != nullptr) {
    metrics_ = options.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = options.tracer;
  observe_lifecycle_ = options.lifecycle_instrumentation &&
                       (options.metrics != nullptr || tracer_ != nullptr);
  counters_ = &metrics_->handles<Metrics>();
  actor_obs_.tracer = tracer_;
  actor_obs_.alphabet = ctx_->alphabet();
  actor_obs_.sim = network_->sim();
  if (observe_lifecycle_) {
    const LifecycleMetrics& lifecycle = metrics_->handles<LifecycleMetrics>();
    decision_latency_ = lifecycle.decision_latency;
    actor_obs_.reduction_steps = lifecycle.reduction_steps;
    actor_obs_.parked_depth = lifecycle.parked_depth;
    actor_obs_.parks = lifecycle.parks;
  }
  if (options.metrics != nullptr) {
    // Cache effectiveness counters land next to the sched.* metrics. The
    // cache is per-context (per shard), so with many instance schedulers
    // sharing a context and registry this re-binds the same counters.
    ctx_->reduction_cache()->AttachMetrics(metrics_);
  }
  Status installed = compiled != nullptr
                         ? AddInstanceCompiled(std::move(compiled), workflow)
                         : AddInstance(workflow);
  CDES_CHECK(installed.ok()) << installed;
}

Status GuardScheduler::AddInstance(const ParsedWorkflow& workflow) {
  CompileOptions copts;
  copts.simplify = options_.simplify_guards;
  return Install(CompileWorkflowShared(ctx_, workflow.spec, copts), workflow);
}

Status GuardScheduler::AddInstanceCompiled(CompiledWorkflowRef compiled,
                                           const ParsedWorkflow& workflow) {
  return Install(std::move(compiled), workflow);
}

Status GuardScheduler::Install(CompiledWorkflowRef compiled,
                               const ParsedWorkflow& workflow) {
  const std::set<SymbolId>& symbols = compiled->symbols();
  for (SymbolId symbol : symbols) {
    if (FindSlot(symbol) != nullptr) {
      return Status::AlreadyExists(StrCat(
          "instance shares event symbol '", ctx_->alphabet()->Name(symbol),
          "' with an installed instance; instances must be symbol-disjoint"));
    }
  }
  impossible_ |= compiled->impossible();
  if (!symbols.empty() && actors_.size() <= *symbols.rbegin()) {
    actors_.resize(*symbols.rbegin() + 1);
  }
  for (SymbolId symbol : symbols) {
    int site = 0;
    EventAttributes attrs;
    const EventDecl* decl = workflow.FindEvent(symbol);
    if (decl != nullptr) {
      attrs = decl->attrs;
      const AgentDecl* agent = workflow.FindAgent(decl->agent);
      if (agent != nullptr) site = agent->site;
    }
    Slot& slot = actors_[symbol];
    slot.compiled = compiled->Find(symbol);
    // The complement literal is scheduler bookkeeping ("e will never
    // occur"): delayable and rejectable, never user-triggerable.
    EventAttributes negative;
    slot.actor = std::make_unique<EventActor>(
        this, ctx_, symbol, site, slot.compiled->positive,
        slot.compiled->negative, attrs, negative, &actor_obs_);
    if (options_.profiler != nullptr) {
      // Split the compiled conjunction back into its per-dependency
      // contributions, each registered (deduplicated profiler-wide) as a
      // (dependency, event) site carrying the dependency's spec location.
      GuardProfile& profile = profiles_[symbol];
      profile.profiler = options_.profiler;
      for (EventLiteral l :
           {EventLiteral::Positive(symbol), EventLiteral::Complement(symbol)}) {
        std::vector<GuardProfile::Contribution>& dst =
            l.complemented() ? profile.negative : profile.positive;
        for (const auto& [di, g] : compiled->ContributionsFor(l)) {
          const Dependency& dep = compiled->dependencies()[di];
          dst.push_back(GuardProfile::Contribution{
              options_.profiler->RegisterSite(
                  dep.name, ctx_->alphabet()->LiteralName(l), dep.loc),
              g});
        }
      }
      slot.actor->set_profile(&profile);
    }
    if (tracer_ != nullptr) {
      tracer_->NameProcess(site, StrCat("site ", site));
      tracer_->NameLane(site, symbol,
                        StrCat("actor ", ctx_->alphabet()->Name(symbol)));
    }
  }
  tables_.push_back(std::move(compiled));
  return Status::OK();
}

std::vector<SymbolId> GuardScheduler::symbols() const {
  std::vector<SymbolId> out;
  for (const Slot& slot : actors_) {
    if (slot.actor != nullptr) out.push_back(slot.actor->symbol());
  }
  return out;
}

const Guard* GuardScheduler::CompiledGuardOf(EventLiteral literal) const {
  const Slot* slot = FindSlot(literal.symbol());
  if (slot == nullptr) return ctx_->guards()->True();
  return literal.complemented() ? slot->compiled->negative
                                : slot->compiled->positive;
}

void GuardScheduler::RecordViolation(EventLiteral) {
  ++violations_;
  counters_->violations->Increment();
}

void GuardScheduler::Attempt(EventLiteral literal, AttemptCallback done) {
  counters_->attempts->Increment();
  if (impossible_) {
    // Some dependency is unsatisfiable: no event can ever be part of an
    // acceptable computation.
    counters_->rejected->Increment();
    if (done) done(Decision::kRejected);
    return;
  }
  EventActor* actor = FindActor(literal.symbol());
  if (actor == nullptr) {
    // An event no dependency mentions is not significant for coordination
    // (§2): it occurs immediately and is not recorded. (Recording it
    // would also break trace validity for looping tasks, whose repeated
    // internal events are exactly the insignificant ones — §5.2.)
    counters_->accepted->Increment();
    if (done) done(Decision::kAccepted);
    return;
  }
  if (observe_lifecycle_) {
    done = WrapAttempt(literal, actor->site(), std::move(done));
  }
  network_->sim()->Schedule(0, [actor, literal, done = std::move(done)] {
    actor->Attempt(literal, done);
  });
}

AttemptCallback GuardScheduler::WrapAttempt(EventLiteral literal, int site,
                                            AttemptCallback done) {
  uint64_t attempt_id = ++attempt_seq_;
  SimTime t0 = network_->sim()->now();
  uint64_t lane = literal.symbol();
  std::string name = ctx_->alphabet()->LiteralName(literal);
  if (tracer_ != nullptr) {
    tracer_->Instant(obs::SpanCategory::kLifecycle, StrCat("attempt ", name),
                     t0, site, lane);
  }
  return [this, t0, attempt_id, site, lane, name = std::move(name),
          done = std::move(done)](Decision decision) {
    SimTime now = network_->sim()->now();
    std::string park_key = StrCat("park:", attempt_id);
    if (decision == Decision::kParked) {
      if (tracer_ != nullptr) {
        tracer_->BeginAsync(obs::SpanCategory::kLifecycle,
                            StrCat("parked ", name), park_key, now, site,
                            lane);
      }
    } else {
      if (tracer_ != nullptr) {
        tracer_->EndAsync(park_key, now, site, lane,
                          {{"outcome", DecisionToString(decision)}});
        tracer_->Instant(obs::SpanCategory::kLifecycle,
                         StrCat(decision == Decision::kAccepted
                                    ? "enabled "
                                    : "rejected ",
                                name),
                         now, site, lane);
      }
      if (decision_latency_ != nullptr) decision_latency_->Observe(now - t0);
      (decision == Decision::kAccepted ? counters_->accepted
                                       : counters_->rejected)
          ->Increment();
    }
    if (done) done(decision);
  };
}

const Guard* GuardScheduler::CurrentGuardOf(EventLiteral literal) const {
  const EventActor* actor = FindActor(literal.symbol());
  if (actor == nullptr) return CompiledGuardOf(literal);
  return actor->CurrentGuard(literal);
}

EventActor* GuardScheduler::actor(SymbolId symbol) {
  return FindActor(symbol);
}

size_t GuardScheduler::parked_count() const {
  size_t n = 0;
  for (const Slot& slot : actors_) {
    if (slot.actor != nullptr) n += slot.actor->parked_count();
  }
  return n;
}

void GuardScheduler::Close() {
  for (SymbolId s : Undecided()) {
    Attempt(EventLiteral::Complement(s), AttemptCallback());
  }
}

std::vector<SymbolId> GuardScheduler::Undecided() const {
  std::vector<SymbolId> out;
  for (const Slot& slot : actors_) {
    if (slot.actor != nullptr && !slot.actor->decided()) {
      out.push_back(slot.actor->symbol());
    }
  }
  return out;
}

bool GuardScheduler::HistoryConsistent(bool require_satisfaction) const {
  for (const CompiledWorkflowRef& table : tables_) {
    for (const Dependency& dep : table->dependencies()) {
      const Expr* residual =
          ctx_->residuator()->ResiduateTrace(dep.expr, history_);
      if (require_satisfaction) {
        if (!residual->IsTop()) return false;
      } else if (residual->IsZero()) {
        return false;
      }
    }
  }
  return true;
}

namespace {

const char* MessageKindName(RuntimeMessageKind kind) {
  switch (kind) {
    case RuntimeMessageKind::kAnnounce:
      return "announce";
    case RuntimeMessageKind::kPromise:
      return "promise";
    case RuntimeMessageKind::kRequestPromise:
      return "promise_request";
    case RuntimeMessageKind::kTrigger:
      return "trigger";
  }
  return "unknown";
}

}  // namespace

void GuardScheduler::CountMessage(RuntimeMessageKind kind) {
  switch (kind) {
    case RuntimeMessageKind::kAnnounce:
      counters_->sent_announcements->Increment();
      break;
    case RuntimeMessageKind::kPromise:
      counters_->sent_promises->Increment();
      break;
    case RuntimeMessageKind::kRequestPromise:
      counters_->sent_promise_requests->Increment();
      break;
    case RuntimeMessageKind::kTrigger:
      counters_->sent_triggers->Increment();
      break;
  }
}

void GuardScheduler::TraceSend(SymbolId from, SymbolId target,
                               const RuntimeMessage& msg) {
  const Alphabet& alphabet = *ctx_->alphabet();
  int src_site = FindActor(from)->site();
  SimTime now = network_->sim()->now();
  if (msg.span_id != 0) {
    // Flow arrow origin; TraceDeliver emits the matching end at the
    // destination when the message finally lands.
    tracer_->FlowStart(obs::SpanCategory::kMessage, MessageKindName(msg.kind),
                       msg.span_id, now, src_site, from);
  }
  switch (msg.kind) {
    case RuntimeMessageKind::kAnnounce:
    case RuntimeMessageKind::kTrigger:
      tracer_->Instant(obs::SpanCategory::kMessage,
                       StrCat(MessageKindName(msg.kind), " ",
                              alphabet.LiteralName(msg.literal)),
                       now, src_site, from,
                       {{"to", alphabet.Name(target)}});
      return;
    case RuntimeMessageKind::kRequestPromise:
      // Request → grant window: opened here, closed when the owner of the
      // needed literal sends back the matching kPromise.
      tracer_->BeginAsync(
          obs::SpanCategory::kPromise,
          StrCat("promise_request ", alphabet.LiteralName(msg.literal),
                 " for ", alphabet.LiteralName(msg.requester)),
          StrCat("preq:", alphabet.LiteralName(msg.literal), ":", from), now,
          src_site, from, {{"to", alphabet.Name(target)}});
      return;
    case RuntimeMessageKind::kPromise:
      tracer_->EndAsync(
          StrCat("preq:", alphabet.LiteralName(msg.literal), ":", target),
          now, src_site, from);
      tracer_->Instant(obs::SpanCategory::kPromise,
                       StrCat("promise ", alphabet.LiteralName(msg.literal)),
                       now, src_site, from,
                       {{"to", alphabet.Name(target)}});
      return;
  }
}

void GuardScheduler::TraceDeliver(const RuntimeMessage& msg,
                                  const EventActor* to) {
  if (tracer_ == nullptr || msg.span_id == 0) return;
  SimTime now = network_->sim()->now();
  tracer_->Instant(obs::SpanCategory::kMessage,
                   StrCat("assimilate ",
                          ctx_->alphabet()->LiteralName(msg.literal)),
                   now, to->site(), to->symbol(),
                   {{"kind", MessageKindName(msg.kind)},
                    {"trace", StrCat(msg.trace_id)}});
  tracer_->FlowEnd(obs::SpanCategory::kMessage, MessageKindName(msg.kind),
                   msg.span_id, now, to->site(), to->symbol());
}

void GuardScheduler::Broadcast(SymbolId from, const RuntimeMessage& msg) {
  const Slot* slot = FindSlot(from);
  if (slot == nullptr) return;
  int src_site = slot->actor->site();
  for (SymbolId target : slot->compiled->subscribers) {
    EventActor* actor = actors_[target].actor.get();
    CountMessage(msg.kind);
    if (tracer_ != nullptr) {
      // Stamp causal context per target: each copy of the broadcast gets
      // its own span id, so every delivery draws its own flow arrow.
      RuntimeMessage traced = msg;
      traced.trace_id = options_.trace_id;
      traced.span_id = ++next_span_id_;
      TraceSend(from, target, traced);
      transport_->Send(src_site, actor->site(), kMessageBytes,
                       [this, actor, traced] {
                         TraceDeliver(traced, actor);
                         actor->Receive(traced);
                       });
      continue;
    }
    transport_->Send(src_site, actor->site(), kMessageBytes,
                     [actor, msg] { actor->Receive(msg); });
  }
}

void GuardScheduler::SendTo(SymbolId from, SymbolId target,
                            const RuntimeMessage& msg) {
  EventActor* actor = FindActor(target);
  if (actor == nullptr) return;
  int src_site = FindActor(from)->site();
  CountMessage(msg.kind);
  if (tracer_ != nullptr) {
    RuntimeMessage traced = msg;
    traced.trace_id = options_.trace_id;
    traced.span_id = ++next_span_id_;
    TraceSend(from, target, traced);
    transport_->Send(src_site, actor->site(), kMessageBytes,
                     [this, actor, traced] {
                       TraceDeliver(traced, actor);
                       actor->Receive(traced);
                     });
    return;
  }
  transport_->Send(src_site, actor->site(), kMessageBytes,
                   [actor, msg] { actor->Receive(msg); });
}

OccurrenceStamp GuardScheduler::NextStamp() {
  return OccurrenceStamp{network_->sim()->now(), next_seq_++};
}

void GuardScheduler::RecordOccurrence(EventLiteral literal,
                                      OccurrenceStamp stamp) {
  // Write-ahead: the log entry lands before any announcement is sent, so a
  // crash never loses an occurrence other actors may have observed.
  if (options_.durable_log != nullptr) {
    options_.durable_log->Append(EventLog::Record{stamp, literal});
  }
  counters_->occurrences->Increment();
  if (tracer_ != nullptr) {
    const EventActor* actor = FindActor(literal.symbol());
    tracer_->Instant(obs::SpanCategory::kLifecycle,
                     StrCat("occur ", ctx_->alphabet()->LiteralName(literal)),
                     stamp.time, actor->site(), literal.symbol(),
                     {{"seq", StrCat(stamp.seq)}});
  }
  history_.push_back(literal);
  for (const auto& listener : listeners_) listener(literal);
}

Status GuardScheduler::Recover(const EventLog& log) {
  if (!history_.empty()) {
    return Status::FailedPrecondition(
        "Recover must run on a fresh scheduler");
  }
  metrics_->counter("sched.recovered_records")
      ->Increment(log.records().size());
  if (tracer_ != nullptr) {
    tracer_->Complete(obs::SpanCategory::kRecovery, "recovery replay",
                      network_->sim()->now(), 0, 0, 0,
                      {{"records", StrCat(log.records().size())},
                       {"checkpointed",
                        log.checkpoint() != nullptr ? "1" : "0"}});
  }
  // Pass 0: when the log is compacted behind a checkpoint, its payload
  // stands in for replaying the covered prefix — restore the decided
  // history, the per-actor heard-residual baselines, the stamp sequence,
  // and the transport watermarks directly.
  if (log.checkpoint() != nullptr) {
    auto parsed = ParseCheckpoint(ctx_->guards(), *ctx_->alphabet(),
                                  log.checkpoint()->payload);
    if (!parsed.ok()) return parsed.status();
    const CheckpointState& state = parsed.value();
    metrics_->counter("sched.recovered_from_checkpoint")->Increment();
    for (EventLiteral literal : state.history) {
      EventActor* actor = FindActor(literal.symbol());
      if (actor == nullptr) {
        return Status::InvalidArgument(
            "checkpoint mentions an event outside this workflow");
      }
      if (actor->decided()) {
        return Status::InvalidArgument(
            StrCat("checkpoint decides symbol '",
                   ctx_->alphabet()->Name(literal.symbol()), "' twice"));
      }
      actor->RestoreOccurrence(literal);
      history_.push_back(literal);
    }
    for (const ActorCheckpoint& baseline : state.actors) {
      EventActor* actor = FindActor(baseline.symbol);
      if (actor == nullptr) {
        return Status::InvalidArgument(
            "checkpoint names an actor outside this workflow");
      }
      if (actor->decided()) {
        return Status::InvalidArgument(
            StrCat("checkpoint carries a baseline for decided symbol '",
                   ctx_->alphabet()->Name(baseline.symbol), "'"));
      }
      actor->RestoreBaseline(baseline.positive, baseline.negative);
    }
    if (state.next_seq > next_seq_) next_seq_ = state.next_seq;
    transport_->RestoreChannels(state.channels);
  }
  // Pass 1: restore decisions and the history, and advance the stamp
  // sequence past everything logged.
  for (const EventLog::Record& record : log.records()) {
    EventActor* actor = FindActor(record.literal.symbol());
    if (actor == nullptr) {
      return Status::InvalidArgument(
          "log mentions an event outside this workflow");
    }
    if (actor->decided()) {
      // Corrupt or foreign input: a symbol decides at most once, so a
      // well-formed log (or checkpoint + suffix) never repeats one. A
      // Status, not a CHECK — log bytes are untrusted.
      return Status::InvalidArgument(
          StrCat("log decides symbol '",
                 ctx_->alphabet()->Name(record.literal.symbol()),
                 "' twice"));
    }
    actor->RestoreOccurrence(record.literal);
    history_.push_back(record.literal);
    if (record.stamp.seq >= next_seq_) next_seq_ = record.stamp.seq + 1;
  }
  // Pass 2: replay suffix announcements synchronously, in stamp order, so
  // every actor's knowledge (and hence reduced guards) matches the
  // pre-crash state. Actors restored from checkpoint baselines fold the
  // suffix on top of them — residuation is a left fold, so baseline +
  // suffix equals folding the full history. No parked attempts exist yet,
  // so nothing can fire.
  for (const EventLog::Record& record : log.records()) {
    const Slot* slot = FindSlot(record.literal.symbol());
    RuntimeMessage announce{RuntimeMessageKind::kAnnounce, record.literal,
                            record.stamp, EventLiteral(), {}, nullptr, {}};
    for (SymbolId target : slot->compiled->subscribers) {
      actors_[target].actor->Receive(announce);
    }
  }
  return Status::OK();
}

CheckpointState GuardScheduler::Snapshot() const {
  // Quiescence is the correctness boundary, not a convenience: an
  // announcement still in flight would be inside neither the snapshot's
  // baselines nor the post-checkpoint log suffix, and nobody re-announces
  // covered occurrences after recovery.
  CDES_CHECK(network_->sim()->pending() == 0)
      << "checkpoints require a quiescent instance";
  CheckpointState state;
  state.next_seq = next_seq_;
  state.clock = network_->sim()->now();
  state.history = history_;
  for (const Slot& slot : actors_) {
    if (slot.actor == nullptr || slot.actor->decided()) continue;
    SymbolId symbol = slot.actor->symbol();
    const Guard* heard_positive =
        slot.actor->HeardResidual(EventLiteral::Positive(symbol));
    const Guard* heard_negative =
        slot.actor->HeardResidual(EventLiteral::Complement(symbol));
    // Hash-consing makes "has this actor's knowledge moved its guards?" a
    // pointer comparison; untouched actors are omitted and recovery leaves
    // them on the compiled table.
    if (slot.compiled->positive == heard_positive &&
        slot.compiled->negative == heard_negative) {
      continue;
    }
    state.actors.push_back({symbol, heard_positive, heard_negative});
  }
  state.channels = transport_->SnapshotChannels();
  return state;
}

bool GuardScheduler::MayTrigger(EventLiteral literal) const {
  if (literal.complemented()) return false;
  const EventActor* actor = FindActor(literal.symbol());
  return actor != nullptr && actor->attributes().triggerable &&
         !actor->decided();
}

}  // namespace cdes
