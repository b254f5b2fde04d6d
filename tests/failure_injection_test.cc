// Failure injection: the distributed scheduler under adversarial message
// timing (non-FIFO links, heavy jitter, extreme latency asymmetry),
// message loss / duplication / partitions, concurrent conflicting
// attempts, and mid-workflow aborts. Every run must realize a history
// satisfying all dependencies; fixed seeds must reproduce identical
// histories and identical fault/recovery metrics.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "sched/guard_scheduler.h"
#include "spec/parser.h"
#include "temporal/guard.h"
#include "temporal/reduction.h"

namespace cdes {
namespace {

constexpr char kTravelSpec[] = R"(
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

struct ChaosWorld {
  ChaosWorld(const char* spec, const NetworkOptions& nopts) {
    auto parsed = ParseWorkflow(&ctx, spec);
    CDES_CHECK(parsed.ok()) << parsed.status();
    workflow = std::move(parsed).value();
    network = std::make_unique<Network>(&sim, 4, nopts);
    sched = std::make_unique<GuardScheduler>(&ctx, workflow, network.get());
  }

  void AttemptAt(SimTime when, const std::string& name) {
    auto lit = ctx.alphabet()->ParseLiteral(name);
    CDES_CHECK(lit.ok());
    sim.ScheduleAt(when, [this, lit] {
      sched->Attempt(lit.value(), AttemptCallback());
    });
  }

  std::string RunAndHistory() {
    sim.Run();
    return TraceToString(sched->history(), *ctx.alphabet());
  }

  WorkflowContext ctx;
  Simulator sim;
  std::unique_ptr<Network> network;
  ParsedWorkflow workflow;
  std::unique_ptr<GuardScheduler> sched;
};

TEST(FailureInjectionTest, NonFifoHeavyJitterStaysConsistent) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    NetworkOptions nopts;
    nopts.base_latency = 100;
    nopts.jitter = 5000;  // 50x the base latency
    nopts.fifo_links = false;
    nopts.seed = seed;
    ChaosWorld w(kTravelSpec, nopts);
    // All attempts land nearly simultaneously.
    w.AttemptAt(0, "s_buy");
    w.AttemptAt(1, "c_book");
    w.AttemptAt(2, "c_buy");
    w.RunAndHistory();
    EXPECT_TRUE(w.sched->HistoryConsistent()) << "seed " << seed;
    EXPECT_EQ(w.sched->violations(), 0u) << "seed " << seed;
  }
}

TEST(FailureInjectionTest, DeterministicUnderFixedSeed) {
  auto run = [](uint64_t seed) {
    NetworkOptions nopts;
    nopts.base_latency = 100;
    nopts.jitter = 2000;
    nopts.fifo_links = false;
    nopts.seed = seed;
    ChaosWorld w(kTravelSpec, nopts);
    w.AttemptAt(0, "s_buy");
    w.AttemptAt(1, "c_book");
    w.AttemptAt(2, "~c_buy");
    return w.RunAndHistory();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_EQ(run(8), run(8));
}

TEST(FailureInjectionTest, ExtremeLatencyAsymmetry) {
  NetworkOptions nopts;
  nopts.base_latency = 100;
  ChaosWorld w(kTravelSpec, nopts);
  // One direction of the inter-enterprise link is 1000x slower.
  w.network->SetLinkLatency(0, 1, 100000);
  w.AttemptAt(0, "s_buy");
  w.AttemptAt(10, "c_book");
  w.AttemptAt(20, "c_buy");
  w.RunAndHistory();
  EXPECT_TRUE(w.sched->HistoryConsistent());
  // Everything still completes: 3 requested + triggered booking.
  EXPECT_GE(w.sched->history().size(), 4u);
}

TEST(FailureInjectionTest, ConflictingConcurrentAttempts) {
  // e and f attempted at the same instant under e < f from different
  // sites: whatever the interleaving, the history must satisfy the order.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    NetworkOptions nopts;
    nopts.base_latency = 500;
    nopts.jitter = 1500;
    nopts.fifo_links = false;
    nopts.seed = seed;
    ChaosWorld w(R"(
workflow prec {
  agent a @ site(0);
  agent b @ site(1);
  event e agent(a);
  event f agent(b);
  dep d: e < f;
}
)",
                 nopts);
    w.AttemptAt(0, "f");
    w.AttemptAt(0, "e");
    std::string history = w.RunAndHistory();
    EXPECT_TRUE(w.sched->HistoryConsistent(true)) << history;
    EXPECT_EQ(history, "<e f>");  // f must wait for e's announcement
  }
}

TEST(FailureInjectionTest, OpposingLiteralsRaceOneWins) {
  // The task attempts commit while (from another site's perspective) the
  // workflow is being closed with the complement: exactly one polarity
  // must win and the loser must be rejected.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    NetworkOptions nopts;
    nopts.base_latency = 300;
    nopts.jitter = 900;
    nopts.fifo_links = false;
    nopts.seed = seed;
    ChaosWorld w(kTravelSpec, nopts);
    w.AttemptAt(0, "s_buy");
    w.AttemptAt(500, "c_book");
    w.AttemptAt(1000, "c_buy");
    w.AttemptAt(1000, "~c_buy");
    w.RunAndHistory();
    int buy_decisions = 0;
    for (EventLiteral l : w.sched->history()) {
      buy_decisions += (w.ctx.alphabet()->Name(l.symbol()) == "c_buy");
    }
    EXPECT_EQ(buy_decisions, 1) << "seed " << seed;
    EXPECT_TRUE(w.sched->HistoryConsistent()) << "seed " << seed;
  }
}

TEST(FailureInjectionTest, AbortMidWorkflowForcesThrough) {
  // An abort (nonrejectable, nondelayable) lands mid-workflow; the
  // dependency "abort precludes commit" then rejects the commit, and the
  // closed workflow is consistent.
  constexpr char kAbortSpec[] = R"(
workflow ab {
  agent air @ site(0);
  event s_buy agent(air);
  event c_buy agent(air);
  event a_buy agent(air) attrs(nonrejectable, nondelayable);
  dep d1: s_buy -> c_buy;
  dep d2: ~a_buy + ~c_buy;   # abort and commit cannot both happen
}
)";
  NetworkOptions nopts;
  nopts.base_latency = 100;
  ChaosWorld w(kAbortSpec, nopts);

  std::vector<std::pair<std::string, Decision>> decisions;
  auto attempt = [&](SimTime when, const std::string& name) {
    auto lit = w.ctx.alphabet()->ParseLiteral(name);
    CDES_CHECK(lit.ok());
    w.sim.ScheduleAt(when, [&w, lit, name, &decisions] {
      w.sched->Attempt(lit.value(), [name, &decisions](Decision d) {
        decisions.emplace_back(name, d);
      });
    });
  };
  attempt(0, "s_buy");
  attempt(100, "a_buy");   // abort arrives before the commit attempt
  attempt(200, "c_buy");
  w.sim.Run();

  bool abort_accepted = false, commit_rejected = false;
  for (const auto& [name, d] : decisions) {
    if (name == "a_buy") abort_accepted |= (d == Decision::kAccepted);
    if (name == "c_buy") commit_rejected |= (d == Decision::kRejected);
  }
  EXPECT_TRUE(abort_accepted);
  EXPECT_TRUE(commit_rejected);
  // d1 (s_buy -> c_buy) is now violated — the history records the abort's
  // consequence faithfully rather than hiding it.
  // d2 holds: commit never occurred.
  const Expr* d2 = w.workflow.spec.dependencies()[1].expr;
  EXPECT_FALSE(w.ctx.residuator()
                   ->ResiduateTrace(d2, w.sched->history())
                   ->IsZero());
}

TEST(FailureInjectionTest, SiteProcessingBottleneckPreservesCorrectness) {
  NetworkOptions nopts;
  nopts.base_latency = 100;
  nopts.site_processing = 250;
  ChaosWorld w(kTravelSpec, nopts);
  w.AttemptAt(0, "s_buy");
  w.AttemptAt(0, "c_book");
  w.AttemptAt(0, "c_buy");
  w.RunAndHistory();
  EXPECT_TRUE(w.sched->HistoryConsistent());
}

// ---- Loss / duplication / partitions over the reliable-delivery layer ----

TEST(FailureInjectionTest, ChaosSweepTerminatesConsistently) {
  // 50 seeds; loss rate ramps to 0.3, frames duplicate, and the car
  // enterprise falls off the network once mid-run. Every run must still
  // realize a full consistent history — the reliable-delivery layer turns
  // the lossy transport back into the exactly-once channel the guard
  // protocol assumes.
  uint64_t total_retransmits = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    NetworkOptions nopts;
    nopts.base_latency = 100;
    nopts.jitter = 500;
    nopts.fifo_links = false;
    nopts.drop_probability = 0.006 * static_cast<double>(seed);  // ≤ 0.3
    nopts.duplicate_probability = 0.1;
    nopts.seed = seed;
    ChaosWorld w(kTravelSpec, nopts);
    w.network->SchedulePartition({1}, 1000, 15000);  // one cut + heal
    w.AttemptAt(0, "s_buy");
    w.AttemptAt(1, "c_book");
    w.AttemptAt(2, "c_buy");
    w.RunAndHistory();
    EXPECT_TRUE(w.sched->HistoryConsistent()) << "seed " << seed;
    EXPECT_EQ(w.sched->violations(), 0u) << "seed " << seed;
    // 3 requested events + the triggered s_book all decided.
    EXPECT_GE(w.sched->history().size(), 4u) << "seed " << seed;
    total_retransmits += w.sched->transport()->retransmits();
  }
  EXPECT_GT(total_retransmits, 0u);
}

TEST(FailureInjectionTest, ChaosReplayIsDeterministic) {
  // Same seed + same fault knobs + same partition schedule ⇒ the same
  // history and the same value for every net.* metric, including the
  // loss/duplication/retransmission counters.
  auto run = [](uint64_t seed) {
    NetworkOptions nopts;
    nopts.base_latency = 100;
    nopts.jitter = 800;
    nopts.fifo_links = false;
    nopts.drop_probability = 0.25;
    nopts.duplicate_probability = 0.15;
    nopts.seed = seed;
    ChaosWorld w(kTravelSpec, nopts);
    w.network->SchedulePartition({0}, 2000, 9000);
    w.AttemptAt(0, "s_buy");
    w.AttemptAt(1, "c_book");
    w.AttemptAt(2, "c_buy");
    std::string history = w.RunAndHistory();
    return history + "|" + w.network->metrics()->ToJson();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_EQ(run(12), run(12));
  EXPECT_NE(run(5), run(12));
}

TEST(FailureInjectionTest, FaultFreeRunsPayNothingForTheTransport) {
  // With every fault knob at zero the reliable layer is passthrough: the
  // raw message count and the history are identical to the seed behavior —
  // no acks, no retransmissions, no id bookkeeping.
  NetworkOptions nopts;
  nopts.base_latency = 100;
  nopts.jitter = 300;
  nopts.seed = 4;
  ChaosWorld w(kTravelSpec, nopts);
  w.AttemptAt(0, "s_buy");
  w.AttemptAt(1, "c_book");
  w.AttemptAt(2, "c_buy");
  w.RunAndHistory();
  EXPECT_TRUE(w.sched->HistoryConsistent());
  EXPECT_EQ(w.sched->transport()->acks(), 0u);
  EXPECT_EQ(w.sched->transport()->retransmits(), 0u);
  EXPECT_EQ(w.network->stats().dropped, 0u);
  EXPECT_EQ(w.network->stats().duplicated, 0u);
}

// ---- Announcement ordering at the actors (the hold-back queue) ----

RuntimeMessage Announce(EventLiteral literal, SimTime when, uint64_t seq) {
  RuntimeMessage m;
  m.kind = RuntimeMessageKind::kAnnounce;
  m.literal = literal;
  m.stamp = OccurrenceStamp{when, seq};
  return m;
}

constexpr char kSeqSpec[] = R"(
workflow seq {
  agent left @ site(0);
  agent right @ site(1);
  event a agent(left);
  event b agent(left);
  event f agent(right);
  dep d: ~f + a . b . f;
}
)";

TEST(AnnouncementOrderingTest, HoldBackQueueAssimilatesInStampOrder) {
  // □ announcements delivered out of occurrence order — and duplicated —
  // must reduce an actor's guard exactly as in-order single delivery does:
  // the hold-back queue replays occurrences in stamp order, and a repeated
  // announcement of the same literal is dropped at assimilation. The
  // actor's heard residual must also equal the plain in-order ReduceGuard
  // fold of the compiled guard — the §4.3 reduction, with no memo.
  auto reduced_guard = [](const std::vector<std::pair<const char*, int>>&
                              deliveries) {
    NetworkOptions nopts;
    nopts.base_latency = 100;
    ChaosWorld w(kSeqSpec, nopts);
    auto f = w.ctx.alphabet()->ParseLiteral("f");
    CDES_CHECK(f.ok());
    EventActor* actor = w.sched->actor(f.value().symbol());
    std::map<int, EventLiteral> in_stamp_order;
    for (const auto& [name, seq] : deliveries) {
      auto lit = w.ctx.alphabet()->ParseLiteral(name);
      CDES_CHECK(lit.ok());
      actor->Receive(
          Announce(lit.value(), static_cast<SimTime>(100 * seq), seq));
      w.sim.Run();
      // Checked after every delivery, so the actor's memoized prefix fold
      // is extended before a late (earlier-stamped) arrival must truncate
      // it.
      in_stamp_order.emplace(seq, lit.value());
      const Guard* expected = w.sched->CompiledGuardOf(f.value());
      for (const auto& [stamp_seq, heard] : in_stamp_order) {
        expected = ReduceGuard(w.ctx.guards(), w.ctx.residuator(), expected,
                               {AnnouncementKind::kOccurred, heard});
      }
      EXPECT_EQ(actor->HeardResidual(f.value()), expected)
          << GuardToString(actor->HeardResidual(f.value()),
                           *w.ctx.alphabet())
          << " vs " << GuardToString(expected, *w.ctx.alphabet());
    }
    return GuardToString(actor->CurrentGuard(f.value()), *w.ctx.alphabet());
  };
  std::string in_order = reduced_guard({{"a", 1}, {"b", 2}});
  // Reordered: b's announcement overtakes a's.
  EXPECT_EQ(reduced_guard({{"b", 2}, {"a", 1}}), in_order);
  // Duplicated and reordered: every announcement delivered twice.
  EXPECT_EQ(reduced_guard({{"b", 2}, {"a", 1}, {"b", 2}, {"a", 1}}),
            in_order);
  // The reduction really happened (the guard is not still the compiled
  // form waiting on a and b).
  EXPECT_NE(reduced_guard({}), in_order);
}

constexpr char kLazySpec[] = R"(
workflow lazy {
  agent w1 @ site(0);
  agent w2 @ site(1);
  agent trig @ site(2);
  agent cons @ site(3);
  event x agent(w1);
  event y agent(w2);
  event z agent(w1);
  event t agent(trig) attrs(triggerable);
  event req agent(cons);
  dep d1: ~req + x . y + t + z;
}
)";

TEST(AnnouncementOrderingTest, LateAnnouncementDoesNotCorruptObligation) {
  // Regression: deferred trigger obligations must fold the occurrence log
  // from scratch in stamp order on every review. Storing a partially
  // residuated obligation and folding arrivals into it incrementally
  // corrupts it on an unordered network: here y's announcement (stamp
  // 2000) arrives before x's (stamp 1000), and an arrival-order fold kills
  // the x·y alternative via (x·y)/y = 0 — permanently. When ~z then rules
  // out z, the corrupted residual says "only t is left" and t fires even
  // though x·y long since satisfied the requester.
  NetworkOptions nopts;
  nopts.base_latency = 100;
  ChaosWorld w(kLazySpec, nopts);
  // req parks on ◇(x·y + t + z); triggerable t answers with a
  // trigger-backed promise and adopts the residual as an obligation.
  w.AttemptAt(0, "req");
  w.sim.Run();
  auto lit = [&w](const char* name) {
    auto parsed = w.ctx.alphabet()->ParseLiteral(name);
    CDES_CHECK(parsed.ok());
    return parsed.value();
  };
  EventActor* t_actor = w.sched->actor(lit("t").symbol());
  // Announcements reach t's site out of occurrence order: y first, then
  // the earlier-stamped x, then ~z.
  t_actor->Receive(Announce(lit("y"), 2000, 2));
  w.sim.Run();
  t_actor->Receive(Announce(lit("x"), 1000, 1));
  w.sim.Run();
  t_actor->Receive(Announce(lit("~z"), 3000, 3));
  w.sim.Run();
  // x·y materialized, so triggering t is unnecessary; a corrupted
  // obligation would have fired it at the ~z review.
  for (EventLiteral l : w.sched->history()) {
    EXPECT_NE(w.ctx.alphabet()->Name(l.symbol()), "t")
        << "spurious trigger of t: "
        << TraceToString(w.sched->history(), *w.ctx.alphabet());
  }
  EXPECT_TRUE(w.sched->HistoryConsistent());
}

}  // namespace
}  // namespace cdes
