#include <gtest/gtest.h>

#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"

namespace cdes {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(SimulatorTest, TieBreaksByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(7, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, CallbacksCanScheduleMore) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) sim.Schedule(5, chain);
  };
  sim.Schedule(0, chain);
  sim.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.now(), 45u);
}

TEST(SimulatorTest, RunRespectsMaxSteps) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.Schedule(i, [&] { ++fired; });
  EXPECT_EQ(sim.Run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pending(), 6u);
}

TEST(SimulatorTest, RunUntilStopsAtTime) {
  Simulator sim;
  int fired = 0;
  for (SimTime t : {5u, 10u, 15u, 20u}) sim.ScheduleAt(t, [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(12), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 12u);
  sim.Run();
  EXPECT_EQ(fired, 4);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  EXPECT_EQ(sim.RunUntil(100), 0u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, StepOnEmptyReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
}

TEST(NetworkTest, DeliversAfterBaseLatency) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 500;
  Network net(&sim, 2, options);
  SimTime delivered_at = 0;
  net.Send(0, 1, 64, [&] { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, 500u);
  EXPECT_EQ(net.metrics()->counter("net.messages")->value(), 1u);
  EXPECT_EQ(net.metrics()->counter("net.bytes")->value(), 64u);
  EXPECT_EQ(net.metrics()->counter("net.remote_messages")->value(), 1u);
}

TEST(NetworkTest, LocalDeliveryUsesLocalLatency) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 500;
  options.local_latency = 2;
  Network net(&sim, 2, options);
  SimTime delivered_at = 0;
  net.Send(1, 1, 16, [&] { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, 2u);
  EXPECT_EQ(net.metrics()->counter("net.remote_messages")->value(), 0u);
}

TEST(NetworkTest, PerLinkOverride) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  Network net(&sim, 3, options);
  net.SetLinkLatency(0, 2, 1000);
  SimTime t01 = 0, t02 = 0;
  net.Send(0, 1, 8, [&] { t01 = sim.now(); });
  net.Send(0, 2, 8, [&] { t02 = sim.now(); });
  sim.Run();
  EXPECT_EQ(t01, 100u);
  EXPECT_EQ(t02, 1000u);
}

TEST(NetworkTest, FifoLinksNeverReorder) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  options.jitter = 500;
  options.fifo_links = true;
  options.seed = 99;
  Network net(&sim, 2, options);
  std::vector<int> received;
  for (int i = 0; i < 50; ++i) {
    sim.Schedule(i, [&net, &received, i, &sim] {
      (void)sim;
      net.Send(0, 1, 8, [&received, i] { received.push_back(i); });
    });
  }
  sim.Run();
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(received[i], i);
}

TEST(NetworkTest, NonFifoCanReorder) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  options.jitter = 500;
  options.fifo_links = false;
  options.seed = 7;
  Network net(&sim, 2, options);
  std::vector<int> received;
  for (int i = 0; i < 50; ++i) {
    sim.Schedule(i, [&net, &received, i] {
      net.Send(0, 1, 8, [&received, i] { received.push_back(i); });
    });
  }
  sim.Run();
  ASSERT_EQ(received.size(), 50u);
  bool reordered = false;
  for (int i = 1; i < 50; ++i) reordered |= (received[i] < received[i - 1]);
  EXPECT_TRUE(reordered);
}

TEST(NetworkTest, JitterIsDeterministicUnderSeed) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    NetworkOptions options;
    options.base_latency = 100;
    options.jitter = 300;
    options.seed = seed;
    Network net(&sim, 2, options);
    std::vector<SimTime> arrivals;
    for (int i = 0; i < 20; ++i) {
      net.Send(0, 1, 8, [&arrivals, &sim] { arrivals.push_back(sim.now()); });
    }
    sim.Run();
    return arrivals;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(NetworkTest, MeanLatencyAccounting) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 200;
  Network net(&sim, 2, options);
  for (int i = 0; i < 10; ++i) net.Send(0, 1, 8, [] {});
  sim.Run();
  EXPECT_DOUBLE_EQ(net.metrics()->histogram("net.latency_us")->Mean(), 200.0);
}

// ---- Fault injection ----

TEST(NetworkFaultTest, DropProbabilityOneLosesEverythingRemote) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  options.drop_probability = 1.0;
  Network net(&sim, 2, options);
  int remote = 0, local = 0;
  for (int i = 0; i < 20; ++i) net.Send(0, 1, 8, [&] { ++remote; });
  // Local messages never cross a link and are immune to loss.
  for (int i = 0; i < 5; ++i) net.Send(1, 1, 8, [&] { ++local; });
  sim.Run();
  EXPECT_EQ(remote, 0);
  EXPECT_EQ(local, 5);
  EXPECT_EQ(net.metrics()->counter("net.dropped")->value(), 20u);
  EXPECT_EQ(net.metrics()->histogram("net.latency_us")->count(), 5u);
  // Sends are counted, not arrivals.
  EXPECT_EQ(net.metrics()->counter("net.messages")->value(), 25u);
}

TEST(NetworkFaultTest, DuplicationDeliversExtraCopies) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  options.duplicate_probability = 1.0;
  options.seed = 3;
  Network net(&sim, 2, options);
  int arrivals = 0;
  for (int i = 0; i < 10; ++i) net.Send(0, 1, 8, [&] { ++arrivals; });
  sim.Run();
  EXPECT_EQ(arrivals, 20);
  EXPECT_EQ(net.metrics()->counter("net.duplicated")->value(), 10u);
  EXPECT_EQ(net.metrics()->histogram("net.latency_us")->count(), 20u);
  EXPECT_EQ(net.metrics()->counter("net.messages")->value(), 10u);
}

TEST(NetworkFaultTest, PartitionWindowBlocksThenHeals) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  Network net(&sim, 2, options);
  // Site 0 is cut off from the rest of the world for t ∈ [0, 1000).
  net.SchedulePartition({0}, 0, 1000);
  int before = 0, inside = 0, after = 0;
  net.Send(0, 1, 8, [&] { ++before; });
  sim.ScheduleAt(500, [&] { net.Send(1, 0, 8, [&] { ++inside; }); });
  sim.ScheduleAt(1000, [&] { net.Send(0, 1, 8, [&] { ++after; }); });
  // Both sites inside the same group keep talking (site 1 ↔ site 1 local).
  int local = 0;
  sim.ScheduleAt(500, [&] { net.Send(1, 1, 8, [&] { ++local; }); });
  sim.Run();
  EXPECT_EQ(before, 0);  // send at t=0 falls inside the window
  EXPECT_EQ(inside, 0);  // partitions cut both directions
  EXPECT_EQ(after, 1);   // healed at t=1000 (window is half-open)
  EXPECT_EQ(local, 1);
  EXPECT_EQ(net.metrics()->counter("net.partitioned")->value(), 2u);
}

TEST(NetworkFaultTest, FaultInjectionActiveReflectsKnobs) {
  Simulator sim;
  Network plain(&sim, 2, {});
  EXPECT_FALSE(plain.FaultInjectionActive());

  NetworkOptions lossy;
  lossy.drop_probability = 0.1;
  Network with_loss(&sim, 2, lossy);
  EXPECT_TRUE(with_loss.FaultInjectionActive());

  Network partitioned(&sim, 2, {});
  partitioned.SchedulePartition({0}, 100, 200);
  EXPECT_TRUE(partitioned.FaultInjectionActive());
}

TEST(NetworkFaultTest, ZeroKnobsLeaveLatencyStreamUntouched) {
  // Pay-for-what-you-use: configuring the fault fields at 0.0 must not
  // consume RNG draws, so arrival times are identical to a build that
  // never heard of fault injection.
  auto run = [](bool mention_faults) {
    Simulator sim;
    NetworkOptions options;
    options.base_latency = 100;
    options.jitter = 400;
    options.seed = 17;
    if (mention_faults) {
      options.drop_probability = 0.0;
      options.duplicate_probability = 0.0;
    }
    Network net(&sim, 2, options);
    std::vector<SimTime> arrivals;
    for (int i = 0; i < 30; ++i) {
      net.Send(0, 1, 8, [&] { arrivals.push_back(sim.now()); });
    }
    sim.Run();
    return arrivals;
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- FIFO enforcement audit (regression) ----

TEST(NetworkFifoTest, FifoHoldsWhenJitterDwarfsBaseLatency) {
  // Worst case for the clamp: jitter 50x the base latency, so nearly every
  // raw draw would overtake the previous message without it. Also engage
  // site_processing so the clamp has to respect the post-processing
  // delivery time, not just the wire arrival.
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  options.jitter = 5000;
  options.fifo_links = true;
  options.site_processing = 70;
  options.seed = 41;
  Network net(&sim, 2, options);
  std::vector<int> received;
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(i, [&net, &received, i] {
      net.Send(0, 1, 8, [&received, i] { received.push_back(i); });
    });
  }
  sim.Run();
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(received[i], i);
}

TEST(NetworkFifoTest, DuplicatesCannotOvertakeOnFifoLinks) {
  // A duplicated copy goes through the same FIFO clamp as everything else,
  // so on a FIFO link the payload sequence stays non-decreasing: later
  // messages (or copies) never land before earlier ones.
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  options.jitter = 3000;
  options.fifo_links = true;
  options.duplicate_probability = 1.0;
  options.seed = 23;
  Network net(&sim, 2, options);
  std::vector<int> received;
  for (int i = 0; i < 40; ++i) {
    sim.Schedule(i, [&net, &received, i] {
      net.Send(0, 1, 8, [&received, i] { received.push_back(i); });
    });
  }
  sim.Run();
  ASSERT_EQ(received.size(), 80u);  // every message twice
  for (size_t i = 1; i < received.size(); ++i) {
    EXPECT_LE(received[i - 1], received[i]) << "at index " << i;
  }
}

}  // namespace
}  // namespace cdes
