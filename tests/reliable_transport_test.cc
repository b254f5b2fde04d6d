// The reliable-delivery layer: exactly-once payload delivery over the
// simulated network's at-most-once transport, under loss, duplication,
// and partitions — plus the pay-for-what-you-use passthrough contract.

#include <gtest/gtest.h>

#include <vector>

#include "runtime/reliable_transport.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace cdes {
namespace {

TEST(ReliableTransportTest, PassthroughWhenNetworkIsReliable) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  Network net(&sim, 2, options);
  ReliableTransport transport(&net);
  int delivered = 0;
  for (int i = 0; i < 10; ++i) transport.Send(0, 1, 48, [&] { ++delivered; });
  sim.Run();
  EXPECT_EQ(delivered, 10);
  // No protocol overhead on a fault-free network: the raw message count
  // equals the payload count — no acks, no retransmissions, no timers.
  EXPECT_EQ(net.metrics()->counter("net.messages")->value(), 10u);
  EXPECT_EQ(transport.retransmits(), 0u);
  EXPECT_EQ(transport.acks(), 0u);
  EXPECT_EQ(transport.in_flight(), 0u);
}

TEST(ReliableTransportTest, LocalMessagesBypassTheProtocol) {
  Simulator sim;
  NetworkOptions options;
  options.drop_probability = 0.5;  // fault injection active...
  options.seed = 9;
  Network net(&sim, 2, options);
  ReliableTransport transport(&net);
  int delivered = 0;
  for (int i = 0; i < 20; ++i) transport.Send(1, 1, 48, [&] { ++delivered; });
  sim.Run();
  // ...but src == dst never crosses a link: all delivered, zero acks.
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(transport.acks(), 0u);
}

TEST(ReliableTransportTest, ExactlyOnceUnderHeavyLoss) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  options.jitter = 50;
  options.drop_probability = 0.5;
  options.seed = 11;
  Network net(&sim, 2, options);
  ReliableTransport transport(&net);
  std::vector<int> arrivals(100, 0);
  for (int i = 0; i < 100; ++i) {
    transport.Send(0, 1, 48, [&arrivals, i] { ++arrivals[i]; });
  }
  sim.Run();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(arrivals[i], 1) << "payload " << i;
  }
  EXPECT_GT(transport.retransmits(), 0u);
  EXPECT_EQ(transport.in_flight(), 0u);  // every frame eventually acked
  EXPECT_EQ(transport.abandoned(), 0u);
}

TEST(ReliableTransportTest, ExactlyOnceUnderDuplication) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  options.jitter = 300;
  options.fifo_links = false;
  options.duplicate_probability = 0.8;
  options.seed = 13;
  Network net(&sim, 2, options);
  ReliableTransport transport(&net);
  std::vector<int> arrivals(100, 0);
  for (int i = 0; i < 100; ++i) {
    transport.Send(0, 1, 48, [&arrivals, i] { ++arrivals[i]; });
  }
  sim.Run();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(arrivals[i], 1) << "payload " << i;
  }
  // The network really did duplicate frames; the receiver suppressed them.
  EXPECT_GT(net.metrics()->counter("net.duplicated")->value(), 0u);
  EXPECT_GT(net.metrics()->counter("net.rel.duplicates_suppressed")->value(),
            0u);
  EXPECT_EQ(transport.in_flight(), 0u);
}

TEST(ReliableTransportTest, RetransmitsThroughAPartitionUntilItHeals) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  Network net(&sim, 2, options);
  net.SchedulePartition({0}, 0, 5000);
  ReliableTransport transport(&net);
  int delivered = 0;
  SimTime delivered_at = 0;
  transport.Send(0, 1, 48, [&] {
    ++delivered;
    delivered_at = sim.now();
  });
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(delivered_at, 5000u);  // only after the heal
  EXPECT_GT(transport.retransmits(), 0u);
  EXPECT_GT(net.metrics()->counter("net.partitioned")->value(), 0u);
  EXPECT_EQ(transport.in_flight(), 0u);
}

TEST(ReliableTransportTest, CappedRetransmitsAbandonUnreachablePeers) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  options.drop_probability = 1.0;  // peer is unreachable forever
  Network net(&sim, 2, options);
  ReliableTransportOptions topts;
  topts.max_retransmits = 4;
  ReliableTransport transport(&net, topts);
  int delivered = 0;
  transport.Send(0, 1, 48, [&] { ++delivered; });
  sim.Run();  // must terminate: the retry loop gives up
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(transport.abandoned(), 1u);
  EXPECT_EQ(transport.retransmits(), 4u);
  EXPECT_EQ(transport.in_flight(), 0u);
}

TEST(ReliableTransportTest, BackoffIsExponentialAndCapped) {
  Simulator sim;
  NetworkOptions options;
  options.base_latency = 100;
  options.drop_probability = 1.0;
  Network net(&sim, 2, options);
  ReliableTransportOptions topts;
  topts.initial_timeout = 100;
  topts.backoff = 2.0;
  topts.max_timeout = 400;
  topts.max_retransmits = 5;
  ReliableTransport transport(&net, topts);
  transport.Send(0, 1, 48, [] {});
  // Retries at 100, then +200, +400 (cap), +400, +400; the timer after the
  // fifth retry fires at 100+200+400+400+400+400 and abandons.
  sim.Run();
  EXPECT_EQ(transport.abandoned(), 1u);
  EXPECT_EQ(sim.now(), 1900u);
}

TEST(ReliableTransportTest, DeterministicUnderSeed) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    NetworkOptions options;
    options.base_latency = 100;
    options.jitter = 200;
    options.drop_probability = 0.3;
    options.duplicate_probability = 0.2;
    options.seed = seed;
    Network net(&sim, 2, options);
    ReliableTransport transport(&net);
    std::vector<SimTime> arrivals;
    for (int i = 0; i < 50; ++i) {
      transport.Send(0, 1, 48, [&] { arrivals.push_back(sim.now()); });
    }
    sim.Run();
    arrivals.push_back(transport.retransmits());
    arrivals.push_back(transport.acks());
    return arrivals;
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

}  // namespace
}  // namespace cdes
