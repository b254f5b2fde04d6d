#ifndef CDES_SIM_NETWORK_H_
#define CDES_SIM_NETWORK_H_

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace cdes {

struct NetworkOptions {
  /// One-way latency between distinct sites, in ticks.
  SimTime base_latency = 1000;
  /// Uniform extra delay in [0, jitter] added per message.
  SimTime jitter = 0;
  /// Latency for messages within a site (actor to co-located actor).
  SimTime local_latency = 1;
  /// When true, messages on one (src, dst) link never overtake each other.
  bool fifo_links = true;
  /// Serial message-handling time at the destination site: each delivery
  /// occupies the receiving site for this many ticks, so a site that all
  /// traffic funnels through becomes a bottleneck (how centralized
  /// schedulers saturate under concurrent load).
  SimTime site_processing = 0;
  /// Probability that a remote message is silently lost (never delivered).
  /// Local (src == dst) messages are in-process and immune to all faults.
  double drop_probability = 0.0;
  /// Probability that a delivered remote message arrives a second time,
  /// with an independently drawn latency. With fifo_links the copy is
  /// clamped like any other message, so it cannot overtake later traffic.
  double duplicate_probability = 0.0;
  /// Seed for the jitter / fault streams.
  uint64_t seed = 1;
  /// When set, per-message counters and the delivery-latency histogram
  /// land in this registry ("net.*" names); otherwise the network keeps a
  /// private registry, read through metrics().
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, every message becomes an in-flight async span (send at the
  /// source site, deliver at the destination site); lost messages become
  /// "lost" instants at the source.
  obs::TraceRecorder* tracer = nullptr;
};

/// A simulated message-passing network among `site_count` sites.
///
/// Delivery is by callback: Send schedules `deliver` on the simulator after
/// the link latency. Latency = base (per-link override possible) + jitter.
/// With fifo_links, arrival times are clamped to be non-decreasing per link,
/// modelling one TCP-like channel per site pair; with it off, messages can
/// overtake (the adversarial mode used by failure-injection tests).
///
/// Fault injection (all drawn from the seeded RNG, so chaos runs replay
/// deterministically): per-message drop and duplication probabilities, and
/// scheduled site partitions. The fault pipeline runs at Send time — a
/// message already in flight when a partition window opens is delivered
/// (the decision models the send-side switch port, not the wire). Callers
/// that need exactly-once delivery on top of this at-most-once transport
/// layer a `ReliableTransport` (runtime/reliable_transport.h) above it.
class Network {
 public:
  Network(Simulator* sim, size_t site_count, const NetworkOptions& options);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Sends a message of `bytes` from `src` to `dst`; `deliver` runs at the
  /// arrival time. Under fault injection the message may be dropped (never
  /// delivered) or duplicated (`deliver` runs twice).
  void Send(int src, int dst, size_t bytes, Simulator::Callback deliver);

  /// Overrides the base latency of one directed link.
  void SetLinkLatency(int src, int dst, SimTime base) {
    link_latency_[{src, dst}] = base;
  }

  /// Cuts every link crossing the boundary of `group` during [from, until):
  /// messages sent between a site in the group and a site outside it are
  /// dropped and counted in "net.partitioned". Windows may overlap; a
  /// window with `until` <= `from` is ignored.
  void SchedulePartition(std::set<int> group, SimTime from, SimTime until);

  /// Whether (src, dst) traffic is cut by a partition window at `at`.
  bool Partitioned(int src, int dst, SimTime at) const;

  /// True when any fault knob can affect a message sent now or later:
  /// nonzero drop/duplication probability, or any scheduled partition.
  /// Reliability layers use this to stay entirely out of the way (no ids,
  /// acks, or timers) on a reliable network.
  bool FaultInjectionActive() const {
    return options_.drop_probability > 0 ||
           options_.duplicate_probability > 0 || !partitions_.empty();
  }

  /// The registry the "net.*" metrics report into (the installed one, or
  /// the private fallback).
  obs::MetricsRegistry* metrics() const { return metrics_; }
  obs::TraceRecorder* tracer() const { return tracer_; }
  size_t site_count() const { return site_count_; }
  Simulator* sim() const { return sim_; }
  const NetworkOptions& options() const { return options_; }

 private:
  struct PartitionWindow {
    std::set<int> group;
    SimTime from;
    SimTime until;
  };

  /// Applies FIFO clamping and site processing to an arrival `latency`
  /// ticks away, records delivery metrics, and schedules `deliver`.
  void ScheduleDelivery(int src, int dst, size_t bytes, SimTime latency,
                        Simulator::Callback deliver);
  /// One fresh latency draw for a remote (src, dst) message.
  SimTime DrawLatency(int src, int dst);

  Simulator* sim_;
  size_t site_count_;
  NetworkOptions options_;
  Rng rng_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* messages_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::Counter* remote_messages_ = nullptr;
  obs::Counter* dropped_ = nullptr;
  obs::Counter* duplicated_ = nullptr;
  obs::Counter* partitioned_ = nullptr;
  obs::Histogram* latency_ = nullptr;
  obs::TraceRecorder* tracer_ = nullptr;
  uint64_t trace_seq_ = 0;
  std::map<std::pair<int, int>, SimTime> link_latency_;
  std::map<std::pair<int, int>, SimTime> last_arrival_;
  std::map<int, SimTime> site_busy_until_;
  std::vector<PartitionWindow> partitions_;
};

}  // namespace cdes

#endif  // CDES_SIM_NETWORK_H_
