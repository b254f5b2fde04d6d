#include "sim/network.h"

#include "common/strings.h"

namespace cdes {
namespace {

/// The network's "net.*" metrics, resolved once per registry.
struct NetworkMetrics {
  explicit NetworkMetrics(obs::MetricsRegistry* registry)
      : messages(registry->counter("net.messages")),
        bytes(registry->counter("net.bytes")),
        remote_messages(registry->counter("net.remote_messages")),
        dropped(registry->counter("net.dropped")),
        duplicated(registry->counter("net.duplicated")),
        partitioned(registry->counter("net.partitioned")),
        latency(registry->histogram("net.latency_us")) {}

  obs::Counter* messages;
  obs::Counter* bytes;
  obs::Counter* remote_messages;
  obs::Counter* dropped;
  obs::Counter* duplicated;
  obs::Counter* partitioned;
  obs::Histogram* latency;
};

}  // namespace

Network::Network(Simulator* sim, size_t site_count,
                 const NetworkOptions& options)
    : sim_(sim), site_count_(site_count), options_(options),
      rng_(options.seed), tracer_(options.tracer) {
  if (options.metrics != nullptr) {
    metrics_ = options.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  const NetworkMetrics& metrics = metrics_->handles<NetworkMetrics>();
  messages_ = metrics.messages;
  bytes_ = metrics.bytes;
  remote_messages_ = metrics.remote_messages;
  dropped_ = metrics.dropped;
  duplicated_ = metrics.duplicated;
  partitioned_ = metrics.partitioned;
  latency_ = metrics.latency;
  if (tracer_ != nullptr) {
    for (size_t s = 0; s < site_count_; ++s) {
      tracer_->NameProcess(static_cast<int>(s), StrCat("site ", s));
      tracer_->NameLane(static_cast<int>(s), 0, "transport");
    }
  }
}

void Network::SchedulePartition(std::set<int> group, SimTime from,
                                SimTime until) {
  if (until <= from || group.empty()) return;
  partitions_.push_back(PartitionWindow{std::move(group), from, until});
}

bool Network::Partitioned(int src, int dst, SimTime at) const {
  for (const PartitionWindow& w : partitions_) {
    if (at < w.from || at >= w.until) continue;
    if (w.group.count(src) != w.group.count(dst)) return true;
  }
  return false;
}

SimTime Network::DrawLatency(int src, int dst) {
  auto it = link_latency_.find({src, dst});
  SimTime latency =
      it != link_latency_.end() ? it->second : options_.base_latency;
  if (options_.jitter > 0) latency += rng_.Uniform(options_.jitter + 1);
  return latency;
}

void Network::ScheduleDelivery(int src, int dst, size_t bytes,
                               SimTime latency, Simulator::Callback deliver) {
  SimTime arrival = sim_->now() + latency;
  if (options_.fifo_links) {
    // Never deliver before an earlier message on the same link: the clamp
    // is what keeps jitter > base_latency (and duplicated copies) from
    // reordering a FIFO channel.
    SimTime last = last_arrival_[{src, dst}];
    if (arrival < last) arrival = last;
  }
  if (options_.site_processing > 0) {
    // The destination handles one message at a time.
    SimTime& busy_until = site_busy_until_[dst];
    if (arrival < busy_until) arrival = busy_until;
    arrival += options_.site_processing;
    busy_until = arrival;
  }
  if (options_.fifo_links) {
    // Record the final (post-processing) delivery time, so later traffic
    // clamps against when this message actually lands.
    last_arrival_[{src, dst}] = arrival;
  }
  latency_->Observe(arrival - sim_->now());
  if (tracer_ != nullptr) {
    std::string key = StrCat("net:", ++trace_seq_);
    tracer_->BeginAsync(obs::SpanCategory::kMessage,
                        StrCat("msg ", src, "→", dst), key, sim_->now(),
                        src, 0, {{"bytes", StrCat(bytes)}});
    sim_->ScheduleAt(arrival,
                     [this, key = std::move(key), dst,
                      deliver = std::move(deliver)] {
                       tracer_->EndAsync(key, sim_->now(), dst, 0);
                       deliver();
                     });
    return;
  }
  sim_->ScheduleAt(arrival, std::move(deliver));
}

void Network::Send(int src, int dst, size_t bytes,
                   Simulator::Callback deliver) {
  CDES_CHECK_LT(static_cast<size_t>(src), site_count_);
  CDES_CHECK_LT(static_cast<size_t>(dst), site_count_);
  messages_->Increment();
  bytes_->Increment(bytes);
  remote_messages_->Increment((src != dst) ? 1 : 0);
  if (src == dst) {
    // In-process delivery: immune to loss, duplication, and partitions.
    ScheduleDelivery(src, dst, bytes, options_.local_latency,
                     std::move(deliver));
    return;
  }
  if (Partitioned(src, dst, sim_->now())) {
    partitioned_->Increment();
    if (tracer_ != nullptr) {
      tracer_->Instant(obs::SpanCategory::kMessage,
                       StrCat("lost ", src, "→", dst), sim_->now(), src, 0,
                       {{"cause", "partition"}});
    }
    return;
  }
  if (options_.drop_probability > 0 &&
      rng_.Bernoulli(options_.drop_probability)) {
    dropped_->Increment();
    if (tracer_ != nullptr) {
      tracer_->Instant(obs::SpanCategory::kMessage,
                       StrCat("lost ", src, "→", dst), sim_->now(), src, 0,
                       {{"cause", "loss"}});
    }
    return;
  }
  SimTime latency = DrawLatency(src, dst);
  // Decide duplication before scheduling the original so the RNG stream
  // (and therefore the whole run) is a pure function of the send sequence.
  bool duplicate = options_.duplicate_probability > 0 &&
                   rng_.Bernoulli(options_.duplicate_probability);
  SimTime dup_latency = duplicate ? DrawLatency(src, dst) : 0;
  if (!duplicate) {
    ScheduleDelivery(src, dst, bytes, latency, std::move(deliver));
    return;
  }
  duplicated_->Increment();
  ScheduleDelivery(src, dst, bytes, latency, deliver);
  ScheduleDelivery(src, dst, bytes, dup_latency, std::move(deliver));
}

}  // namespace cdes
