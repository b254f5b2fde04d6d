#ifndef CDES_OBS_METRICS_H_
#define CDES_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cdes::obs {

/// A monotonically increasing named count. Instances are owned by a
/// MetricsRegistry; instrumentation sites cache the raw pointer once (the
/// address is stable for the registry's lifetime) and pay a single add per
/// increment — the same cost as the ad-hoc stat fields this layer replaces.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  uint64_t value_ = 0;
};

/// A named point-in-time value (queue depths, final simulated time, config
/// knobs). Unlike a Counter it may move in either direction.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  double value_ = 0;
};

/// A fixed-bucket histogram over uint64 samples. Bounds are inclusive upper
/// edges; one implicit overflow bucket catches everything above the last
/// bound. Observation is a linear scan over the (small) bound vector — no
/// allocation, suitable for per-message instrumentation.
class Histogram {
 public:
  void Observe(uint64_t sample);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }
  /// Approximate percentile (p in [0,1]) from the bucket upper bounds.
  uint64_t Percentile(double p) const;

  /// Adds `other`'s samples into this histogram (bucket-wise; count, sum,
  /// min, max combine exactly). Returns false and does nothing when the
  /// bucket bounds differ — merging is meant for same-shaped histograms,
  /// e.g. one metric collected per engine shard.
  bool MergeFrom(const Histogram& other);

  const std::string& name() const { return name_; }
  /// Inclusive upper bounds; buckets() has bounds().size() + 1 entries.
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::vector<uint64_t> bounds);
  std::string name_;
  std::vector<uint64_t> bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

/// The process-wide (or per-component) metric namespace: get-or-create
/// access to named counters, gauges, and histograms, plus a JSON snapshot
/// for benchmark trajectories and operator dumps. All runtime components
/// (schedulers, network, simulator) report through one of these instead of
/// bespoke stat structs.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter named `name`, creating it at zero if absent.
  Counter* counter(std::string_view name);
  /// Returns the gauge named `name`, creating it at zero if absent.
  Gauge* gauge(std::string_view name);
  /// Returns the histogram named `name`; `bounds` is used only on first
  /// creation (later calls with different bounds get the existing one).
  Histogram* histogram(std::string_view name,
                       const std::vector<uint64_t>& bounds = DefaultBounds());

  /// 1, 2, 4, ..., up to 2^(count-1) scaled by `start`: the default
  /// microsecond-latency bucketing.
  static std::vector<uint64_t> ExponentialBounds(uint64_t start = 1,
                                                 size_t count = 24);
  static const std::vector<uint64_t>& DefaultBounds();

  /// The registry's instance of `Handles`, a struct of metric pointers
  /// built by `Handles(MetricsRegistry*)` on the first request and kept for
  /// the registry's lifetime. A component built once per workflow instance
  /// against a long-lived registry resolves its metric names once, not
  /// once per build.
  template <typename Handles>
  const Handles& handles() {
    const void* key = &kHandlesKey<Handles>;
    for (const auto& [k, set] : handle_sets_) {
      if (k == key) return *static_cast<const Handles*>(set.get());
    }
    auto set = std::make_shared<const Handles>(this);
    handle_sets_.emplace_back(key, set);
    return *set;
  }

  /// Folds `other` into this registry: counters add, gauges take `other`'s
  /// value, histograms merge bucket-wise (created here with `other`'s
  /// bounds when absent; bound-mismatched histograms are skipped and
  /// counted in the return value). Used to aggregate per-shard registries
  /// into one engine-level snapshot.
  size_t MergeFrom(const MetricsRegistry& other);

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count,sum,min,max,mean,p50,p99,buckets}}}.
  /// Keys are sorted; output is deterministic.
  std::string ToJson() const;

  size_t counter_count() const { return counters_.size(); }
  size_t histogram_count() const { return histograms_.size(); }
  const std::map<std::string, std::unique_ptr<Counter>, std::less<>>&
  counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>, std::less<>>& gauges()
      const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>, std::less<>>&
  histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;

  /// One address per handle-struct type, identifying it in handle_sets_.
  template <typename Handles>
  static constexpr char kHandlesKey = 0;
  std::vector<std::pair<const void*, std::shared_ptr<const void>>>
      handle_sets_;
};

}  // namespace cdes::obs

#endif  // CDES_OBS_METRICS_H_
