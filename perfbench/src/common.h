#ifndef CDES_PERFBENCH_COMMON_H_
#define CDES_PERFBENCH_COMMON_H_

// Clock, seeded input RNG, order statistics and the metric report shared by
// every part of the benchmark.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double SecondsSince(Clock::time_point t0) {
  return SecondsBetween(t0, Clock::now());
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the benchmark's own input generator, so workload inputs
/// depend on the seed alone and not on the library's RNG.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return v[rank];
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// A uniform sample of at most `capacity` values (Algorithm R) drawn with
/// its own fixed stream, so a long run's latency record stays the same
/// size however many operations complete.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity = size_t{1} << 17)
      : capacity_(capacity), rng_(0x5EED) {}
  void Add(double x) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(x);
    } else if (uint64_t j = rng_.Below(seen_); j < capacity_) {
      values_[j] = x;
    }
  }
  double Percentile(double p) const {
    return perfbench::Percentile(values_, p);
  }

 private:
  size_t capacity_;
  InputRng rng_;
  std::vector<double> values_;
  uint64_t seen_ = 0;
};

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A timed window cut into equal slices. Each slice yields throughput and
/// latency percentiles over the operations completed in it, and the run
/// reports the median across slices, so a stall of the shared machine
/// moves one slice rather than the run's figure.
class SlicedWindow {
 public:
  SlicedWindow(Clock::time_point start, double seconds, double slice_seconds)
      : start_(start),
        slices_(std::max<size_t>(
            1, static_cast<size_t>(seconds / slice_seconds + 0.5))),
        slice_s_(seconds / static_cast<double>(slices_)) {}

  Clock::time_point deadline() const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            slice_s_ * static_cast<double>(slices_)));
  }

  /// Records one operation completed at `at` (inside the window).
  void Add(Clock::time_point at, double latency_ms, uint64_t events) {
    size_t k = static_cast<size_t>(SecondsBetween(start_, at) / slice_s_);
    if (k >= slices_) k = slices_ - 1;
    while (current_ < k) Close();
    ++ops_;
    events_ += events;
    latencies_.push_back(latency_ms);
  }

  /// Closes the remaining slices; call once the window has passed.
  void Finish() {
    while (current_ < slices_) Close();
  }

  double OpsPerS() const { return Median(ops_per_s_); }
  double EventsPerS() const { return Median(events_per_s_); }
  double LatencyP50() const { return Median(p50_); }
  double LatencyP99() const { return Median(p99_); }

 private:
  void Close() {
    ops_per_s_.push_back(static_cast<double>(ops_) / slice_s_);
    events_per_s_.push_back(static_cast<double>(events_) / slice_s_);
    if (!latencies_.empty()) {
      p50_.push_back(Percentile(latencies_, 0.50));
      p99_.push_back(Percentile(latencies_, 0.99));
    }
    latencies_.clear();
    ops_ = 0;
    events_ = 0;
    ++current_;
  }

  Clock::time_point start_;
  size_t slices_;
  double slice_s_;
  size_t current_ = 0;
  uint64_t ops_ = 0;
  uint64_t events_ = 0;
  std::vector<double> latencies_;
  std::vector<double> ops_per_s_, events_per_s_, p50_, p99_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics of one run, in the order they were added.
class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// One human-readable line per metric.
  void Print(std::FILE* out) const {
    for (const Metric& m : metrics_) {
      std::fprintf(out, "  %-40s %.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }

  /// {"name": {"value": v, "unit": u}, ...}, values with all their digits.
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" +
             metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // CDES_PERFBENCH_COMMON_H_
