// Measurement helpers of the benchmark: exact percentiles over every
// client-side sample, a Zipf popularity sampler, and the span recorder
// whose per-layer self times the traced run prints. Header-only so the
// benchmark's own tests exercise exactly the code the runs use.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace perfbench {

/// One exact percentile: the nearest-rank sample, the sample count it was
/// taken from, and how many samples lie strictly beyond its rank.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted` (ascending).
/// Returns nullopt unless at least `min_beyond` samples lie beyond the
/// rank: a percentile with fewer is not reported.
inline std::optional<Percentile> exact_percentile(
    const std::vector<double>& sorted, double p, size_t min_beyond = 10) {
  const size_t n = sorted.size();
  if (n == 0 || p <= 0.0 || p > 100.0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  const size_t beyond = n - rank;
  if (beyond < min_beyond) return std::nullopt;
  return Percentile{sorted[rank - 1], n, beyond};
}

/// Percentile `p` of unsorted `values`, or 0 when it cannot be reported.
inline double percentile_or_zero(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const auto r = exact_percentile(values, p);
  return r ? r->value : 0.0;
}

/// Median of `values` (mean of the two middle values for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Median of the smallest quarter of `values` (at least one value). For
/// timings of work that is the same every time, these are the runs the
/// host disturbed least: interference only ever slows such work, while a
/// slower program slows every run alike and so moves this figure too.
inline double fastest_quarter_median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  values.resize(std::max<size_t>(1, values.size() / 4));
  return median(std::move(values));
}

/// Samples ranks 0..n-1 with probability proportional to 1 / (rank+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] size_t size() const { return cdf_.size(); }

  [[nodiscard]] double probability(size_t rank) const {
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
  }

  [[nodiscard]] size_t sample(svc::Rng& rng) const {
    const double u = rng.next_f64();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One recorded span: a call the benchmark made into a layer. The layer
/// is the name's prefix up to the first '.'; "harness" spans are the
/// benchmark's own work.
struct Span {
  uint32_t name = 0;     // index into Tracer::names()
  int32_t parent = -1;   // index of the enclosing span, -1 at the root
  uint64_t request = 0;  // shared by every span of one request (0 = none)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store for one thread. Disabled tracers record nothing
/// and cost one branch per call.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Opens a span; returns its index (-1 when disabled).
  int32_t begin(const std::string& name, int32_t parent = -1,
                uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back({intern(name), parent, request, now_ns(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void end(int32_t span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = now_ns();
  }

  /// Records a span whose bounds were measured by the caller.
  int32_t record(const std::string& name, int64_t start_ns, int64_t end_ns,
                 int32_t parent = -1, uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back({intern(name), parent, request, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

 private:
  uint32_t intern(const std::string& name) {
    const auto [it, inserted] =
        ids_.emplace(name, static_cast<uint32_t>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
};

/// Runs `fn` and records it as a span; returns its duration in
/// microseconds, also when the tracer is disabled.
template <typename Fn>
double timed_span(Tracer& tracer, const char* name, int32_t parent, Fn&& fn) {
  const int64_t start = tracer.now_ns();
  fn();
  const int64_t end = tracer.now_ns();
  tracer.record(name, start, end, parent);
  return static_cast<double>(end - start) / 1e3;
}

/// Length of the union of `intervals` clipped to [lo, hi].
inline int64_t covered_ns(std::vector<std::pair<int64_t, int64_t>> intervals,
                          int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = 0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

/// The layer a span name belongs to: its prefix up to the first '.'.
inline std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Self time per layer: each span's duration minus the part of it that
/// its child spans cover, summed by layer. `total_ns` is the summed
/// duration of the root spans; "harness" self time is the remainder no
/// layer accounts for.
struct SelfTimes {
  std::map<std::string, int64_t> layer_ns;
  int64_t total_ns = 0;
};

inline SelfTimes self_times(const std::vector<Span>& spans,
                            const std::vector<std::string>& names) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  SelfTimes out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t duration = std::max<int64_t>(s.end_ns - s.start_ns, 0);
    const int64_t self =
        duration - covered_ns(std::move(children[i]), s.start_ns, s.end_ns);
    out.layer_ns[layer_of(names[s.name])] += self;
    if (s.parent < 0) out.total_ns += duration;
  }
  return out;
}

}  // namespace perfbench
