// The benchmark's own arithmetic: the percentile rule, medians, span self
// time, and the Zipf sampler. Header-only so cqbench_driver
// and the self-test share one definition (cqbench/src/selftest.cc checks it).
#ifndef CQBENCH_STATS_H_
#define CQBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/rng.h"

namespace cqbench {

// Nearest-rank percentile: the smallest sample such that at least p percent
// of all samples are <= it, i.e. sorted[ceil(p/100 * n) - 1]. With n samples
// exactly floor(n * (1 - p/100)) samples lie strictly beyond the returned
// rank, so p99 has at least 10 samples beyond it once n >= 1000. Returns 0
// for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

// Samples strictly beyond the nearest-rank p-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return n - rank;
}

// Median (mean of the two middle samples for an even count).
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// One traced interval. Times are nanoseconds on one steady clock; parent is
// an index into the same span vector (-1 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

// Self time of every span: its duration minus the part of its interval that
// its children cover. Children may overlap each other (concurrent work under
// one parent) or stick out of the parent; only the union of their intervals
// clipped to the parent's interval is subtracted, so self time is never
// negative and overlapping children are not subtracted twice.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = std::max(spans[i].end_ns, lo);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
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
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// Zipf(s) over ranks 0..n-1: P(rank k) proportional to 1/(k+1)^s. Sampling
// inverts the precomputed CDF with one uniform draw from the caller's Rng, so
// a sequence of draws is a pure function of the Rng's seed.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(cqchase::Rng& rng) const {
    const double u = rng.UniformDouble();
    const size_t k = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(k, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace cqbench

#endif  // CQBENCH_STATS_H_
