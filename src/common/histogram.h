// Latency/size histogram used by every bench and report (e.g. the paper's
// Table 6: STDEV / Min / Median / Max in microseconds).
//
// One fixed-size log-linear structure in the style of HdrHistogram
// (http://hdrhistogram.org/). A value is rounded to the nearest integer
// (negatives clamp to 0) and counted in one bucket:
//   - 0..127: one bucket per integer, so small integers are exact (a
//     fractional value there is off by its rounding, at most 0.5);
//   - each octave [2^k, 2^(k+1)) for 7 <= k < 37 splits into 64 equal
//     sub-buckets, so a bucket's midpoint is within 1/127.5 (0.78%) of
//     any value that rounds into it;
//   - one overflow bucket for values >= 2^37 (38 h in us, 128 GiB in
//     bytes), answered by max().
// All counters live inside the object (about 16 KiB): Add, Merge, Clear
// and copy never allocate, and Merge is exact, so a merged histogram
// answers every query as one that saw all the samples. count, min, max,
// mean and stddev come from exact scalar accumulators.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace socrates {

class Histogram {
 public:
  Histogram() = default;

  void Add(double value);
  void Merge(const Histogram& other);
  void Clear() { *this = Histogram(); }

  uint64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0; }
  double max() const { return max_; }
  double mean() const;
  double stddev() const;
  /// Nearest-rank percentile, p in [0, 100]: the value of the bucket that
  /// holds the sample of rank max(1, ceil(p/100 * count)), clamped to
  /// [min, max]. 0 if the histogram is empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  /// Fraction of samples in [0, 1] whose bucket lies wholly below `v`
  /// (bucket-granular). 0 if the histogram is empty.
  double FractionBelow(double v) const;

  /// One-line summary: count/mean/p50/p95/p99/max.
  std::string ToString() const;

 private:
  static constexpr int kExactBits = 7;  // 0..127 counted exactly
  static constexpr int kSubBits = 6;    // 64 sub-buckets per octave
  static constexpr int kTopBit = 37;    // values >= 2^37 overflow
  static constexpr size_t kExact = size_t{1} << kExactBits;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kOverflow =
      kExact + (kTopBit - kExactBits) * kSub;

  static size_t BucketOf(double value);
  /// First integer of bucket `b`; bucket b holds [start(b), start(b + 1)).
  static uint64_t BucketStart(size_t b);

  double min_ = 1e200;
  double max_ = 0;
  uint64_t count_ = 0;
  double sum_ = 0;
  double sum_squares_ = 0;
  std::array<uint64_t, kOverflow + 1> counts_{};
};

/// Monotonically increasing counter bundle (reads, writes, hits, misses,
/// bytes); cheap enough to be always-on in services.
struct CounterStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

}  // namespace socrates
