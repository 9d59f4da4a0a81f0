#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace socrates {

size_t Histogram::BucketOf(double value) {
  if (!(value > 0)) return 0;  // negatives (and NaN) clamp to 0
  if (value >= 0x1p37) return kOverflow;
  uint64_t v = static_cast<uint64_t>(value + 0.5);
  if (v < kExact) return v;
  int k = std::bit_width(v) - 1;
  if (k >= kTopBit) return kOverflow;
  size_t sub = (v >> (k - kSubBits)) & (kSub - 1);
  return kExact + (k - kExactBits) * kSub + sub;
}

uint64_t Histogram::BucketStart(size_t b) {
  if (b < kExact) return b;
  size_t i = b - kExact;
  int k = kExactBits + static_cast<int>(i >> kSubBits);
  return (uint64_t{1} << k) + ((i & (kSub - 1)) << (k - kSubBits));
}

void Histogram::Add(double value) {
  counts_[BucketOf(value)]++;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_++;
  sum_ += value;
  sum_squares_ += value * value;
}

void Histogram::Merge(const Histogram& other) {
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
  sum_squares_ += other.sum_squares_;
  for (size_t b = 0; b < counts_.size(); b++) counts_[b] += other.counts_[b];
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::stddev() const {
  if (count_ == 0) return 0.0;
  double n = static_cast<double>(count_);
  double variance = (sum_squares_ * n - sum_ * sum_) / (n * n);
  return variance > 0 ? std::sqrt(variance) : 0.0;
}

double Histogram::FractionBelow(double v) const {
  if (count_ == 0) return 0.0;
  uint64_t below = 0;
  for (size_t b = 0; b < kOverflow && BucketStart(b + 1) - 1 < v; b++) {
    below += counts_[b];
  }
  return static_cast<double>(below) / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  // Nearest rank; the epsilon absorbs rounding in p * n / 100 (99.9 has
  // no exact binary form).
  double n = static_cast<double>(count_);
  uint64_t rank = static_cast<uint64_t>(
      std::clamp(std::ceil(p * n / 100.0 - 1e-9), 1.0, n));
  size_t b = 0;
  for (uint64_t seen = counts_[0]; seen < rank; seen += counts_[++b]) {
  }
  if (b == kOverflow) return max_;
  // Midpoint of the integers that bucket b holds.
  uint64_t lo = BucketStart(b), hi = BucketStart(b + 1) - 1;
  return std::clamp((lo + hi) / 2.0, min(), max_);
}

std::string Histogram::ToString() const {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f min=%.1f "
           "max=%.1f stddev=%.1f",
           static_cast<unsigned long long>(count_), mean(), Percentile(50),
           Percentile(95), Percentile(99), min(), max(), stddev());
  return std::string(buf);
}

}  // namespace socrates
