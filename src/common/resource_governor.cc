#include "common/resource_governor.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"

namespace accordion {

ResourceGovernor::ResourceGovernor(std::string name, double rate, double burst)
    : name_(std::move(name)),
      rate_(rate),
      burst_(burst),
      tokens_(burst),
      last_refill_us_(NowMicros()) {
  ACC_CHECK(rate > 0) << "governor " << name_ << " rate must be positive";
  ACC_CHECK(burst > 0) << "governor " << name_ << " burst must be positive";
}

void ResourceGovernor::RefillLocked(int64_t now_us) {
  if (now_us <= last_refill_us_) return;
  double elapsed_s = static_cast<double>(now_us - last_refill_us_) * 1e-6;
  tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_);
  last_refill_us_ = now_us;
}

void ResourceGovernor::RecordLocked(int64_t now_us, double amount) {
  total_consumed_ += amount;
  int64_t slot_start = now_us - now_us % kBucketUs;
  int idx = static_cast<int>((now_us / kBucketUs) % kBuckets);
  if (window_start_us_[idx] != slot_start) {
    window_start_us_[idx] = slot_start;
    window_[idx] = 0;
  }
  window_[idx] += amount;
}

int64_t ResourceGovernor::ReserveMicros(double amount) {
  ACC_CHECK(amount >= 0) << "negative reservation on " << name_;
  int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  RefillLocked(now);
  RecordLocked(now, amount);
  tokens_ -= amount;
  if (tokens_ >= 0) return now;
  // Debt: the grant completes once refills pay the debt back.
  return now + static_cast<int64_t>(-tokens_ / rate_ * 1e6);
}

double ResourceGovernor::Utilization() const {
  int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  // Sum complete buckets in the window (excluding the live one to avoid
  // under-reporting partially filled slots).
  double used = 0;
  int64_t window_lo = now - (kBuckets - 1) * kBucketUs;
  int live = static_cast<int>((now / kBucketUs) % kBuckets);
  int counted = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (i == live) continue;
    if (window_start_us_[i] >= window_lo) {
      used += window_[i];
      ++counted;
    }
  }
  if (counted == 0) return 0;
  double span_s = static_cast<double>(counted) * kBucketUs * 1e-6;
  return used / (rate_ * span_s);
}

double ResourceGovernor::TotalConsumed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_consumed_;
}

}  // namespace accordion
