#ifndef ACCORDION_COMMON_RETRY_POLICY_H_
#define ACCORDION_COMMON_RETRY_POLICY_H_

#include <algorithm>
#include <cstdint>

#include "common/random.h"
#include "common/status.h"

namespace accordion {

/// Retry schedule for idempotent RPCs: exponential backoff with
/// multiplicative jitter and a per-attempt deadline. Shared by the
/// coordinator's control-plane calls and the task-side exchange clients
/// (data plane). One policy instance lives in EngineConfig.
struct RetryPolicy {
  /// Total tries including the first one. <= 1 disables retrying.
  int max_attempts = 4;

  int64_t initial_backoff_ms = 1;
  int64_t max_backoff_ms = 50;

  /// Simulated per-attempt deadline. An attempt whose injected latency
  /// exceeds this counts as failed (kUnavailable) and is retried.
  int64_t attempt_deadline_ms = 1000;
};

/// True for errors that a retry of an idempotent call may cure.
inline bool IsRetryableRpcStatus(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

/// Each backoff doubles the last, and the actual sleep is uniform in
/// [backoff * (1 - jitter), backoff * (1 + jitter)], so retry storms from
/// sibling tasks decorrelate.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.5;

/// Backoff before attempt `attempt` (1-based count of failures so far),
/// jittered with `rng`. Thread-compatible: callers own the rng.
inline int64_t RetryBackoffMs(const RetryPolicy& policy, int attempt,
                              Random* rng) {
  double backoff = static_cast<double>(policy.initial_backoff_ms);
  for (int i = 1; i < attempt; ++i) backoff *= kBackoffMultiplier;
  backoff = std::min(backoff, static_cast<double>(policy.max_backoff_ms));
  if (rng != nullptr) {
    double spread = (rng->NextDouble() * 2.0 - 1.0) * kBackoffJitter;
    backoff *= 1.0 + spread;
  }
  return std::max<int64_t>(0, static_cast<int64_t>(backoff));
}

}  // namespace accordion

#endif  // ACCORDION_COMMON_RETRY_POLICY_H_
