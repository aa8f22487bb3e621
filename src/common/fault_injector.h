#ifndef ACCORDION_COMMON_FAULT_INJECTOR_H_
#define ACCORDION_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"

namespace accordion {

/// What an injected fault does to the RPC it fires on.
enum class FaultKind {
  /// The call does not execute; the caller sees kUnavailable.
  kTransientError,
  /// The call executes after an extra `latency_ms` sleep (latency spike).
  kAddedLatency,
  /// The call executes but its response is lost: the caller sees
  /// kUnavailable while the side effect happened (the hard case for
  /// retries — only safe because the control plane is idempotent and the
  /// data plane resumes from sequence numbers).
  kDropResponse,
  /// The target worker crashes: all its tasks abort and every later call
  /// to it fails with kUnavailable.
  kWorkerCrash,
};

const char* FaultKindName(FaultKind kind);

/// When and how often a fault fires at the sites a policy matches.
struct FaultPolicy {
  FaultKind kind = FaultKind::kTransientError;

  /// Per-matching-call fire probability (ignored when trigger_on_nth > 0).
  double probability = 0.0;

  /// One-shot trigger: fire exactly on the Nth matching call (1-based).
  /// Deterministic regardless of seed — the tool for "crash the worker
  /// serving the 40th GetPages" schedules.
  int64_t trigger_on_nth = 0;

  /// Consecutive matching calls faulted once the policy fires (models
  /// short outages rather than isolated blips).
  int burst = 1;

  /// Added latency for kAddedLatency faults.
  double latency_ms = 0.0;
};

/// Outcome of consulting the injector for one call.
struct FaultDecision {
  bool fault = false;
  FaultKind kind = FaultKind::kTransientError;
  double latency_ms = 0.0;
};

/// Deterministic, thread-safe fault-injection control plane. Sites are
/// dotted call-path names ("rpc.StartTask", "rpc.GetPages"); a policy
/// registered with a site prefix matches every site starting with it
/// ("rpc." matches all RPCs, "" matches everything). Policies are
/// evaluated in registration order; the first that fires wins.
///
/// All randomness flows from the constructor seed through one splitmix64
/// stream, so a (seed, schedule, workload) triple replays the same fault
/// sequence — the property the chaos harness and CI repro depend on.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed), rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers `policy` for every site starting with `site_prefix`.
  void AddPolicy(std::string site_prefix, FaultPolicy policy);

  /// Decides the fate of one call at `site`. Counts matching calls per
  /// policy (for trigger_on_nth) and fired faults globally.
  FaultDecision Decide(const std::string& site);

  /// True once any policy is registered — callers skip the mutex
  /// entirely on the (default) fault-free path.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t seed() const { return seed_; }
  int64_t faults_injected() const { return faults_injected_.load(); }

 private:
  struct Site {
    std::string prefix;
    FaultPolicy policy;
    int64_t matching_calls = 0;
    int burst_remaining = 0;
    bool one_shot_spent = false;
  };

  uint64_t seed_;
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> faults_injected_{0};
  std::mutex mutex_;
  Random rng_;
  std::vector<Site> sites_;
};

}  // namespace accordion

#endif  // ACCORDION_COMMON_FAULT_INJECTOR_H_
