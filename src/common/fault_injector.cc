#include "common/fault_injector.h"

namespace accordion {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransientError:
      return "transient-error";
    case FaultKind::kAddedLatency:
      return "added-latency";
    case FaultKind::kDropResponse:
      return "drop-response";
    case FaultKind::kWorkerCrash:
      return "worker-crash";
  }
  return "?";
}

void FaultInjector::AddPolicy(std::string site_prefix, FaultPolicy policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  Site site;
  if (site_prefix == "*") site_prefix.clear();
  site.prefix = std::move(site_prefix);
  site.policy = policy;
  sites_.push_back(std::move(site));
  enabled_.store(true, std::memory_order_relaxed);
}

FaultDecision FaultInjector::Decide(const std::string& site) {
  FaultDecision decision;
  if (!enabled()) return decision;
  std::lock_guard<std::mutex> lock(mutex_);
  for (Site& s : sites_) {
    if (site.compare(0, s.prefix.size(), s.prefix) != 0) continue;
    ++s.matching_calls;

    bool fire = false;
    if (s.burst_remaining > 0) {
      --s.burst_remaining;
      fire = true;
    } else if (s.policy.trigger_on_nth > 0) {
      if (!s.one_shot_spent && s.matching_calls == s.policy.trigger_on_nth) {
        s.one_shot_spent = true;
        s.burst_remaining = s.policy.burst - 1;
        fire = true;
      }
    } else if (s.policy.probability > 0 &&
               rng_.NextDouble() < s.policy.probability) {
      s.burst_remaining = s.policy.burst - 1;
      fire = true;
    }
    if (!fire) continue;

    decision.fault = true;
    decision.kind = s.policy.kind;
    decision.latency_ms = s.policy.latency_ms;
    ++faults_injected_;
    return decision;
  }
  return decision;
}

}  // namespace accordion
