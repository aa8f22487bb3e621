#ifndef ACCORDION_TUNER_AUTO_TUNER_H_
#define ACCORDION_TUNER_AUTO_TUNER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tuner/predictor.h"

namespace accordion {

/// Filters unreasonable tuning requests before they reach the dynamic
/// optimizer (paper §5.2): requests against finished queries/stages and
/// join-stage adjustments whose hash-table rebuild would outlast the
/// stage's remaining execution time.
class RequestFilter {
 public:
  explicit RequestFilter(Predictor* predictor) : predictor_(predictor) {}

  /// OK when the request is worth executing; an explanatory error
  /// otherwise (the paper's "(Rejected)" annotations). The query_id form
  /// takes one snapshot through the predictor.
  Status Check(const std::string& query_id, int stage_id, int requested_dop);
  Status Check(const QuerySnapshot& snapshot, int stage_id,
               int requested_dop) const;

 private:
  Predictor* predictor_;
};

/// Runtime bottleneck localization (paper §5.1): a stage whose exchange
/// turn-up counters stop moving while it runs is compute-bound; stages on
/// nodes with saturated NICs are network-bound.
struct BottleneckReport {
  std::vector<int> compute_bottlenecks;
  std::vector<int> network_bottlenecks;
};

/// Observes the query over `window_ms` (two snapshots) and classifies.
Result<BottleneckReport> LocateBottlenecks(Coordinator* coordinator,
                                           const std::string& query_id,
                                           int64_t window_ms = 600);

/// The DOP auto-tuner (paper §5.4, Fig. 19). Supports the three request
/// types: direct (filtered) tuning, one-time tuning against a latency
/// constraint, and the background DOP monitor that keeps per-scan-stage
/// deadlines while minimizing resources.
class AutoTuner {
 public:
  explicit AutoTuner(Coordinator* coordinator);
  ~AutoTuner();

  Predictor* predictor() { return &predictor_; }
  RequestFilter* filter() { return &filter_; }

  /// Direct DOP tuning, gated by the request filter.
  Status Tune(const std::string& query_id, int stage_id, int dop,
              DopSwitchReport* report = nullptr);

  /// One-time auto-tuning: builds the DOP-time list and applies the DOP
  /// whose prediction best matches `latency_constraint_s`. Returns the
  /// chosen DOP.
  Result<int> OneTimeTune(const std::string& query_id, int stage_id,
                          double latency_constraint_s, int max_dop);

  /// One tuning unit of the monitor DAG (Fig. 19): a knob stage paced by
  /// the scanning progress of its driving scan stage.
  struct TuningUnit {
    int knob_stage = 0;
    /// Deadline for the unit's scan progress, in seconds from monitor
    /// start (the per-scan-stage constraints of §6.5.2).
    double deadline_seconds = 0;
    int max_dop = 10;
  };

  /// Starts the DOP monitor for a query. Each period it estimates every
  /// unit's remaining time and raises/lowers the knob DOP to just meet
  /// the deadline (AP/RP actions in Fig. 30). Each unit's decision reads
  /// one snapshot.
  Status StartMonitor(const std::string& query_id,
                      std::vector<TuningUnit> units, int64_t period_ms = 1000);

  /// Replaces a unit's constraint at runtime (Fig. 30b's mid-flight
  /// re-constraint): the new deadline is `seconds_from_now` ahead.
  Status UpdateConstraint(const std::string& query_id, int knob_stage,
                          double seconds_from_now);

  void StopMonitor(const std::string& query_id);

  /// Log of monitor actions, for the Fig. 30 reproduction.
  struct MonitorAction {
    double at_seconds = 0;  // since monitor start
    int stage = 0;
    int from_dop = 0;
    int to_dop = 0;
    bool rejected = false;
  };
  std::vector<MonitorAction> MonitorLog(const std::string& query_id);

 private:
  struct MonitorState {
    std::vector<TuningUnit> units;
    int64_t start_ms = 0;
    int64_t period_ms = 1000;
    std::thread thread;
    std::atomic<bool> stop{false};
    std::mutex mutex;  // guards units + log
    std::vector<MonitorAction> log;
  };

  void MonitorLoop(const std::string& query_id, MonitorState* state);

  Coordinator* coordinator_;
  Predictor predictor_;
  RequestFilter filter_;

  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<MonitorState>> monitors_;
};

}  // namespace accordion

#endif  // ACCORDION_TUNER_AUTO_TUNER_H_
