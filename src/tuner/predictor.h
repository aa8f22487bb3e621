#ifndef ACCORDION_TUNER_PREDICTOR_H_
#define ACCORDION_TUNER_PREDICTOR_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/coordinator.h"

namespace accordion {

/// The what-if service (paper §5.2–§5.3). Estimates a stage's remaining
/// execution time from the scanning progress of its driving table-scan
/// stage:
///
///   T_remain    = V_remain / R_consume
///   T_predicted = (T_remain - T_build) / n_f + T_build
///
/// where V_remain is the unscanned data volume, R_consume the recent scan
/// consumption rate, T_build the hash-table reconstruction time (0 for
/// join-free stages) and n_f the parallelism factor capped by the
/// upstream nodes' CPU headroom. Each estimate reads one QuerySnapshot
/// and the rates recorded from earlier ones; each (query_id, ...) call
/// takes exactly one snapshot through Observe.
class Predictor {
 public:
  explicit Predictor(Coordinator* coordinator) : coordinator_(coordinator) {}

  /// Takes one snapshot of the query and records it.
  Result<QuerySnapshot> Observe(const std::string& query_id);

  /// Adds one rate sample per scan stage of `snapshot` (a ~10 s window);
  /// a terminal snapshot drops the query's history instead.
  void Record(const QuerySnapshot& snapshot);

  struct StageEstimate {
    int stage_id = 0;
    int driving_scan_stage = -1;
    int64_t remaining_rows = 0;           // V_remain (rows)
    double consume_rate_rows_per_s = 0;   // R_consume
    double remaining_seconds = 0;         // T_remain
    double build_seconds = 0;             // T_build (0 if no join)
    double progress = 0;                  // scanned fraction in [0,1]
  };

  /// Remaining-time estimate for `stage_id` at its current DOP.
  Result<StageEstimate> EstimateRemaining(const std::string& query_id,
                                          int stage_id);
  Result<StageEstimate> EstimateRemaining(const QuerySnapshot& snapshot,
                                          int stage_id) const;

  struct WhatIf {
    double predicted_seconds = 0;
    double tuning_seconds = 0;
    /// The parallelism factor actually credited (may be below the request
    /// when the upstream is near CPU saturation, §5.3).
    double applied_factor = 1;
    double max_factor = 1;
  };

  /// Predicted remaining time if the stage's DOP becomes `new_dop`.
  Result<WhatIf> PredictAfterTuning(const std::string& query_id, int stage_id,
                                    int new_dop);
  Result<WhatIf> PredictAfterTuning(const QuerySnapshot& snapshot,
                                    int stage_id, int new_dop) const;

  /// The §5.4 DOP-time list: predicted remaining seconds per DOP in
  /// [1, max_dop].
  struct DopTime {
    int dop = 1;
    double predicted_seconds = 0;
  };
  Result<std::vector<DopTime>> DopTimeList(const std::string& query_id,
                                           int stage_id, int max_dop);
  Result<std::vector<DopTime>> DopTimeList(const QuerySnapshot& snapshot,
                                           int stage_id, int max_dop) const;

 private:
  struct RateSample {
    int64_t at_ms = 0;
    int64_t scan_rows = 0;
  };

  /// Walks probe-side children to the driving scan stage (§5.2).
  static int DrivingScanStage(const QuerySnapshot& snapshot, int stage_id);

  Coordinator* coordinator_;
  mutable std::mutex mutex_;
  /// query id -> scan stage id -> samples, oldest first.
  std::map<std::string, std::map<int, std::vector<RateSample>>> history_;
};

}  // namespace accordion

#endif  // ACCORDION_TUNER_PREDICTOR_H_
