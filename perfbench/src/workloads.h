// The four benchmark workloads and the bookkeeping they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct RunResult {
  explicit RunResult(bool trace) : tracer(trace) {}

  bool setup_ok = true;
  bool correct = true;  // every checked output matched its expected digest
  int64_t attempted = 0;
  int64_t failed = 0;   // failed submits, failed queries, wrong results,
                        // missed deadlines
  std::string config_json;
  Tracer tracer;
  Metrics named;  // the workload's own headline metrics, for humans
  Metrics e2e;    // metrics reported by untraced runs
  Metrics layer;  // metrics reported by traced runs
};

/// Counters every workload fills for the per-layer report; whatever a
/// workload does not exercise stays 0.
struct LayerData {
  ExecTotals exec;
  std::vector<double> execute_ms, first_page_ms, drain_ms;
  int64_t prefetches = 0;
  int64_t prefetch_hits = 0;
  double rpcs_per_query = 0;
  double retained_kb_per_query = 0;
  std::vector<double> switch_ms, switch_shuffle_ms, switch_build_ms;
  std::vector<double> switch_rate_ratio;
  int64_t residual_units = 0;
  int threads_max = 0;
  std::vector<double> estimate_us, dop_time_list_us, prediction_error;
  int64_t tuner_actions = 0;
  int64_t tuner_rejected = 0;
  GovernorTotals governors;  // consumed during the measured phase
};

/// Writes every per-layer metric, in a fixed order, from `data`.
void EmitLayerMetrics(const LayerData& data, Metrics* layer);

/// One query of the measured phase.
struct Completed {
  int64_t end_us = 0;       // NowMicros at the end of its result stream
  double latency_ms = 0;
  double task_seconds = 0;  // task count x time: the query's compute bill
};

/// Writes the gated end-to-end metrics. The queries are cut, in completion
/// order, into `chunks` groups of equal count; each metric is the median
/// over groups of the group's statistic, so a burst of machine noise in one
/// part of a run moves it little. `start_us` is when the measured phase
/// began.
void EmitEndToEnd(const std::vector<double>& setup_seconds,
                  std::vector<Completed> done, int64_t start_us, int chunks,
                  RunResult* result);

/// Samples the process thread count while alive (traced runs only).
class ThreadCountSampler {
 public:
  explicit ThreadCountSampler(bool enabled);
  ~ThreadCountSampler();
  ThreadCountSampler(const ThreadCountSampler&) = delete;
  ThreadCountSampler& operator=(const ThreadCountSampler&) = delete;
  int Stop();  // returns the high-water mark

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> max_{0};
  std::thread thread_;
};

/// Counters read just before the measured phase.
struct MeasureStart {
  double rss_mb = 0;
  int64_t rpcs = 0;
  GovernorTotals governors;
};
MeasureStart BeginMeasure(AccordionCluster* cluster);

/// Completes `layer` with what the measured phase left behind on the
/// cluster — scheduler units still registered, RSS growth per query, RPCs,
/// governor consumption — and, in traced runs, writes every per-layer
/// metric plus the SQL probe over `sql_texts` and the storage probes.
void FinishLayer(AccordionCluster* cluster, const MeasureStart& start,
                 int64_t queries, const std::vector<std::string>& sql_texts,
                 bool trace, LayerData* layer, RunResult* result);

/// Stage q-errors of one executed SQL query against the estimates in its
/// JSON Explain.
void AddStageQErrors(const std::map<int, double>& estimates,
                     const QuerySnapshot& snapshot, ExecTotals* totals);

/// Task count of each stage at the end of a query, times the query's
/// latency: the compute bill of a query whose DOP never changed.
double StaticTaskSeconds(const QuerySnapshot& snapshot, double latency_s);

void RunTpchNative(const RunArgs& args, const Expected& expected,
                   RunResult* result);
void RunInteractive(const RunArgs& args, const Expected& expected,
                    RunResult* result);
void RunElasticSwitch(const RunArgs& args, const Expected& expected,
                      RunResult* result);
void RunDeadlineTuner(const RunArgs& args, const Expected& expected,
                      RunResult* result);

/// Prints expected.txt: row counts and digests from the optimizer-off
/// planner at each workload's SF.
int RecordExpected();

/// The interactive workload's short-query shapes.
struct ShortQuery {
  const char* key;
  const char* sql;  // `?` marks the bound key for prepared shapes
  int64_t key_lo = 0;
  int64_t key_hi = -1;  // key range (inclusive) for prepared shapes
};
std::vector<ShortQuery> ShortQueries(double scale_factor);

// Cluster builds per run; setup_s is their median.
constexpr int kSetupReps = 5;

constexpr double kTpchScaleFactor = 0.1;
// SF 1 (1.5M build rows) was tried first: its query time moved 0.2-0.3
// (quartile spread over median) between runs, past any bound the
// benchmark may set. At SF 0.25 the 375K-row build still takes the radix
// path and outgrows L2, and a run holds ten queries.
constexpr double kElasticScaleFactor = 0.25;
constexpr double kTunerScaleFactor = 0.01;

/// expected.txt key of Q2J's result at `scale_factor`.
std::string Q2JKey(double scale_factor);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
