// Shared pieces of the repository benchmark: engine presets, in-memory
// span tracing, metric collection, result digests and the query runner
// every workload uses. Everything here measures the engine from outside,
// through its public headers only.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "cluster/cluster.h"

namespace perfbench {

using accordion::AccordionCluster;
using accordion::PagePtr;
using accordion::QueryHandlePtr;
using accordion::QuerySnapshot;
using accordion::Result;
using accordion::Session;

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);
double GeoMean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);
double Max(const std::vector<double>& values);

/// The highest percentile (capped at p99) that still has at least ten
/// samples beyond it; the maximum when the sample is too small for that.
/// Returns the value and stores the percentile used in `*q_used`.
double TailLatency(const std::vector<double>& values, double* q_used);

// --- process counters (/proc/self/status) ------------------------------------

struct ProcStatus {
  double rss_mb = 0;  // VmRSS
  double hwm_mb = 0;  // VmHWM
  int threads = 0;
};
ProcStatus ReadProcStatus();

// --- engine presets ----------------------------------------------------------

/// Cluster simulation off: no CPU cost model, no RPC sleeps, NIC governors
/// far beyond reach. Measures the engine's own compute.
AccordionCluster::Options NativePreset(double scale_factor, int workers,
                                       int storage_nodes);

/// The simulated paper cluster of examples/latency_constraint.cpp:
/// time-scaled cost model, default RPC latency and NIC rates, small
/// elastic buffers.
AccordionCluster::Options PaperClusterPreset(double scale_factor,
                                             double cost_scale, int workers,
                                             int storage_nodes);

/// JSON object with every engine setting a preset controls.
std::string DescribeOptions(const std::string& preset,
                            const AccordionCluster::Options& options,
                            int scheduler_threads);
std::string DescribeQueryOptions(const accordion::QueryOptions& options);

// --- tracing -----------------------------------------------------------------

/// Spans kept in memory and written as Chrome trace-event JSON at the end of
/// a run. Every span of one query carries the same `trace_id`.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int64_t NewId() { return next_id_.fetch_add(1); }

  struct Record {
    std::string name;
    int64_t start_us = 0;
    int64_t end_us = 0;
    int64_t id = 0;
    int64_t parent = 0;
    int64_t trace_id = 0;
    int tid = 0;
  };
  void Add(Record record);
  size_t size() const;
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const;

 private:
  const bool enabled_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// Times one call; when the tracer is enabled it also records the span.
/// The timing is taken in both modes so traced and untraced runs execute
/// the same code apart from the recording.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t trace_id, int64_t parent = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in microseconds.
  double End();
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t trace_id_;
  int64_t parent_;
  int64_t id_ = 0;
  int64_t start_us_;
  int64_t end_us_ = -1;
};

// --- metrics -----------------------------------------------------------------

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The metric's value, 0 when it was never set.
  double Value(const std::string& name) const;
  /// "name value unit" lines for humans.
  void Print(const char* heading) const;
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// --- output checks -----------------------------------------------------------

/// Order-insensitive, rounding-stable digest of a result: the sum of row
/// hashes, with doubles rounded to six significant digits before hashing.
uint64_t DigestPages(const std::vector<PagePtr>& pages, int64_t* rows);

/// Expected row count and digest per query key, from expected.txt.
class Expected {
 public:
  bool Load(const std::string& path, std::string* error);
  /// True when `key` is recorded with exactly these values. A mismatch or
  /// a missing key is reported on stderr.
  bool Check(const std::string& key, int64_t rows, uint64_t digest) const;

 private:
  std::map<std::string, std::pair<int64_t, uint64_t>> entries_;
};
std::string HexDigest(uint64_t digest);

// --- query runner ------------------------------------------------------------

struct QueryRun {
  bool ok = false;
  std::string error;
  QueryHandlePtr handle;
  double latency_ms = 0;      // Execute call to end of stream
  double execute_ms = 0;      // Session::Execute
  double first_page_ms = 0;   // Execute return to first page (or end)
  double drain_ms = 0;        // first page to end of stream
  int64_t end_us = 0;         // NowMicros at the end of the stream
  int64_t rows = 0;
  uint64_t digest = 0;
  int64_t prefetches = 0;
  int64_t prefetch_hits = 0;
};

using SubmitFn = std::function<Result<QueryHandlePtr>()>;

/// Submits through `submit`, streams the result through a ResultCursor and
/// digests it. Spans: session.execute, cursor.first_page, cursor.drain.
QueryRun RunQuery(const SubmitFn& submit, Tracer* tracer, int64_t trace_id,
                  int64_t parent_span);

// --- cluster set-up ----------------------------------------------------------

/// Builds the cluster `reps` times (construction plus one warm-up query),
/// keeping only the last; each build's seconds go to `*setup_seconds`.
/// Returns null if a warm-up query fails.
std::unique_ptr<AccordionCluster> SetUpCluster(
    const AccordionCluster::Options& options, int reps, Tracer* tracer,
    std::vector<double>* setup_seconds);

// --- runtime-information sampling --------------------------------------------

/// Samples a query's Snapshot on its own thread until the query reaches a
/// terminal state or Stop() is called.
class QuerySampler {
 public:
  struct Sample {
    int64_t at_us = 0;
    bool terminal = false;
    std::map<int, int> dop;             // stage -> task count
    std::map<int, bool> finished;       // stage -> all tasks finished
    std::map<int, int64_t> scan_rows;   // stage -> rows scanned so far
  };

  QuerySampler(accordion::Coordinator* coordinator, std::string query_id,
               int64_t period_us, Tracer* tracer, int64_t trace_id);
  ~QuerySampler() { Stop(); }
  QuerySampler(const QuerySampler&) = delete;
  QuerySampler& operator=(const QuerySampler&) = delete;

  void Stop();
  /// Rows `stage` had scanned at the latest sample (0 before the first).
  int64_t ScannedRows(int stage) const;
  std::vector<Sample> samples() const;

  /// `at_us`: when the snapshot was taken (NowMicros).
  static Sample FromSnapshot(const QuerySnapshot& snapshot, int64_t at_us);
  /// Sum over running stages of task count x time between samples.
  static double TaskSeconds(const std::vector<Sample>& samples);

 private:
  void Loop();

  accordion::Coordinator* coordinator_;
  std::string query_id_;
  int64_t period_us_;
  Tracer* tracer_;
  int64_t trace_id_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mutex_;
  std::vector<Sample> samples_;
  std::thread thread_;  // declared last: started after the members it uses
};

// --- engine-wide counters ----------------------------------------------------

/// Per-query counters summed from end-of-query snapshots.
struct ExecTotals {
  int64_t queries = 0;
  int64_t processed_rows = 0;
  int64_t output_bytes = 0;
  int64_t scan_rows = 0;
  int64_t hash_build_us_max = 0;
  int64_t peak_build_bytes_max = 0;
  int64_t spill_bytes = 0;
  int64_t rpc_retries = 0;
  std::vector<double> initial_schedule_ms;
  std::vector<double> stage_qerrors;

  void Absorb(const QuerySnapshot& snapshot);
  void Merge(const ExecTotals& other);
};

/// Rows per stage the optimizer estimated, read from Session::Explain's
/// JSON (first estimate in each stage's plan tree, preorder).
std::map<int, double> EstimatedStageRows(const std::string& explain_json);

/// Cumulative governor consumption over every worker and storage node.
struct GovernorTotals {
  double cpu_core_seconds = 0;
  double nic_bytes = 0;
};
GovernorTotals ReadGovernors(AccordionCluster* cluster);

/// Per-layer probes shared by every traced run: standalone lineitem and
/// orders generator drains at SF 0.1, and StorageService::OpenSplit drains
/// of lineitem splits on the cluster's own storage tier.
void ProbeStorage(AccordionCluster* cluster, Tracer* tracer, Metrics* layer);
/// Times ParseSqlQuery and AnalyzeSqlWithReport over `sql_texts`
/// (medians); zeros when the workload bypasses the SQL layer.
void ProbeSql(const accordion::Catalog& catalog,
              const std::vector<std::string>& sql_texts, Tracer* tracer,
              Metrics* layer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
