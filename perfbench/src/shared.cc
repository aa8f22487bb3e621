#include <algorithm>
#include <cstdio>

#include "common/clock.h"
#include "exec/scheduler.h"
#include "tpch/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace {
double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }
}  // namespace

void EmitLayerMetrics(const LayerData& d, Metrics* layer) {
  const ExecTotals& e = d.exec;
  double queries = static_cast<double>(std::max<int64_t>(e.queries, 1));
  layer->Set("optimizer.stage_qerror_p50", Median(e.stage_qerrors), "ratio");
  layer->Set("optimizer.stage_qerror_max", Max(e.stage_qerrors), "ratio");
  layer->Set("api.execute_ms", Median(d.execute_ms), "ms");
  layer->Set("api.first_page_ms", Median(d.first_page_ms), "ms");
  layer->Set("api.drain_ms", Median(d.drain_ms), "ms");
  layer->Set("api.prefetch_hit_ratio",
             Ratio(static_cast<double>(d.prefetch_hits),
                   static_cast<double>(d.prefetches)),
             "ratio");
  layer->Set("cluster.initial_schedule_ms", Median(e.initial_schedule_ms),
             "ms");
  layer->Set("cluster.rpcs_per_query", d.rpcs_per_query, "count");
  layer->Set("cluster.rpc_retries", static_cast<double>(e.rpc_retries),
             "count");
  layer->Set("cluster.retained_kb_per_query", d.retained_kb_per_query, "KB");
  layer->Set("cluster.dop_switch_ms", Median(d.switch_ms), "ms");
  layer->Set("cluster.switch_shuffle_ms", Median(d.switch_shuffle_ms), "ms");
  layer->Set("cluster.switch_build_ms", Median(d.switch_build_ms), "ms");
  layer->Set("cluster.switch_probe_rate_ratio", Median(d.switch_rate_ratio),
             "ratio");
  layer->Set("storage.scan_rows", static_cast<double>(e.scan_rows) / queries,
             "rows/query");
  layer->Set("exec.processed_rows",
             static_cast<double>(e.processed_rows) / queries, "rows/query");
  layer->Set("exec.output_mb",
             static_cast<double>(e.output_bytes) / 1e6 / queries, "MB/query");
  layer->Set("exec.hash_build_ms_max",
             static_cast<double>(e.hash_build_us_max) / 1000.0, "ms");
  layer->Set("exec.peak_build_mb",
             static_cast<double>(e.peak_build_bytes_max) / 1e6, "MB");
  layer->Set("exec.spill_mb", static_cast<double>(e.spill_bytes) / 1e6, "MB");
  layer->Set("exec.scheduler.residual_units",
             static_cast<double>(d.residual_units), "count");
  layer->Set("exec.scheduler.threads_max", d.threads_max, "count");
  layer->Set("tuner.estimate_us", Median(d.estimate_us), "us");
  layer->Set("tuner.dop_time_list_us", Median(d.dop_time_list_us), "us");
  layer->Set("tuner.prediction_error", Median(d.prediction_error), "ratio");
  layer->Set("tuner.actions", static_cast<double>(d.tuner_actions), "count");
  layer->Set("tuner.rejected_actions", static_cast<double>(d.tuner_rejected),
             "count");
  layer->Set("common.cpu_core_s", d.governors.cpu_core_seconds / queries,
             "s/query");
  layer->Set("common.nic_bytes", d.governors.nic_bytes / queries,
             "bytes/query");
}

void EmitEndToEnd(const std::vector<double>& setup_seconds,
                  std::vector<Completed> done, int64_t start_us, int chunks,
                  RunResult* result) {
  std::sort(done.begin(), done.end(),
            [](const Completed& a, const Completed& b) {
              return a.end_us < b.end_us;
            });
  size_t n = done.size();
  size_t groups = std::clamp<size_t>(static_cast<size_t>(chunks), 1,
                                     std::max<size_t>(n, 1));
  std::vector<double> p50, geomean, tail, qps, task_seconds;
  double tail_q = 0;
  int64_t group_start_us = start_us;
  for (size_t g = 0; g < groups; ++g) {
    size_t begin = n * g / groups;
    size_t end = n * (g + 1) / groups;
    if (begin == end) continue;
    std::vector<double> latency, tasks;
    for (size_t i = begin; i < end; ++i) {
      latency.push_back(done[i].latency_ms);
      tasks.push_back(done[i].task_seconds);
    }
    p50.push_back(Median(latency));
    geomean.push_back(GeoMean(latency));
    tail.push_back(TailLatency(latency, &tail_q));
    double wall_s = static_cast<double>(done[end - 1].end_us - group_start_us);
    qps.push_back(wall_s > 0 ? latency.size() / (wall_s * 1e-6) : 0);
    task_seconds.push_back(Sum(tasks) / static_cast<double>(tasks.size()));
    group_start_us = done[end - 1].end_us;
  }
  Metrics& e2e = result->e2e;
  e2e.Set("setup_s", Median(setup_seconds), "s");
  e2e.Set("peak_rss_mb", ReadProcStatus().hwm_mb, "MB");
  e2e.Set("query_geomean_ms", Median(geomean), "ms");
  e2e.Set("throughput_qps", Median(qps), "1/s");
  e2e.Set("task_seconds", Median(task_seconds), "s");
  // The median and the tail are reported beside the gated metrics, not
  // among them: short queries wait on 2 ms result polls, so their latency
  // is multimodal and its median and p99 jump between modes with machine
  // noise far more than any bound allows; the geometric mean moves smoothly.
  Metrics& named = result->named;
  named.Set("ops", static_cast<double>(n), "count");
  named.Set("chunks", static_cast<double>(groups), "count");
  named.Set("queries_per_chunk", static_cast<double>(n) / groups, "count");
  named.Set("query_p50_ms", Median(p50), "ms");
  named.Set("query_tail_ms", Median(tail), "ms");
  named.Set("query_tail_percentile", tail_q * 100, "%");
  result->layer.Set("api.query_p50_ms", Median(p50), "ms");
  result->layer.Set("api.query_tail_ms", Median(tail), "ms");
}

ThreadCountSampler::ThreadCountSampler(bool enabled) {
  if (!enabled) return;
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      int threads = ReadProcStatus().threads;
      if (threads > max_.load()) max_.store(threads);
      accordion::SleepForMillis(20);
    }
  });
}

ThreadCountSampler::~ThreadCountSampler() { Stop(); }

int ThreadCountSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return max_.load();
}

MeasureStart BeginMeasure(AccordionCluster* cluster) {
  MeasureStart start;
  start.rss_mb = ReadProcStatus().rss_mb;
  start.rpcs = cluster->coordinator()->total_rpc_requests();
  start.governors = ReadGovernors(cluster);
  return start;
}

void FinishLayer(AccordionCluster* cluster, const MeasureStart& start,
                 int64_t queries, const std::vector<std::string>& sql_texts,
                 bool trace, LayerData* layer, RunResult* result) {
  double per_query = 1.0 / static_cast<double>(std::max<int64_t>(queries, 1));
  // Give in-flight retirements a moment, so only units that never retire
  // are counted.
  accordion::SleepForMillis(200);
  layer->residual_units = cluster->scheduler()->num_units();
  layer->retained_kb_per_query =
      (ReadProcStatus().rss_mb - start.rss_mb) * 1024.0 * per_query;
  layer->rpcs_per_query =
      static_cast<double>(cluster->coordinator()->total_rpc_requests() -
                          start.rpcs) *
      per_query;
  GovernorTotals now = ReadGovernors(cluster);
  layer->governors.cpu_core_seconds =
      now.cpu_core_seconds - start.governors.cpu_core_seconds;
  layer->governors.nic_bytes = now.nic_bytes - start.governors.nic_bytes;
  if (!trace) return;
  ProbeSql(cluster->coordinator()->catalog(), sql_texts, &result->tracer,
           &result->layer);
  EmitLayerMetrics(*layer, &result->layer);
  ProbeStorage(cluster, &result->tracer, &result->layer);
}

void AddStageQErrors(const std::map<int, double>& estimates,
                     const QuerySnapshot& snapshot, ExecTotals* totals) {
  for (const auto& stage : snapshot.stages) {
    auto it = estimates.find(stage.stage_id);
    if (it == estimates.end()) continue;
    double estimated = std::max(it->second, 1.0);
    double actual = std::max(static_cast<double>(stage.output_rows), 1.0);
    totals->stage_qerrors.push_back(std::max(estimated / actual,
                                             actual / estimated));
  }
}

double StaticTaskSeconds(const QuerySnapshot& snapshot, double latency_s) {
  int tasks = 0;
  for (const auto& stage : snapshot.stages) tasks += stage.dop;
  return tasks * latency_s;
}

std::string Q2JKey(double scale_factor) {
  char key[32];
  std::snprintf(key, sizeof(key), "q2j/sf%g", scale_factor);
  return key;
}

std::vector<ShortQuery> ShortQueries(double scale_factor) {
  int64_t suppliers = accordion::TpchRowCount("supplier", scale_factor);
  return {
      {"short/region_count", "SELECT count(*) AS n FROM region"},
      {"short/nation_region",
       "SELECT r_name, count(*) AS n FROM nation, region "
       "WHERE n_regionkey = r_regionkey GROUP BY r_name"},
      {"short/supplier_nation",
       "SELECT count(*) AS n FROM supplier, nation "
       "WHERE s_nationkey = n_nationkey AND n_regionkey = 3"},
      {"short/nation_lookup",
       "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = ?", 0, 24},
      {"short/supplier_lookup",
       "SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = ?", 1,
       suppliers},
  };
}

}  // namespace perfbench
