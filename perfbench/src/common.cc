#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/clock.h"
#include "exec/scheduler.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "tpch/tpch.h"

namespace perfbench {

using accordion::NowMicros;

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::max_element(values.begin(), values.end());
}

double TailLatency(const std::vector<double>& values, double* q_used) {
  double n = static_cast<double>(values.size());
  double q = std::min(0.99, 1.0 - 10.0 / std::max(n, 1.0));
  if (q <= 0.5) q = 1.0;  // too few samples for any tail: report the max
  *q_used = q;
  return Percentile(values, q);
}

// --- process counters --------------------------------------------------------

ProcStatus ReadProcStatus() {
  ProcStatus status;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    long long value = 0;
    if (std::sscanf(line.c_str(), "VmRSS: %lld kB", &value) == 1) {
      status.rss_mb = static_cast<double>(value) / 1024.0;
    } else if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &value) == 1) {
      status.hwm_mb = static_cast<double>(value) / 1024.0;
    } else if (std::sscanf(line.c_str(), "Threads: %lld", &value) == 1) {
      status.threads = static_cast<int>(value);
    }
  }
  return status;
}

// --- presets -----------------------------------------------------------------

AccordionCluster::Options NativePreset(double scale_factor, int workers,
                                       int storage_nodes) {
  AccordionCluster::Options options;
  options.num_workers = workers;
  options.num_storage_nodes = storage_nodes;
  options.scale_factor = scale_factor;
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  constexpr double kUnreachable = 1e18;  // bytes/s and bytes
  for (accordion::NodeConfig* node :
       {&options.worker_node, &options.storage_node}) {
    node->nic_bytes_per_sec = kUnreachable;
    node->nic_burst_bytes = kUnreachable;
  }
  return options;
}

AccordionCluster::Options PaperClusterPreset(double scale_factor,
                                             double cost_scale, int workers,
                                             int storage_nodes) {
  AccordionCluster::Options options;
  options.num_workers = workers;
  options.num_storage_nodes = storage_nodes;
  options.scale_factor = scale_factor;
  options.engine.cost.scale = cost_scale;
  options.engine.memory.initial_buffer_bytes = 2 * 1024;
  options.engine.memory.max_buffer_bytes = 16 * 1024;
  return options;
}

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string NodeJson(const accordion::NodeConfig& node) {
  return "{\"cpu_cores\":" + Num(node.cpu_cores) +
         ",\"cpu_burst_seconds\":" + Num(node.cpu_burst_seconds) +
         ",\"nic_bytes_per_sec\":" + Num(node.nic_bytes_per_sec) +
         ",\"nic_burst_bytes\":" + Num(node.nic_burst_bytes) + "}";
}

}  // namespace

std::string DescribeOptions(const std::string& preset,
                            const AccordionCluster::Options& options,
                            int scheduler_threads) {
  const accordion::EngineConfig& e = options.engine;
  const accordion::CostModel& c = e.cost;
  std::ostringstream out;
  out << "{\"preset\":\"" << preset << "\",\"scale_factor\":"
      << Num(options.scale_factor) << ",\"workers\":" << options.num_workers
      << ",\"storage_nodes\":" << options.num_storage_nodes
      << ",\"worker_node\":" << NodeJson(options.worker_node)
      << ",\"storage_node\":" << NodeJson(options.storage_node)
      << ",\"engine\":{\"batch_rows\":" << e.batch_rows
      << ",\"rpc_latency_ms\":" << Num(e.rpc_latency_ms)
      << ",\"cost\":{\"scale\":" << Num(c.scale) << ",\"scan_us\":"
      << Num(c.scan_us) << ",\"filter_us\":" << Num(c.filter_us)
      << ",\"project_us\":" << Num(c.project_us) << ",\"hash_build_us\":"
      << Num(c.hash_build_us) << ",\"probe_us\":" << Num(c.probe_us)
      << ",\"probe_output_us\":" << Num(c.probe_output_us)
      << ",\"partial_agg_us\":" << Num(c.partial_agg_us)
      << ",\"final_agg_us\":" << Num(c.final_agg_us) << ",\"topn_us\":"
      << Num(c.topn_us) << ",\"exchange_us\":" << Num(c.exchange_us)
      << ",\"local_exchange_us\":" << Num(c.local_exchange_us)
      << ",\"task_output_us\":" << Num(c.task_output_us)
      << ",\"shuffle_executor_us\":" << Num(c.shuffle_executor_us) << "}"
      << ",\"memory\":{\"initial_buffer_bytes\":"
      << e.buffer_initial_bytes() << ",\"max_buffer_bytes\":"
      << e.buffer_max_bytes() << ",\"fixed_buffer_bytes\":"
      << e.buffer_fixed_bytes() << ",\"worker_memory_bytes\":"
      << e.memory.worker_memory_bytes << ",\"query_build_bytes\":"
      << e.memory.query_build_bytes << ",\"spill_chunk_bytes\":"
      << e.memory.spill_chunk_bytes << "}"
      << ",\"join\":{\"probe\":\""
      << (e.join.probe == accordion::ProbePathMode::kAuto ? "auto" : "scalar")
      << "\",\"radix_min_build_rows\":" << e.join.radix_min_build_rows
      << ",\"radix_partition_rows\":" << e.join.radix_partition_rows
      << ",\"radix_max_bits\":" << e.join.radix_max_bits
      << ",\"spill_partition_bits\":" << e.join.spill_partition_bits
      << ",\"max_spill_recursion\":" << e.join.max_spill_recursion << "}"
      << ",\"buffer_resize_interval_ms\":" << e.buffer_resize_interval_ms
      << ",\"shuffle_executors\":" << e.shuffle_executors
      << ",\"max_pages_per_fetch\":" << e.max_pages_per_fetch
      << ",\"partial_agg_flush_groups\":" << e.partial_agg_flush_groups
      << ",\"radix_agg_min_groups\":" << e.radix_agg_min_groups
      << ",\"driver_idle_sleep_us\":" << e.driver_idle_sleep_us
      << ",\"elastic_buffers\":" << (e.elastic_buffers ? "true" : "false")
      << ",\"health_check_interval_ms\":" << e.health_check_interval_ms
      << ",\"scheduler_threads\":" << scheduler_threads
      << ",\"scheduler_quantum_us\":" << e.scheduler_quantum_us
      << ",\"max_concurrent_queries\":" << e.max_concurrent_queries
      << ",\"null_injection_rate\":" << Num(e.null_injection_rate)
      << ",\"fault_injector\":" << (e.fault_injector ? "true" : "false")
      << "}}";
  return out.str();
}

std::string DescribeQueryOptions(const accordion::QueryOptions& options) {
  std::ostringstream out;
  out << "{\"stage_dop\":" << options.stage_dop
      << ",\"task_dop\":" << options.task_dop << ",\"stage_dop_overrides\":{";
  bool first = true;
  for (const auto& [stage, dop] : options.stage_dop_overrides) {
    out << (first ? "" : ",") << "\"" << stage << "\":" << dop;
    first = false;
  }
  out << "},\"optimizer\":\""
      << (options.optimizer.mode == accordion::OptimizerMode::kOff ? "off"
                                                                   : "on")
      << "\"}";
  return out.str();
}

// --- tracing -----------------------------------------------------------------

namespace {
int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local int index = next.fetch_add(1);
  return index;
}
}  // namespace

void Tracer::Add(Record record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata_json) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t origin = records_.empty() ? 0 : records_.front().start_us;
  for (const Record& r : records_) origin = std::min(origin, r.start_us);
  std::fprintf(out, "{\"metadata\":%s,\"displayTimeUnit\":\"ms\","
                    "\"traceEvents\":[\n",
               metadata_json.c_str());
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%lld,\"dur\":%lld,\"args\":{\"span\":%lld,"
                 "\"parent\":%lld,\"query\":%lld}}%s\n",
                 r.name.c_str(), r.tid,
                 static_cast<long long>(r.start_us - origin),
                 static_cast<long long>(r.end_us - r.start_us),
                 static_cast<long long>(r.id),
                 static_cast<long long>(r.parent),
                 static_cast<long long>(r.trace_id),
                 i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

Span::Span(Tracer* tracer, const char* name, int64_t trace_id, int64_t parent)
    : tracer_(tracer),
      name_(name),
      trace_id_(trace_id),
      parent_(parent),
      start_us_(NowMicros()) {
  if (tracer_ != nullptr && tracer_->enabled()) id_ = tracer_->NewId();
}

double Span::End() {
  if (end_us_ < 0) {
    end_us_ = NowMicros();
    if (id_ != 0) {
      tracer_->Add({name_, start_us_, end_us_, id_, parent_, trace_id_,
                    ThreadIndex()});
    }
  }
  return static_cast<double>(end_us_ - start_us_);
}

// --- metrics -----------------------------------------------------------------

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

double Metrics::Value(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return item.second.first;
  }
  return 0;
}

void Metrics::Print(const char* heading) const {
  std::printf("%s\n", heading);
  for (const auto& [name, value_unit] : items_) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), value_unit.first,
                value_unit.second.c_str());
  }
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, value_unit] = items_[i];
    double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    out += (i > 0 ? ", \"" : "\"") + name + "\": {\"value\": " +
           [&] {
             char buf[64];
             std::snprintf(buf, sizeof(buf), "%.17g", v);
             return std::string(buf);
           }() +
           ", \"unit\": \"" + value_unit.second + "\"}";
  }
  return out + "}";
}

// --- output checks -----------------------------------------------------------

namespace {

uint64_t Mix(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t HashBytes(const char* data, size_t size) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

uint64_t HashCell(const accordion::Column& column, int64_t row) {
  using accordion::DataType;
  if (column.IsNull(row)) return 0x6E756C6CULL;
  switch (column.type()) {
    case DataType::kDouble: {
      double v = column.DoubleAt(row);
      if (v == 0) v = 0;  // folds -0.0 into 0.0
      char buf[48];
      int n = std::snprintf(buf, sizeof(buf), "%.5e", v);
      return HashBytes(buf, static_cast<size_t>(n));
    }
    case DataType::kString: {
      const std::string& s = column.StrAt(row);
      return HashBytes(s.data(), s.size());
    }
    default:
      return Mix(static_cast<uint64_t>(column.IntAt(row)));
  }
}

}  // namespace

uint64_t DigestPages(const std::vector<PagePtr>& pages, int64_t* rows) {
  uint64_t digest = 0;
  int64_t count = 0;
  for (const PagePtr& page : pages) {
    if (page == nullptr || page->IsEnd()) continue;
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      uint64_t h = 0x243F6A8885A308D3ULL;
      for (int c = 0; c < page->num_columns(); ++c) {
        h = Mix(h ^ HashCell(page->column(c), r));
      }
      digest += h;
    }
    count += page->num_rows();
  }
  *rows = count;
  return digest;
}

std::string HexDigest(uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

bool Expected::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, digest;
    long long rows = 0;
    if (!(fields >> key >> rows >> digest)) {
      *error = "malformed line in " + path + ": " + line;
      return false;
    }
    entries_[key] = {rows, std::stoull(digest, nullptr, 16)};
  }
  return true;
}

bool Expected::Check(const std::string& key, int64_t rows,
                     uint64_t digest) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    std::fprintf(stderr, "output check: no expected entry for %s\n",
                 key.c_str());
    return false;
  }
  if (it->second.first == rows && it->second.second == digest) return true;
  std::fprintf(stderr,
               "output check: %s returned %lld rows / %s, expected %lld / %s\n",
               key.c_str(), static_cast<long long>(rows),
               HexDigest(digest).c_str(),
               static_cast<long long>(it->second.first),
               HexDigest(it->second.second).c_str());
  return false;
}

// --- query runner ------------------------------------------------------------

QueryRun RunQuery(const SubmitFn& submit, Tracer* tracer, int64_t trace_id,
                  int64_t parent_span) {
  QueryRun run;
  Span execute(tracer, "session.execute", trace_id, parent_span);
  auto handle = submit();
  run.execute_ms = execute.End() / 1000.0;
  if (!handle.ok()) {
    run.error = handle.status().ToString();
    run.latency_ms = run.execute_ms;
    return run;
  }
  run.handle = *handle;
  accordion::ResultCursor cursor = run.handle->Cursor();
  std::vector<PagePtr> pages;

  Span first(tracer, "cursor.first_page", trace_id, parent_span);
  auto page = cursor.Next();
  run.first_page_ms = first.End() / 1000.0;
  Span drain(tracer, "cursor.drain", trace_id, parent_span);
  while (page.ok() && *page != nullptr) {
    pages.push_back(std::move(*page));
    page = cursor.Next();
  }
  run.drain_ms = drain.End() / 1000.0;
  run.end_us = NowMicros();
  run.latency_ms = run.execute_ms + run.first_page_ms + run.drain_ms;
  run.prefetches = cursor.prefetches_issued();
  run.prefetch_hits = cursor.prefetch_hits();
  if (!page.ok()) {
    run.error = page.status().ToString();
    return run;
  }
  run.digest = DigestPages(pages, &run.rows);
  run.ok = true;
  return run;
}

// --- set-up ------------------------------------------------------------------

std::unique_ptr<AccordionCluster> SetUpCluster(
    const AccordionCluster::Options& options, int reps, Tracer* tracer,
    std::vector<double>* setup_seconds) {
  std::unique_ptr<AccordionCluster> cluster;
  for (int r = 0; r < reps; ++r) {
    cluster.reset();  // tear the previous build down outside the timing
    int64_t trace_id = tracer->NewId();
    Span setup(tracer, "setup", trace_id);
    {
      Span construct(tracer, "setup.cluster", trace_id, setup.id());
      cluster = std::make_unique<AccordionCluster>(options);
    }
    Session session(cluster->coordinator());
    QueryRun warm = RunQuery(
        [&] { return session.Execute("SELECT count(*) FROM region"); }, tracer,
        trace_id, setup.id());
    if (!warm.ok) {
      std::fprintf(stderr, "warm-up query failed: %s\n", warm.error.c_str());
      return nullptr;
    }
    setup_seconds->push_back(setup.End() / 1e6);
  }
  return cluster;
}

// --- sampling ----------------------------------------------------------------

QuerySampler::QuerySampler(accordion::Coordinator* coordinator,
                           std::string query_id, int64_t period_us,
                           Tracer* tracer, int64_t trace_id)
    : coordinator_(coordinator),
      query_id_(std::move(query_id)),
      period_us_(period_us),
      tracer_(tracer),
      trace_id_(trace_id),
      thread_([this] { Loop(); }) {}

void QuerySampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

QuerySampler::Sample QuerySampler::FromSnapshot(const QuerySnapshot& snapshot,
                                                int64_t at_us) {
  Sample sample;
  sample.at_us = at_us;
  sample.terminal = snapshot.state != accordion::QueryState::kRunning;
  for (const auto& stage : snapshot.stages) {
    sample.dop[stage.stage_id] = stage.dop;
    sample.finished[stage.stage_id] = stage.finished;
    sample.scan_rows[stage.stage_id] = stage.scan_rows;
  }
  return sample;
}

void QuerySampler::Loop() {
  while (!stop_.load()) {
    Span span(tracer_, "coordinator.snapshot", trace_id_);
    auto snapshot = coordinator_->Snapshot(query_id_);
    span.End();
    if (snapshot.ok()) {
      Sample sample = FromSnapshot(*snapshot, NowMicros());
      bool terminal = sample.terminal;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_.push_back(std::move(sample));
      }
      if (terminal) break;
    }
    accordion::SleepForMicros(period_us_);
  }
}

int64_t QuerySampler::ScannedRows(int stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.empty()) return 0;
  auto rows = samples_.back().scan_rows.find(stage);
  return rows == samples_.back().scan_rows.end() ? 0 : rows->second;
}

std::vector<QuerySampler::Sample> QuerySampler::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

double QuerySampler::TaskSeconds(const std::vector<Sample>& samples) {
  double task_seconds = 0;
  for (size_t i = 1; i < samples.size(); ++i) {
    const Sample& prev = samples[i - 1];
    double dt = static_cast<double>(samples[i].at_us - prev.at_us) * 1e-6;
    int running_tasks = 0;
    for (const auto& [stage, dop] : prev.dop) {
      if (!prev.finished.at(stage)) running_tasks += dop;
    }
    task_seconds += running_tasks * dt;
  }
  return task_seconds;
}

// --- engine-wide counters ----------------------------------------------------

void ExecTotals::Absorb(const QuerySnapshot& snapshot) {
  ++queries;
  for (const auto& stage : snapshot.stages) {
    processed_rows += stage.processed_rows;
    output_bytes += stage.output_bytes;
    scan_rows += stage.scan_rows;
    hash_build_us_max = std::max(hash_build_us_max, stage.hash_build_us_max);
  }
  peak_build_bytes_max = std::max(peak_build_bytes_max,
                                  snapshot.peak_build_bytes);
  spill_bytes += snapshot.spill_bytes_written;
  rpc_retries += snapshot.rpc_retries;
  initial_schedule_ms.push_back(snapshot.initial_schedule_ms);
}

void ExecTotals::Merge(const ExecTotals& o) {
  queries += o.queries;
  processed_rows += o.processed_rows;
  output_bytes += o.output_bytes;
  scan_rows += o.scan_rows;
  hash_build_us_max = std::max(hash_build_us_max, o.hash_build_us_max);
  peak_build_bytes_max = std::max(peak_build_bytes_max, o.peak_build_bytes_max);
  spill_bytes += o.spill_bytes;
  rpc_retries += o.rpc_retries;
  initial_schedule_ms.insert(initial_schedule_ms.end(),
                             o.initial_schedule_ms.begin(),
                             o.initial_schedule_ms.end());
  stage_qerrors.insert(stage_qerrors.end(), o.stage_qerrors.begin(),
                       o.stage_qerrors.end());
}

std::map<int, double> EstimatedStageRows(const std::string& json) {
  // The Explain envelope is {"stages":[{"stage":N,...,"plan":{...}},...]};
  // each stage's first "estimated_rows" (preorder) is its output estimate.
  // A stage rooted at an unestimated partial aggregation or partial TopN
  // emits per-task partial state, which no estimate describes: skipped.
  std::map<int, double> out;
  const std::string stage_key = "{\"stage\":";
  const std::string kind_key = "\"kind\":\"";
  const std::string est_key = "\"estimated_rows\":";
  size_t pos = json.find(stage_key);
  while (pos != std::string::npos) {
    int stage = std::atoi(json.c_str() + pos + stage_key.size());
    size_t next = json.find(stage_key, pos + 1);
    size_t end = next == std::string::npos ? json.size() : next;
    size_t kind = json.find(kind_key, pos);
    size_t est = json.find(est_key, pos);
    if (kind < end && est < end) {
      size_t kind_begin = kind + kind_key.size();
      std::string root_kind =
          json.substr(kind_begin, json.find('"', kind_begin) - kind_begin);
      bool root_estimated = json.compare(json.find('"', kind_begin) + 1,
                                         est_key.size() + 1,
                                         "," + est_key) == 0;
      bool partial = root_kind == "PartialAggregation" || root_kind == "TopN";
      if (root_estimated || !partial) {
        out[stage] = std::atof(json.c_str() + est + est_key.size());
      }
    }
    pos = next;
  }
  return out;
}

GovernorTotals ReadGovernors(AccordionCluster* cluster) {
  GovernorTotals totals;
  for (int w = 0; w < cluster->num_workers(); ++w) {
    totals.cpu_core_seconds += cluster->worker(w)->cpu()->TotalConsumed();
    totals.nic_bytes += cluster->worker(w)->nic()->TotalConsumed();
  }
  for (int n = 0; n < cluster->storage()->num_nodes(); ++n) {
    totals.nic_bytes += cluster->storage()->nic(n)->TotalConsumed();
  }
  return totals;
}

// --- per-layer probes --------------------------------------------------------

void ProbeStorage(AccordionCluster* cluster, Tracer* tracer, Metrics* layer) {
  int64_t trace_id = tracer->NewId();
  // Standalone generator drains at a fixed SF so every workload reports
  // the same generator cost: three rounds over two splits per table.
  for (const char* table : {"lineitem", "orders"}) {
    std::vector<double> ns_per_row;
    for (int round = 0; round < 3; ++round) {
      int64_t rows = 0;
      Span span(tracer, "tpch.generate", trace_id);
      for (int split = 2 * round; split < 2 * round + 2; ++split) {
        accordion::TpchSplitGenerator gen(table, 0.1, split, 28);
        while (PagePtr page = gen.NextPage()) rows += page->num_rows();
      }
      ns_per_row.push_back(span.End() * 1000.0 / std::max<int64_t>(rows, 1));
    }
    layer->Set(std::string("tpch.gen_ns_per_row.") + table, Median(ns_per_row),
               "ns/row");
  }

  // StorageService::OpenSplit drains on the cluster's own storage tier,
  // NIC charging included: three lineitem splits read by worker 0.
  accordion::StorageService* storage = cluster->storage();
  double sf = cluster->coordinator()->scale_factor();
  int split_count = storage->num_nodes() * 7;
  std::vector<double> ns_per_row;
  for (int i = 0; i < 3; ++i) {
    accordion::SystemSplit split;
    split.table = "lineitem";
    split.split_index = i;
    split.split_count = split_count;
    split.storage_node_id = i % storage->num_nodes();
    split.scale_factor = sf;
    int64_t rows = 0;
    Span span(tracer, "storage.open_split", trace_id);
    auto source = storage->OpenSplit(split, cluster->worker(0)->nic());
    while (PagePtr page = source->Next()) rows += page->num_rows();
    ns_per_row.push_back(span.End() * 1000.0 / std::max<int64_t>(rows, 1));
  }
  layer->Set("storage.scan_ns_per_row", Median(ns_per_row), "ns/row");
}

void ProbeSql(const accordion::Catalog& catalog,
              const std::vector<std::string>& sql_texts, Tracer* tracer,
              Metrics* layer) {
  std::vector<double> parse_us;
  std::vector<double> analyze_us;
  int64_t trace_id = tracer->NewId();
  for (int rep = 0; rep < 5; ++rep) {
    for (const std::string& sql : sql_texts) {
      Span parse(tracer, "sql.parse", trace_id);
      auto query = accordion::ParseSqlQuery(sql);
      parse_us.push_back(parse.End());
      if (!query.ok()) continue;
      Span analyze(tracer, "sql.analyze", trace_id);
      auto plan = accordion::AnalyzeSqlWithReport(*query, catalog);
      analyze_us.push_back(analyze.End());
    }
  }
  layer->Set("sql.parse_us", Median(parse_us), "us");
  layer->Set("sql.analyze_us", Median(analyze_us), "us");
}

}  // namespace perfbench
