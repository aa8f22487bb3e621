// elastic-switch: Q2J (lineitem JOIN orders, count) on one native SF 0.25
// cluster. The join stage starts at DOP 1 and is switched to DOP 2 and
// then DOP 4 through SetStageDop when the lineitem scan passes seeded
// fractions of the table's rows: the paper's mid-query DOP switch on real
// compute.
#include <cstdio>

#include "common/clock.h"
#include "common/random.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kJoinStage = 1;
constexpr int64_t kSamplePeriodUs = 20000;
constexpr int64_t kRateWindowUs = 500000;  // rate-before-switch window

/// Lineitem rows scanned per second over the samples in [from_us, to_us].
double ScanRate(const std::vector<QuerySampler::Sample>& samples, int stage,
                int64_t from_us, int64_t to_us) {
  const QuerySampler::Sample* first = nullptr;
  const QuerySampler::Sample* last = nullptr;
  for (const auto& s : samples) {
    if (s.at_us < from_us || s.at_us > to_us) continue;
    if (first == nullptr) first = &s;
    last = &s;
  }
  if (first == nullptr || last == first) return 0;
  double rows = static_cast<double>(last->scan_rows.at(stage) -
                                    first->scan_rows.at(stage));
  return rows / (static_cast<double>(last->at_us - first->at_us) * 1e-6);
}

}  // namespace

void RunElasticSwitch(const RunArgs& args, const Expected& expected,
                      RunResult* result) {
  Tracer* tracer = &result->tracer;
  AccordionCluster::Options options = NativePreset(kElasticScaleFactor, 4, 4);
  accordion::QueryOptions query_options;
  query_options.stage_dop = 1;  // the join stage starts at DOP 1
  query_options.task_dop = 1;
  query_options.stage_dop_overrides[2] = 2;  // lineitem scan
  query_options.stage_dop_overrides[3] = 2;  // orders scan

  std::vector<double> setup_seconds;
  auto cluster = SetUpCluster(options, kSetupReps, tracer, &setup_seconds);
  if (cluster == nullptr) {
    result->setup_ok = false;
    return;
  }
  // About 1 s per query; the query count is fixed by --seconds.
  const int queries = std::max(1, args.seconds);
  result->config_json =
      "{\"workload\":\"elastic-switch\",\"seed\":" + std::to_string(args.seed) +
      ",\"clients\":1,\"loop\":\"closed\",\"queries\":" +
      std::to_string(queries) +
      ",\"switches\":[[0.20,2],[0.45,4]],\"trigger_jitter\":0.05,"
      "\"cluster\":" +
      DescribeOptions("native", options, cluster->scheduler()->num_threads()) +
      ",\"query\":" + DescribeQueryOptions(query_options) + "}";
  accordion::Coordinator* coordinator = cluster->coordinator();
  Session session(coordinator);
  accordion::PlanNodePtr plan = accordion::TpchQ2JPlan(coordinator->catalog());
  accordion::Random rng(args.seed);
  const double lineitem_rows = static_cast<double>(
      accordion::TpchRowCount("lineitem", kElasticScaleFactor));

  LayerData layer;
  MeasureStart start = BeginMeasure(cluster.get());
  ThreadCountSampler threads(args.trace);

  std::vector<Completed> done;
  const int64_t start_us = accordion::NowMicros();
  for (int q = 0; q < queries; ++q) {
    struct Step {
      double at_fraction;
      int dop;
    };
    const Step steps[] = {{0.20 + 0.05 * rng.NextDouble(), 2},
                          {0.45 + 0.05 * rng.NextDouble(), 4}};
    int64_t trace_id = tracer->NewId();
    Span query_span(tracer, "query", trace_id);
    ++result->attempted;
    bool ok = true;

    Span execute(tracer, "session.execute", trace_id, query_span.id());
    auto handle = session.Execute(plan, query_options);
    layer.execute_ms.push_back(execute.End() / 1000.0);
    if (!handle.ok()) {
      ++result->failed;
      done.push_back({accordion::NowMicros(), query_span.End() / 1000.0, 0});
      std::fprintf(stderr, "Q2J submit failed: %s\n",
                   handle.status().ToString().c_str());
      continue;
    }
    QuerySampler sampler(coordinator, (*handle)->id(), kSamplePeriodUs, tracer,
                         trace_id);
    int scan_stage = -1;
    if (auto first = (*handle)->Snapshot(); first.ok()) {
      for (const auto& stage : first->stages) {
        if (stage.scan_table == "lineitem") scan_stage = stage.stage_id;
      }
    }
    for (const Step& step : steps) {
      const int64_t trigger_rows =
          static_cast<int64_t>(step.at_fraction * lineitem_rows);
      while (scan_stage >= 0 &&
             sampler.ScannedRows(scan_stage) < trigger_rows &&
             !(*handle)->Finished()) {
        accordion::SleepForMicros(2000);
      }
      auto before = (*handle)->Snapshot();
      int64_t before_us = accordion::NowMicros();
      accordion::DopSwitchReport report;
      Span span(tracer, "coordinator.set_stage_dop", trace_id, query_span.id());
      accordion::Status status =
          (*handle)->SetStageDop(kJoinStage, step.dop, &report);
      double switch_ms = span.End() / 1000.0;
      auto after = (*handle)->Snapshot();
      int64_t after_us = accordion::NowMicros();
      if (!status.ok() || scan_stage < 0) {
        ok = false;
        std::fprintf(stderr, "switch to DOP %d failed: %s\n", step.dop,
                     status.ToString().c_str());
        break;
      }
      layer.switch_ms.push_back(switch_ms);
      layer.switch_shuffle_ms.push_back(report.shuffle_seconds * 1000.0);
      layer.switch_build_ms.push_back(report.build_seconds * 1000.0);
      if (before.ok() && after.ok()) {
        auto b = QuerySampler::FromSnapshot(*before, before_us);
        auto a = QuerySampler::FromSnapshot(*after, after_us);
        double during = ScanRate({b, a}, scan_stage, b.at_us, a.at_us);
        double prior = ScanRate(sampler.samples(), scan_stage,
                                b.at_us - kRateWindowUs, b.at_us);
        if (prior > 0) layer.switch_rate_ratio.push_back(during / prior);
      }
    }

    accordion::ResultCursor cursor = (*handle)->Cursor();
    Span drain(tracer, "cursor.drain", trace_id, query_span.id());
    auto pages = cursor.Drain();
    layer.drain_ms.push_back(drain.End() / 1000.0);
    double latency_ms = query_span.End() / 1000.0;
    int64_t end_us = accordion::NowMicros();
    sampler.Stop();
    done.push_back(
        {end_us, latency_ms, QuerySampler::TaskSeconds(sampler.samples())});
    if (!pages.ok()) {
      ok = false;
      std::fprintf(stderr, "Q2J failed: %s\n",
                   pages.status().ToString().c_str());
    } else {
      int64_t rows = 0;
      uint64_t digest = DigestPages(*pages, &rows);
      if (!expected.Check(Q2JKey(kElasticScaleFactor), rows, digest)) {
        ok = false;
        result->correct = false;
      }
    }
    if (!ok) ++result->failed;
    if (auto snapshot = (*handle)->Snapshot(); snapshot.ok()) {
      layer.exec.Absorb(*snapshot);
    }
  }
  layer.threads_max = threads.Stop();

  // One chunk per query: each end-to-end metric is a median over queries.
  EmitEndToEnd(setup_seconds, done, start_us, queries, result);
  result->named.Set("elastic_query_s",
                    result->named.Value("query_p50_ms") / 1000.0, "s");
  result->named.Set("dop_switch_ms", Median(layer.switch_ms), "ms");

  FinishLayer(cluster.get(), start, queries, {}, args.trace, &layer,
              result);
}

}  // namespace perfbench
