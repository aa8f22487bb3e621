// deadline-tuner: Q2J under the AutoTuner's DOP monitor with an 8 s
// deadline, on the simulated paper cluster (SF 0.01, 4+4 nodes, cost scale
// 6). The tuner, the predictor and the resource governors only do work
// here.
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/clock.h"
#include "tpch/queries.h"
#include "tuner/auto_tuner.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kDeadlineSeconds = 8.0;
constexpr int kKnobStage = 1;
constexpr int kMaxDop = 8;
constexpr int64_t kMonitorPeriodMs = 500;
constexpr int64_t kSamplePeriodUs = 100000;
constexpr int64_t kPredictorPeriodMs = 500;

/// The benchmark's own Predictor, polled beside the tuner (traced runs):
/// times EstimateRemaining and DopTimeList and keeps each DOP-time list.
class PredictorProbe {
 public:
  struct Prediction {
    int64_t at_us = 0;
    std::vector<accordion::Predictor::DopTime> list;
  };

  PredictorProbe(accordion::Coordinator* coordinator, std::string query_id,
                 Tracer* tracer, int64_t trace_id, LayerData* layer)
      : predictor_(coordinator),
        query_id_(std::move(query_id)),
        tracer_(tracer),
        trace_id_(trace_id),
        layer_(layer),
        thread_([this] { Loop(); }) {}
  ~PredictorProbe() { Stop(); }
  PredictorProbe(const PredictorProbe&) = delete;
  PredictorProbe& operator=(const PredictorProbe&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Predicted remaining seconds at `dop` from the last list taken before
  /// `at_us`; negative when there is none.
  double PredictedAt(int64_t at_us, int dop) const {
    double predicted = -1;
    for (const Prediction& p : predictions_) {
      if (p.at_us > at_us) break;
      for (const auto& entry : p.list) {
        if (entry.dop == dop) predicted = entry.predicted_seconds;
      }
    }
    return predicted;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      Span estimate(tracer_, "predictor.estimate_remaining", trace_id_);
      auto remaining = predictor_.EstimateRemaining(query_id_, kKnobStage);
      double estimate_us = estimate.End();
      Span list_span(tracer_, "predictor.dop_time_list", trace_id_);
      auto list = predictor_.DopTimeList(query_id_, kKnobStage, kMaxDop);
      double list_us = list_span.End();
      if (remaining.ok() && list.ok()) {
        layer_->estimate_us.push_back(estimate_us);
        layer_->dop_time_list_us.push_back(list_us);
        predictions_.push_back({accordion::NowMicros(), *list});
      }
      accordion::SleepForMillis(kPredictorPeriodMs);
    }
  }

  accordion::Predictor predictor_;
  std::string query_id_;
  Tracer* tracer_;
  int64_t trace_id_;
  LayerData* layer_;  // written by the probe thread until Stop()
  std::vector<Prediction> predictions_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: started after the members it uses
};

}  // namespace

void RunDeadlineTuner(const RunArgs& args, const Expected& expected,
                      RunResult* result) {
  Tracer* tracer = &result->tracer;
  AccordionCluster::Options options =
      PaperClusterPreset(kTunerScaleFactor, 6.0, 4, 4);
  accordion::SessionOptions session_options;
  session_options.query_defaults.stage_dop = 2;
  session_options.query_defaults.task_dop = 1;

  std::vector<double> setup_seconds;
  auto cluster = SetUpCluster(options, kSetupReps, tracer, &setup_seconds);
  if (cluster == nullptr) {
    result->setup_ok = false;
    return;
  }
  // One tuned query takes about 7.6 s; the count is fixed by --seconds.
  const int queries = std::max(1, args.seconds / 8);
  result->config_json =
      "{\"workload\":\"deadline-tuner\",\"seed\":" +
      std::to_string(args.seed) +
      ",\"clients\":1,\"loop\":\"closed\",\"queries\":" +
      std::to_string(queries) +
      ",\"tuner\":{\"knob_stage\":1,\"deadline_s\":8,\"max_dop\":8,"
      "\"period_ms\":500},\"cluster\":" +
      DescribeOptions("paper-cluster", options,
                      cluster->scheduler()->num_threads()) +
      ",\"query\":" + DescribeQueryOptions(session_options.query_defaults) +
      "}";
  accordion::Coordinator* coordinator = cluster->coordinator();
  Session session(coordinator, session_options);
  accordion::AutoTuner tuner(coordinator);
  accordion::PlanNodePtr plan = accordion::TpchQ2JPlan(coordinator->catalog());

  LayerData layer;
  MeasureStart start = BeginMeasure(cluster.get());
  ThreadCountSampler threads(args.trace);

  std::vector<Completed> done;
  const int64_t start_us = accordion::NowMicros();
  for (int q = 0; q < queries; ++q) {
    int64_t trace_id = tracer->NewId();
    Span query_span(tracer, "query", trace_id);
    ++result->attempted;
    Span execute(tracer, "session.execute", trace_id, query_span.id());
    auto handle = session.Execute(plan);
    layer.execute_ms.push_back(execute.End() / 1000.0);
    if (!handle.ok()) {
      ++result->failed;
      done.push_back({accordion::NowMicros(), query_span.End() / 1000.0, 0});
      std::fprintf(stderr, "Q2J submit failed: %s\n",
                   handle.status().ToString().c_str());
      continue;
    }
    const std::string id = (*handle)->id();
    QuerySampler sampler(coordinator, id, kSamplePeriodUs, tracer, trace_id);
    std::unique_ptr<PredictorProbe> probe;
    if (args.trace) {
      probe = std::make_unique<PredictorProbe>(coordinator, id, tracer,
                                               trace_id, &layer);
    }
    accordion::AutoTuner::TuningUnit unit;
    unit.knob_stage = kKnobStage;
    unit.deadline_seconds = kDeadlineSeconds;
    unit.max_dop = kMaxDop;
    int64_t monitor_start_us = accordion::NowMicros();
    accordion::Status started =
        tuner.StartMonitor(id, {unit}, kMonitorPeriodMs);

    accordion::ResultCursor cursor = (*handle)->Cursor();
    Span drain(tracer, "cursor.drain", trace_id, query_span.id());
    auto pages = cursor.Drain();
    layer.drain_ms.push_back(drain.End() / 1000.0);
    double latency_ms = query_span.End() / 1000.0;
    int64_t end_us = accordion::NowMicros();
    sampler.Stop();
    if (probe != nullptr) probe->Stop();
    std::vector<accordion::AutoTuner::MonitorAction> actions =
        tuner.MonitorLog(id);
    tuner.StopMonitor(id);
    done.push_back(
        {end_us, latency_ms, QuerySampler::TaskSeconds(sampler.samples())});

    bool ok = started.ok() && latency_ms <= kDeadlineSeconds * 1000.0;
    if (!started.ok()) {
      std::fprintf(stderr, "monitor failed: %s\n", started.ToString().c_str());
    } else if (!ok) {
      std::fprintf(stderr, "deadline missed: %.3f s > %.1f s\n",
                   latency_ms / 1000.0, kDeadlineSeconds);
    }
    if (!pages.ok()) {
      ok = false;
      std::fprintf(stderr, "Q2J failed: %s\n",
                   pages.status().ToString().c_str());
    } else {
      int64_t rows = 0;
      uint64_t digest = DigestPages(*pages, &rows);
      if (!expected.Check(Q2JKey(kTunerScaleFactor), rows, digest)) {
        ok = false;
        result->correct = false;
      }
    }
    if (!ok) ++result->failed;

    bool first_action = true;
    for (const auto& action : actions) {
      ++layer.tuner_actions;
      if (action.rejected) {
        ++layer.tuner_rejected;
        continue;
      }
      if (!first_action || probe == nullptr) continue;
      first_action = false;
      int64_t at_us = monitor_start_us +
                      static_cast<int64_t>(action.at_seconds * 1e6);
      double predicted = probe->PredictedAt(at_us, action.to_dop);
      double actual = static_cast<double>(end_us - at_us) * 1e-6;
      if (predicted >= 0 && actual > 0) {
        layer.prediction_error.push_back(std::abs(predicted - actual) / actual);
      }
    }
    if (auto snapshot = (*handle)->Snapshot(); snapshot.ok()) {
      layer.exec.Absorb(*snapshot);
      const auto* knob = snapshot->stage(kKnobStage);
      if (knob != nullptr && knob->last_state_transfer_seconds > 0) {
        layer.switch_ms.push_back(knob->last_state_transfer_seconds * 1000.0);
      }
    }
  }
  layer.threads_max = threads.Stop();

  // One chunk per query: each end-to-end metric is a median over queries.
  EmitEndToEnd(setup_seconds, done, start_us, queries, result);
  result->named.Set("tuned_query_s",
                    result->named.Value("query_p50_ms") / 1000.0, "s");
  result->named.Set("task_seconds", result->e2e.Value("task_seconds"), "s");

  FinishLayer(cluster.get(), start, queries, {}, args.trace, &layer,
              result);
}

}  // namespace perfbench
