// tpch-native: the 12 TPC-H queries back to back through one Session, one
// closed-loop client, on one native SF 0.1 cluster for the whole run.
#include <algorithm>
#include <cstdio>

#include "common/clock.h"
#include "tpch/queries.h"
#include "workloads.h"

namespace perfbench {

void RunTpchNative(const RunArgs& args, const Expected& expected,
                   RunResult* result) {
  Tracer* tracer = &result->tracer;
  AccordionCluster::Options options = NativePreset(kTpchScaleFactor, 2, 4);
  accordion::SessionOptions session_options;
  session_options.query_defaults.stage_dop = 2;
  session_options.query_defaults.task_dop = 2;

  std::vector<double> setup_seconds;
  auto cluster = SetUpCluster(options, kSetupReps, tracer, &setup_seconds);
  if (cluster == nullptr) {
    result->setup_ok = false;
    return;
  }
  result->config_json =
      "{\"workload\":\"tpch-native\",\"seed\":" + std::to_string(args.seed) +
      ",\"clients\":1,\"loop\":\"closed\",\"cluster\":" +
      DescribeOptions("native", options, cluster->scheduler()->num_threads()) +
      ",\"query\":" + DescribeQueryOptions(session_options.query_defaults) +
      "}";
  accordion::Coordinator* coordinator = cluster->coordinator();
  Session session(coordinator, session_options);

  // A pass takes about 3 s at SF 0.1, so --seconds fixes the pass count and
  // every run repeats the same work on the same cluster. At most three: the
  // state finished queries leave behind makes the fifth pass 3-20x slower
  // at this commit, and a run would no longer end in time.
  const int passes = std::clamp((args.seconds + 1) / 3, 1, 3);
  std::vector<std::string> sql(13);
  for (int q = 1; q <= 12; ++q) sql[q] = accordion::TpchQuerySql(q);

  // Stage estimates for the optimizer q-error (traced runs only).
  std::vector<std::map<int, double>> estimates(13);
  if (args.trace) {
    accordion::ExplainOptions json{accordion::ExplainFormat::kJson};
    for (int q = 1; q <= 12; ++q) {
      auto explained = session.Explain(sql[q], json);
      if (explained.ok()) estimates[q] = EstimatedStageRows(*explained);
    }
  }

  LayerData layer;
  MeasureStart start = BeginMeasure(cluster.get());
  ThreadCountSampler threads(args.trace);

  std::vector<Completed> done;
  std::vector<double> pass_seconds;
  std::vector<double> query_ms_by_number[13];
  const int64_t start_us = accordion::NowMicros();
  for (int pass = 0; pass < passes; ++pass) {
    Span pass_span(tracer, "pass", tracer->NewId());
    for (int q = 1; q <= 12; ++q) {
      int64_t trace_id = tracer->NewId();
      Span query_span(tracer, "query", trace_id, pass_span.id());
      QueryRun run = RunQuery([&] { return session.Execute(sql[q]); }, tracer,
                              trace_id, query_span.id());
      query_span.End();
      ++result->attempted;
      done.push_back({run.end_us, run.latency_ms, 0});
      query_ms_by_number[q].push_back(run.latency_ms);
      if (!run.ok) {
        ++result->failed;
        std::fprintf(stderr, "Q%d failed: %s\n", q, run.error.c_str());
        continue;
      }
      if (!expected.Check("tpch/Q" + std::to_string(q), run.rows,
                          run.digest)) {
        ++result->failed;
        result->correct = false;
      }
      layer.execute_ms.push_back(run.execute_ms);
      layer.first_page_ms.push_back(run.first_page_ms);
      layer.drain_ms.push_back(run.drain_ms);
      layer.prefetches += run.prefetches;
      layer.prefetch_hits += run.prefetch_hits;
      Span snap_span(tracer, "coordinator.snapshot", trace_id);
      auto snapshot = run.handle->Snapshot();
      snap_span.End();
      if (snapshot.ok()) {
        done.back().task_seconds =
            StaticTaskSeconds(*snapshot, run.latency_ms / 1000.0);
        layer.exec.Absorb(*snapshot);
        AddStageQErrors(estimates[q], *snapshot, &layer.exec);
      }
    }
    pass_seconds.push_back(pass_span.End() / 1e6);
  }
  layer.threads_max = threads.Stop();

  // One chunk per pass: each end-to-end metric is a median over passes.
  int64_t queries = static_cast<int64_t>(done.size());
  EmitEndToEnd(setup_seconds, done, start_us, passes, result);
  result->named.Set("suite_s", Median(pass_seconds), "s");
  result->named.Set("query_geomean_ms", result->e2e.Value("query_geomean_ms"),
                    "ms");
  result->named.Set("passes", passes, "count");
  for (int q = 1; q <= 12; ++q) {
    result->named.Set("Q" + std::to_string(q) + "_ms",
                      Median(query_ms_by_number[q]), "ms");
  }

  FinishLayer(cluster.get(), start, queries, {sql.begin() + 1, sql.end()},
              args.trace, &layer, result);
}

}  // namespace perfbench
