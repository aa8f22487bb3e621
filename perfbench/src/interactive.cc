// interactive: four closed-loop clients, each with its own Session, issue a
// seeded mix of short queries against one native SF 0.1 cluster. A run is
// a fixed number of queries, so the state a run leaves on the cluster is
// the same in every run.
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "common/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kClients = 4;
// About 1000 queries/s across the clients at SF 0.1: one run issues
// this many queries per client per second of --seconds.
constexpr int kQueriesPerClientSecond = 250;

// Chunks the end-to-end statistics are taken over: about 2000 queries each,
// so a chunk's p99 rests on 20 slower samples, and the median over chunks
// keeps a burst of machine noise in one part of a run from moving it.
constexpr int kChunks = 5;

struct ClientOutcome {
  std::vector<Completed> done;
  int64_t failed = 0;
  bool correct = true;
  LayerData layer;
};

}  // namespace

void RunInteractive(const RunArgs& args, const Expected& expected,
                    RunResult* result) {
  Tracer* tracer = &result->tracer;
  AccordionCluster::Options options = NativePreset(kTpchScaleFactor, 2, 4);
  accordion::SessionOptions session_options;  // stage DOP 1, task DOP 1

  std::vector<double> setup_seconds;
  auto cluster = SetUpCluster(options, kSetupReps, tracer, &setup_seconds);
  if (cluster == nullptr) {
    result->setup_ok = false;
    return;
  }
  const int per_client = std::max(1, args.seconds * kQueriesPerClientSecond);
  result->config_json =
      "{\"workload\":\"interactive\",\"seed\":" + std::to_string(args.seed) +
      ",\"clients\":" + std::to_string(kClients) +
      ",\"loop\":\"closed\",\"queries_per_client\":" +
      std::to_string(per_client) + ",\"cluster\":" +
      DescribeOptions("native", options, cluster->scheduler()->num_threads()) +
      ",\"query\":" + DescribeQueryOptions(session_options.query_defaults) +
      "}";
  accordion::Coordinator* coordinator = cluster->coordinator();
  const std::vector<ShortQuery> shapes = ShortQueries(kTpchScaleFactor);

  MeasureStart start = BeginMeasure(cluster.get());
  ThreadCountSampler threads(args.trace);

  std::vector<ClientOutcome> outcomes(kClients);
  auto client = [&](int c) {
    ClientOutcome& out = outcomes[c];
    Session session(coordinator, session_options);
    std::vector<accordion::PreparedStatement> prepared(shapes.size());
    for (size_t s = 0; s < shapes.size(); ++s) {
      if (shapes[s].key_hi < shapes[s].key_lo) continue;
      auto statement = session.Prepare(shapes[s].sql);
      if (statement.ok()) prepared[s] = *statement;
    }
    // The task count of a shape never changes (no tuning here), so one
    // snapshot per shape prices every later execution of it.
    std::vector<int> shape_tasks(shapes.size(), -1);
    std::vector<std::map<int, double>> estimates(shapes.size());
    accordion::Random rng(args.seed * 1000003ULL + static_cast<uint64_t>(c));
    out.done.reserve(per_client);
    for (int i = 0; i < per_client; ++i) {
      size_t s = static_cast<size_t>(rng.NextInt(0, shapes.size() - 1));
      const ShortQuery& shape = shapes[s];
      bool bound = shape.key_hi >= shape.key_lo;
      int64_t key = bound ? rng.NextInt(shape.key_lo, shape.key_hi) : 0;
      int64_t trace_id = tracer->NewId();
      Span query_span(tracer, "query", trace_id);
      QueryRun run = RunQuery(
          [&]() -> Result<QueryHandlePtr> {
            if (!bound) return session.Execute(shape.sql);
            return session.Execute(prepared[s], {accordion::Value::Int(key)});
          },
          tracer, trace_id, query_span.id());
      query_span.End();
      out.done.push_back({run.end_us, run.latency_ms, 0});
      if (!run.ok) {
        ++out.failed;
        std::fprintf(stderr, "%s failed: %s\n", shape.key, run.error.c_str());
        continue;
      }
      std::string check_key = shape.key;
      if (bound) check_key += "/" + std::to_string(key);
      if (!expected.Check(check_key, run.rows, run.digest)) {
        ++out.failed;
        out.correct = false;
      }
      LayerData& layer = out.layer;
      layer.execute_ms.push_back(run.execute_ms);
      layer.first_page_ms.push_back(run.first_page_ms);
      layer.drain_ms.push_back(run.drain_ms);
      layer.prefetches += run.prefetches;
      layer.prefetch_hits += run.prefetch_hits;
      if (args.trace || shape_tasks[s] < 0) {
        Span snap_span(tracer, "coordinator.snapshot", trace_id);
        auto snapshot = run.handle->Snapshot();
        snap_span.End();
        if (snapshot.ok()) {
          shape_tasks[s] = 0;
          for (const auto& stage : snapshot->stages) {
            shape_tasks[s] += stage.dop;
          }
          if (args.trace) {
            layer.exec.Absorb(*snapshot);
            if (!bound && estimates[s].empty()) {
              auto explained = session.Explain(
                  shape.sql,
                  accordion::ExplainOptions{accordion::ExplainFormat::kJson});
              if (explained.ok()) estimates[s] = EstimatedStageRows(*explained);
            }
            AddStageQErrors(estimates[s], *snapshot, &layer.exec);
          }
        }
      }
      out.done.back().task_seconds =
          std::max(shape_tasks[s], 0) * run.latency_ms / 1000.0;
    }
  };

  const int64_t start_us = accordion::NowMicros();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();

  LayerData layer;
  layer.threads_max = threads.Stop();
  std::vector<Completed> done;
  for (ClientOutcome& out : outcomes) {
    done.insert(done.end(), out.done.begin(), out.done.end());
    result->failed += out.failed;
    result->correct = result->correct && out.correct;
    const LayerData& l = out.layer;
    layer.execute_ms.insert(layer.execute_ms.end(), l.execute_ms.begin(),
                            l.execute_ms.end());
    layer.first_page_ms.insert(layer.first_page_ms.end(),
                               l.first_page_ms.begin(), l.first_page_ms.end());
    layer.drain_ms.insert(layer.drain_ms.end(), l.drain_ms.begin(),
                          l.drain_ms.end());
    layer.prefetches += l.prefetches;
    layer.prefetch_hits += l.prefetch_hits;
    layer.exec.Merge(l.exec);
  }
  int64_t queries = static_cast<int64_t>(done.size());
  result->attempted = queries;

  EmitEndToEnd(setup_seconds, done, start_us, kChunks, result);
  result->named.Set("short_qps", result->e2e.Value("throughput_qps"), "1/s");
  result->named.Set("short_p50_ms", result->named.Value("query_p50_ms"), "ms");
  result->named.Set("short_p99_ms", result->named.Value("query_tail_ms"), "ms");
  result->named.Set("short_p99_samples",
                    static_cast<double>(queries / kChunks), "count");

  // The SQL layer is probed on every shape, prepared ones with a bound key.
  std::vector<std::string> texts;
  for (const ShortQuery& shape : shapes) {
    std::string sql = shape.sql;
    size_t mark = sql.find('?');
    if (mark != std::string::npos) {
      sql.replace(mark, 1, std::to_string(shape.key_lo));
    }
    texts.push_back(sql);
  }
  FinishLayer(cluster.get(), start, queries, texts, args.trace, &layer,
              result);
}

}  // namespace perfbench
