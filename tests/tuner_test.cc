#include <gtest/gtest.h>

#include <functional>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "plan/builder.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"
#include "tuner/auto_tuner.h"

namespace accordion {
namespace {

constexpr double kSf = 0.01;

AccordionCluster::Options SlowOptions(double scale) {
  AccordionCluster::Options options;
  options.num_workers = 4;
  options.num_storage_nodes = 4;
  options.scale_factor = kSf;
  options.engine.cost.scale = scale;
  options.engine.rpc_latency_ms = 0;
  return options;
}

/// Lineitem scan + count plan (stage 1 scan, stage 0 final agg).
PlanNodePtr ScanCountPlan(const Catalog& catalog) {
  PlanBuilder b(&catalog);
  auto rel = b.Scan("lineitem", {"l_orderkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "l_orderkey", "cnt"}});
  return b.Output(rel);
}

TEST(PredictorTest, RemainingTimeShrinksWithProgress) {
  AccordionCluster cluster(SlowOptions(1.5));
  auto submitted =
      cluster.coordinator()->Submit(ScanCountPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  Predictor predictor(cluster.coordinator());

  SleepForMillis(400);
  auto early = predictor.EstimateRemaining(*submitted, 1);
  SleepForMillis(700);
  auto late = predictor.EstimateRemaining(*submitted, 1);
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  ASSERT_TRUE(late.ok());
  EXPECT_GT(early->consume_rate_rows_per_s, 0);
  EXPECT_LT(late->remaining_rows, early->remaining_rows);
  EXPECT_GT(late->progress, early->progress);

  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 180000).ok());
  auto done = predictor.EstimateRemaining(*submitted, 1);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->remaining_rows, 0);
  EXPECT_DOUBLE_EQ(done->remaining_seconds, 0);
}

TEST(PredictorTest, PredictionRoughlyMatchesActual) {
  AccordionCluster cluster(SlowOptions(1.5));
  auto submitted =
      cluster.coordinator()->Submit(ScanCountPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  Predictor predictor(cluster.coordinator());

  SleepForMillis(300);
  (void)predictor.EstimateRemaining(*submitted, 1);
  SleepForMillis(500);
  auto estimate = predictor.EstimateRemaining(*submitted, 1);
  ASSERT_TRUE(estimate.ok());
  ASSERT_GT(estimate->consume_rate_rows_per_s, 0);
  double predicted_total =
      NowSeconds() + estimate->remaining_seconds;

  Stopwatch sw;
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 180000).ok());
  double actual_total = NowSeconds();
  // Same-DOP prediction should land within 50% of the actual finish time
  // (measured from the prediction moment).
  double predicted_remaining = predicted_total - actual_total + sw.ElapsedSeconds();
  (void)predicted_remaining;
  EXPECT_NEAR(predicted_total, actual_total,
              std::max(0.8, 0.5 * sw.ElapsedSeconds()));
}

TEST(PredictorTest, WhatIfScalesByFactor) {
  AccordionCluster cluster(SlowOptions(1.5));
  auto submitted =
      cluster.coordinator()->Submit(ScanCountPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  Predictor predictor(cluster.coordinator());

  SleepForMillis(300);
  (void)predictor.EstimateRemaining(*submitted, 1);
  SleepForMillis(400);
  auto base = predictor.EstimateRemaining(*submitted, 1);
  auto what_if = predictor.PredictAfterTuning(*submitted, 1, 4);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(what_if.ok());
  EXPECT_GT(what_if->applied_factor, 1.0);
  EXPECT_LT(what_if->predicted_seconds, base->remaining_seconds);

  auto list = predictor.DopTimeList(*submitted, 1, 4);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 4u);
  // Monotone non-increasing predictions with DOP.
  for (size_t i = 1; i < list->size(); ++i) {
    EXPECT_LE((*list)[i].predicted_seconds,
              (*list)[i - 1].predicted_seconds * 1.05);
  }
  (void)cluster.coordinator()->Wait(*submitted, 180000);
}

/// A join stage (1, DOP 2) probing a lineitem scan stage (2) that has
/// read half the table 10 s after submit: with no recorded history the
/// rate is the average since submit, so T_remain is 10 s.
QuerySnapshot HandBuiltJoinSnapshot(const Catalog& catalog, double scan_cpu) {
  QuerySnapshot snapshot;
  snapshot.query_id = "hand-built";
  snapshot.submit_ms = 0;
  snapshot.taken_ms = 10000;
  StageSnapshot join;
  join.stage_id = 1;
  join.source_stage_ids = {2};
  join.has_join = true;
  join.dop = 2;
  join.hash_build_us_max = 500000;
  join.last_state_transfer_seconds = 0.8;
  StageSnapshot scan;
  scan.stage_id = 2;
  scan.is_scan = true;
  scan.scan_table = "lineitem";
  scan.scan_rows = catalog.GetStats("lineitem")->row_count / 2;
  scan.tasks.resize(2);
  for (TaskInfo& task : scan.tasks) task.cpu_utilization = scan_cpu;
  snapshot.stages = {join, scan};
  return snapshot;
}

TEST(PredictorTest, WhatIfScalingOnOneSnapshot) {
  AccordionCluster cluster(SlowOptions(0));
  const Catalog& catalog = cluster.coordinator()->catalog();
  Predictor predictor(cluster.coordinator());
  QuerySnapshot snapshot = HandBuiltJoinSnapshot(catalog, 0.5);

  auto estimate = predictor.EstimateRemaining(snapshot, 1);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_EQ(estimate->driving_scan_stage, 2);
  EXPECT_NEAR(estimate->progress, 0.5, 1e-3);
  EXPECT_NEAR(estimate->remaining_seconds, 10.0, 1e-2);
  // T_build is the larger of the index time and the last state transfer.
  EXPECT_DOUBLE_EQ(estimate->build_seconds, 0.8);

  // Scale-up is capped by the scan's CPU headroom: 1 / 0.5 = 2x.
  auto capped = predictor.PredictAfterTuning(snapshot, 1, 8);
  ASSERT_TRUE(capped.ok());
  EXPECT_DOUBLE_EQ(capped->max_factor, 2.0);
  EXPECT_DOUBLE_EQ(capped->applied_factor, 2.0);
  EXPECT_DOUBLE_EQ(capped->tuning_seconds, 0.8);
  EXPECT_NEAR(capped->predicted_seconds, (10.0 - 0.8) / 2 + 0.8, 1e-2);

  // Scale-down is never capped.
  auto down = predictor.PredictAfterTuning(snapshot, 1, 1);
  ASSERT_TRUE(down.ok());
  EXPECT_DOUBLE_EQ(down->applied_factor, 0.5);
  EXPECT_NEAR(down->predicted_seconds, (10.0 - 0.8) / 0.5 + 0.8, 1e-2);

  // Near saturation the headroom floor still credits 1.5x.
  QuerySnapshot busy = HandBuiltJoinSnapshot(catalog, 0.9);
  auto floored = predictor.PredictAfterTuning(busy, 1, 8);
  ASSERT_TRUE(floored.ok());
  EXPECT_DOUBLE_EQ(floored->applied_factor, 1.5);
  EXPECT_NEAR(floored->predicted_seconds, (10.0 - 0.8) / 1.5 + 0.8, 1e-2);

  // Without a join nothing is rebuilt: the whole remainder scales.
  QuerySnapshot no_join = snapshot;
  no_join.stages[0].has_join = false;
  auto scan_only = predictor.PredictAfterTuning(no_join, 1, 4);
  ASSERT_TRUE(scan_only.ok());
  EXPECT_DOUBLE_EQ(scan_only->tuning_seconds, 0);
  EXPECT_NEAR(scan_only->predicted_seconds, 10.0 / 2, 1e-2);

  // Row counts come from catalog statistics only.
  QuerySnapshot unknown_table = snapshot;
  unknown_table.stages[1].scan_table = "no_such_table";
  EXPECT_EQ(predictor.EstimateRemaining(unknown_table, 1).status().code(),
            StatusCode::kFailedPrecondition);

  // The DOP-time list is the same what-if for every DOP.
  auto list = predictor.DopTimeList(snapshot, 1, 4);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 4u);
  for (const auto& entry : *list) {
    auto what_if = predictor.PredictAfterTuning(snapshot, 1, entry.dop);
    ASSERT_TRUE(what_if.ok());
    EXPECT_DOUBLE_EQ(entry.predicted_seconds, what_if->predicted_seconds);
  }
}

TEST(PredictorTest, RateHistoryIsDroppedWhenTheQueryEnds) {
  AccordionCluster cluster(SlowOptions(0));
  Predictor predictor(cluster.coordinator());
  QuerySnapshot first =
      HandBuiltJoinSnapshot(cluster.coordinator()->catalog(), 0.5);
  predictor.Record(first);

  // 2 s later the scan has read 1000 more rows: the windowed rate wins
  // over the average since submit.
  QuerySnapshot later = first;
  later.taken_ms += 2000;
  later.stages[1].scan_rows += 1000;
  auto windowed = predictor.EstimateRemaining(later, 1);
  ASSERT_TRUE(windowed.ok());
  EXPECT_DOUBLE_EQ(windowed->consume_rate_rows_per_s, 500.0);

  QuerySnapshot ended = later;
  ended.state = QueryState::kFinished;
  predictor.Record(ended);
  auto fallback = predictor.EstimateRemaining(later, 1);
  ASSERT_TRUE(fallback.ok());
  EXPECT_DOUBLE_EQ(fallback->consume_rate_rows_per_s,
                   static_cast<double>(later.stages[1].scan_rows) / 12.0);
}

TEST(PredictorTest, EachCallTakesOneSnapshot) {
  AccordionCluster cluster(SlowOptions(0));
  Coordinator* coordinator = cluster.coordinator();
  auto submitted = coordinator->Submit(TpchQ2JPlan(coordinator->catalog()));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(coordinator->Wait(*submitted, 60000).ok());
  Predictor predictor(coordinator);

  auto requests = [&](const std::function<void()>& call) {
    int64_t before = coordinator->total_rpc_requests();
    call();
    return coordinator->total_rpc_requests() - before;
  };
  int64_t snapshot = requests([&] {
    EXPECT_TRUE(coordinator->Snapshot(*submitted).ok());
  });
  ASSERT_GT(snapshot, 0);
  int64_t what_if = requests([&] {
    EXPECT_TRUE(predictor.PredictAfterTuning(*submitted, 1, 4).ok());
  });
  int64_t dop_time_list = requests([&] {
    EXPECT_TRUE(predictor.DopTimeList(*submitted, 1, 8).ok());
  });
  EXPECT_EQ(what_if, snapshot);
  EXPECT_EQ(dop_time_list, snapshot);
}

TEST(RequestFilterTest, RejectsFinishedQuery) {
  AccordionCluster cluster(SlowOptions(0));
  auto submitted =
      cluster.coordinator()->Submit(ScanCountPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 60000).ok());

  AutoTuner tuner(cluster.coordinator());
  Status st = tuner.filter()->Check(*submitted, 1, 4);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(RequestFilterTest, RejectsSameDopAndBadDop) {
  AccordionCluster cluster(SlowOptions(1.0));
  auto submitted =
      cluster.coordinator()->Submit(ScanCountPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  AutoTuner tuner(cluster.coordinator());
  SleepForMillis(100);
  EXPECT_FALSE(tuner.filter()->Check(*submitted, 1, 1).ok());  // same DOP
  EXPECT_FALSE(tuner.filter()->Check(*submitted, 1, 0).ok());
  EXPECT_TRUE(tuner.filter()->Check(*submitted, 1, 2).ok());
  (void)cluster.coordinator()->Abort(*submitted);
}

TEST(RequestFilterTest, RejectsJoinTuningNearCompletion) {
  // Run Q2J nearly to completion, then ask for a DOP switch: the filter
  // must reject because T_remain < T_build (paper Fig. 25a/26).
  AccordionCluster cluster(SlowOptions(0.6));
  QueryOptions qopts;
  qopts.stage_dop = 2;
  auto submitted = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()), qopts);
  ASSERT_TRUE(submitted.ok());
  AutoTuner tuner(cluster.coordinator());

  // Prime the rate tracker, then wait until the scan is nearly done.
  Predictor* predictor = tuner.predictor();
  for (int i = 0; i < 200; ++i) {
    auto estimate = predictor->EstimateRemaining(*submitted, 1);
    if (estimate.ok() && estimate->progress > 0.93) break;
    SleepForMillis(100);
    if (cluster.coordinator()->IsFinished(*submitted)) break;
  }
  if (!cluster.coordinator()->IsFinished(*submitted)) {
    auto estimate = predictor->EstimateRemaining(*submitted, 1);
    ASSERT_TRUE(estimate.ok());
    if (estimate->build_seconds > 0 &&
        estimate->remaining_seconds < estimate->build_seconds) {
      Status st = tuner.filter()->Check(*submitted, 1, 6);
      EXPECT_FALSE(st.ok());
    }
  }
  (void)cluster.coordinator()->Wait(*submitted, 180000);
}

TEST(AutoTunerTest, OneTimeTuneMeetsConstraint) {
  AccordionCluster cluster(SlowOptions(2.0));
  auto submitted =
      cluster.coordinator()->Submit(ScanCountPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  AutoTuner tuner(cluster.coordinator());

  SleepForMillis(300);
  (void)tuner.predictor()->EstimateRemaining(*submitted, 1);
  SleepForMillis(500);
  auto base = tuner.predictor()->EstimateRemaining(*submitted, 1);
  ASSERT_TRUE(base.ok());
  if (base->remaining_seconds > 1.0) {
    double constraint = base->remaining_seconds / 3;
    auto chosen = tuner.OneTimeTune(*submitted, 1, constraint, 8);
    ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
    EXPECT_GT(*chosen, 1);
  }
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 300000).ok());
}

TEST(AutoTunerTest, MonitorScalesUpWhenBehind) {
  AccordionCluster cluster(SlowOptions(2.0));
  auto submitted =
      cluster.coordinator()->Submit(ScanCountPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  AutoTuner tuner(cluster.coordinator());

  // Impossible-at-DOP-1 deadline: the monitor must raise the stage DOP.
  AutoTuner::TuningUnit unit;
  unit.knob_stage = 1;
  unit.deadline_seconds = 2.0;
  unit.max_dop = 8;
  ASSERT_TRUE(tuner.StartMonitor(*submitted, {unit}, 400).ok());

  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 300000).ok());
  auto log = tuner.MonitorLog(*submitted);
  bool scaled_up = false;
  for (const auto& action : log) {
    if (action.to_dop > action.from_dop && !action.rejected) scaled_up = true;
  }
  EXPECT_TRUE(scaled_up) << "monitor log has " << log.size() << " actions";
  tuner.StopMonitor(*submitted);
}

TEST(AutoTunerTest, MonitorScalesDownWhenAhead) {
  AccordionCluster cluster(SlowOptions(1.2));
  QueryOptions qopts;
  qopts.stage_dop = 6;
  auto submitted = cluster.coordinator()->Submit(
      ScanCountPlan(cluster.coordinator()->catalog()), qopts);
  ASSERT_TRUE(submitted.ok());
  AutoTuner tuner(cluster.coordinator());

  AutoTuner::TuningUnit unit;
  unit.knob_stage = 1;
  unit.deadline_seconds = 300.0;  // absurdly lax: resources released
  unit.max_dop = 8;
  ASSERT_TRUE(tuner.StartMonitor(*submitted, {unit}, 300).ok());

  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 300000).ok());
  auto log = tuner.MonitorLog(*submitted);
  bool scaled_down = false;
  for (const auto& action : log) {
    if (action.to_dop < action.from_dop && !action.rejected) scaled_down = true;
  }
  EXPECT_TRUE(scaled_down) << "monitor log has " << log.size() << " actions";
  tuner.StopMonitor(*submitted);
}

TEST(BottleneckTest, JoinStageIsComputeBottleneckAtLowDop) {
  auto options = SlowOptions(0.8);
  options.num_workers = 4;
  // Make probing an order of magnitude heavier than scanning so the join
  // stage lags its inputs: its receive buffers stay populated and its
  // turn-up counter goes flat (paper §5.1's bottleneck signature).
  options.engine.cost.scan_us = 5;
  options.engine.cost.probe_us = 200;
  AccordionCluster cluster(options);
  QueryOptions qopts;
  qopts.stage_dop = 2;
  auto submitted = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()), qopts);
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(600);
  if (!cluster.coordinator()->IsFinished(*submitted)) {
    auto report = LocateBottlenecks(cluster.coordinator(), *submitted, 500);
    ASSERT_TRUE(report.ok());
    // The probe/join stage (1) should be compute-bound while scans feed it.
    bool stage1_flagged = false;
    for (int s : report->compute_bottlenecks) stage1_flagged |= s == 1;
    EXPECT_TRUE(stage1_flagged)
        << "compute bottlenecks: " << report->compute_bottlenecks.size();
  }
  (void)cluster.coordinator()->Wait(*submitted, 300000);
}

}  // namespace
}  // namespace accordion
