#include <gtest/gtest.h>

#include "api/session.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "plan/builder.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

constexpr double kSf = 0.01;

AccordionCluster::Options FastOptions() {
  AccordionCluster::Options options;
  options.num_workers = 4;
  options.num_storage_nodes = 4;
  options.scale_factor = kSf;
  options.engine.cost.scale = 0;    // no simulated compute time
  options.engine.rpc_latency_ms = 0;  // no simulated network latency
  return options;
}

int64_t ExactLineitemRows(double sf) {
  int64_t rows = 0;
  TpchSplitGenerator gen("lineitem", sf, 0, 1, 4096);
  return gen.TotalRows() + rows;
}

int64_t SingleInt(const std::vector<PagePtr>& pages) {
  int64_t total_rows = 0;
  for (const auto& p : pages) total_rows += p->num_rows();
  EXPECT_EQ(total_rows, 1);
  for (const auto& p : pages) {
    if (p->num_rows() > 0) return p->column(0).IntAt(0);
  }
  return -1;
}

int HostedTasks(AccordionCluster* cluster) {
  int tasks = 0;
  for (int w = 0; w < cluster->num_workers(); ++w) {
    tasks += cluster->worker(w)->NumTasks();
  }
  return tasks;
}

// Waits up to `timeout_ms` for the workers to host no task and the shared
// pool to hold no unit; true when both reached 0.
bool WaitUntilNothingHosted(AccordionCluster* cluster, int64_t timeout_ms) {
  Stopwatch watch;
  while (HostedTasks(cluster) > 0 || cluster->scheduler()->num_units() > 0) {
    if (watch.ElapsedMillis() > timeout_ms) return false;
    SleepForMillis(10);
  }
  return true;
}

// Drains `split` from the cluster's storage tier; `*nic_bytes` receives
// what the reader's NIC was charged.
std::vector<PagePtr> ReadSplit(AccordionCluster* cluster,
                               const SystemSplit& split, double* nic_bytes) {
  ResourceGovernor reader_nic("reader.nic", 1e18, 1e18);
  auto source = cluster->storage()->OpenSplit(split, &reader_nic);
  std::vector<PagePtr> pages;
  while (PagePtr page = source->Next()) pages.push_back(page);
  *nic_bytes = reader_nic.TotalConsumed();
  return pages;
}

TEST(ClusterTest, StorageShipsOnlyProjectedColumns) {
  for (double null_rate : {0.0, 0.3}) {
    SCOPED_TRACE("null rate " + std::to_string(null_rate));
    auto options = FastOptions();
    options.engine.null_injection_rate = null_rate;
    options.engine.null_injection_seed = 7;
    AccordionCluster cluster(options);
    const std::vector<int> columns = {10, 0};  // l_shipdate, l_orderkey
    SystemSplit split{"lineitem", 3, 28, 0, kSf, columns};
    double nic_bytes = 0;
    std::vector<PagePtr> pages = ReadSplit(&cluster, split, &nic_bytes);

    // Reference: full rows, NULL injection on the full row, then project.
    std::vector<PagePtr> full = GenerateSplit(
        "lineitem", kSf, 3, 28, cluster.engine_config().batch_rows);
    ASSERT_EQ(pages.size(), full.size());
    double projected_bytes = 0;
    for (size_t p = 0; p < pages.size(); ++p) {
      PagePtr want = InjectNulls(full[p], null_rate, 7);
      ASSERT_EQ(pages[p]->num_columns(), 2);
      ASSERT_EQ(pages[p]->num_rows(), want->num_rows());
      for (int k = 0; k < 2; ++k) {
        for (int64_t r = 0; r < want->num_rows(); ++r) {
          ASSERT_EQ(pages[p]->column(k).ValueAt(r),
                    want->column(columns[k]).ValueAt(r));
        }
      }
      projected_bytes += static_cast<double>(pages[p]->ByteSize());
    }
    // The NIC carries the projected pages, not the full rows.
    EXPECT_DOUBLE_EQ(nic_bytes, projected_bytes);

    split.columns.clear();  // no projection: every column
    std::vector<PagePtr> wide = ReadSplit(&cluster, split, &nic_bytes);
    ASSERT_EQ(wide.size(), full.size());
    EXPECT_EQ(wide[0]->num_columns(), 16);
    EXPECT_GT(nic_bytes, 2 * projected_bytes);
  }
}

TEST(ClusterTest, GlobalCountOverScan) {
  AccordionCluster cluster(FastOptions());
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("customer", {"c_custkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "c_custkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(rel));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto result = cluster.coordinator()->Wait(*submitted, 60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), 1500);
}

TEST(ClusterTest, ProcessedRowsCountWithoutCostModel) {
  // cost.scale = 0: drivers charge no simulated CPU, but still count the
  // rows every operator processed.
  AccordionCluster cluster(FastOptions());
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("customer", {"c_custkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "c_custkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(rel));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto result = cluster.coordinator()->Wait(*submitted, 60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  ASSERT_TRUE(snapshot.ok());
  const StageSnapshot* scan = nullptr;
  for (const auto& stage : snapshot->stages) {
    if (stage.scan_table == "customer") scan = &stage;
  }
  ASSERT_NE(scan, nullptr);
  EXPECT_GE(scan->processed_rows, 1500);
}

TEST(ClusterTest, Q2JCountsEveryLineitemExactlyOnce) {
  AccordionCluster cluster(FastOptions());
  auto submitted =
      cluster.coordinator()->Submit(TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  auto result = cluster.coordinator()->Wait(*submitted, 120000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));
}

TEST(ClusterTest, Q2JWithInitialStageDop) {
  auto options = FastOptions();
  AccordionCluster cluster(options);
  QueryOptions qopts;
  qopts.stage_dop = 3;
  qopts.task_dop = 2;
  auto submitted = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()), qopts);
  ASSERT_TRUE(submitted.ok());
  auto result = cluster.coordinator()->Wait(*submitted, 120000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));
}

TEST(ClusterTest, ScanStageDopIncreaseKeepsCountExact) {
  auto options = FastOptions();
  options.engine.cost.scale = 0.15;  // slow enough to tune mid-flight
  AccordionCluster cluster(options);
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("lineitem", {"l_orderkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "l_orderkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(rel));
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(300);
  // The lineitem scan stage is stage 1 (0 = final agg/output).
  Status st = cluster.coordinator()->SetStageDop(*submitted, 1, 4);
  EXPECT_TRUE(st.ok()) << st.ToString();

  auto result = cluster.coordinator()->Wait(*submitted, 180000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));

  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->stage(1)->dop, 4);
}

TEST(ClusterTest, ScanStageDopDecreaseKeepsCountExact) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;
  AccordionCluster cluster(options);
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("lineitem", {"l_orderkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "l_orderkey", "cnt"}});
  QueryOptions qopts;
  qopts.stage_dop = 4;
  auto submitted = cluster.coordinator()->Submit(b.Output(rel), qopts);
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(300);
  Status st = cluster.coordinator()->SetStageDop(*submitted, 1, 1);
  EXPECT_TRUE(st.ok()) << st.ToString();

  auto result = cluster.coordinator()->Wait(*submitted, 180000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));
  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  EXPECT_EQ(snapshot->stage(1)->dop, 1);
}

TEST(ClusterTest, IntraTaskDopTuningKeepsCountExact) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;
  AccordionCluster cluster(options);
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("lineitem", {"l_orderkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "l_orderkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(rel));
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(200);
  Status st = cluster.coordinator()->SetTaskDop(*submitted, 1, 3);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->stage(1)->task_dop, 3);

  auto result = cluster.coordinator()->Wait(*submitted, 180000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));
}

TEST(ClusterTest, DopSwitchOnPartitionedJoinKeepsCountExact) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;
  AccordionCluster cluster(options);
  QueryOptions qopts;
  qopts.stage_dop = 2;
  auto submitted = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()), qopts);
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(400);
  DopSwitchReport report;
  Status st = cluster.coordinator()->SetStageDop(*submitted, 1, 4, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(report.total_seconds, 0);

  auto result = cluster.coordinator()->Wait(*submitted, 180000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));

  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  EXPECT_EQ(snapshot->stage(1)->dop, 4);
}

TEST(ClusterTest, DopSwitchReleasesRetiredTasks) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;
  AccordionCluster cluster(options);
  Coordinator* coordinator = cluster.coordinator();
  auto submitted = coordinator->Submit(TpchQ2JPlan(coordinator->catalog()));
  ASSERT_TRUE(submitted.ok());
  auto first = coordinator->Snapshot(*submitted);
  ASSERT_TRUE(first.ok());
  int join_stage = -1;
  int lineitem_stage = -1;
  for (const auto& stage : first->stages) {
    if (stage.has_join) join_stage = stage.stage_id;
    if (stage.scan_table == "lineitem") lineitem_stage = stage.stage_id;
  }
  ASSERT_GE(join_stage, 0);
  ASSERT_GE(lineitem_stage, 0);

  // Join stage 1 -> 2 -> 4 (DOP switches) while the lineitem scan grows
  // to 3 tasks and shrinks back to 1: both retire tasks mid-query.
  SleepForMillis(200);
  ASSERT_TRUE(coordinator->SetStageDop(*submitted, join_stage, 2).ok());
  ASSERT_TRUE(coordinator->SetStageDop(*submitted, lineitem_stage, 3).ok());
  SleepForMillis(100);
  ASSERT_TRUE(coordinator->SetStageDop(*submitted, join_stage, 4).ok());
  ASSERT_TRUE(coordinator->SetStageDop(*submitted, lineitem_stage, 1).ok());

  auto result = coordinator->Wait(*submitted, 180000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));
  auto at_finish = coordinator->Snapshot(*submitted);
  ASSERT_TRUE(at_finish.ok());

  int active = 0;
  for (const auto& stage : at_finish->stages) active += stage.dop;
  EXPECT_EQ(active, 1 + 4 + 1 + 1);
  // Retired and active tasks alike leave their workers.
  EXPECT_TRUE(WaitUntilNothingHosted(&cluster, 10000));
  EXPECT_EQ(HostedTasks(&cluster), 0);

  // Released tasks still count in the stage totals and task lists.
  auto released = coordinator->Snapshot(*submitted);
  ASSERT_TRUE(released.ok());
  ASSERT_EQ(released->stages.size(), at_finish->stages.size());
  for (size_t i = 0; i < released->stages.size(); ++i) {
    const StageSnapshot& a = at_finish->stages[i];
    const StageSnapshot& b = released->stages[i];
    EXPECT_EQ(b.output_rows, a.output_rows) << "stage " << a.stage_id;
    EXPECT_EQ(b.output_bytes, a.output_bytes) << "stage " << a.stage_id;
    EXPECT_EQ(b.processed_rows, a.processed_rows) << "stage " << a.stage_id;
    EXPECT_EQ(b.scan_rows, a.scan_rows) << "stage " << a.stage_id;
    EXPECT_EQ(b.dop, a.dop) << "stage " << a.stage_id;
    EXPECT_EQ(b.tasks.size(), a.tasks.size()) << "stage " << a.stage_id;
    EXPECT_TRUE(b.finished) << "stage " << a.stage_id;
  }
  const StageSnapshot* scan = released->stage(lineitem_stage);
  EXPECT_EQ(scan->scan_rows, ExactLineitemRows(kSf));
  EXPECT_EQ(scan->scan_total_rows, ExactLineitemRows(kSf));
  EXPECT_EQ(released->stage(join_stage)->dop, 4);
}

TEST(ClusterTest, FinalStageDopChangeIsRejected) {
  AccordionCluster cluster(FastOptions());
  auto submitted =
      cluster.coordinator()->Submit(TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  Status st = cluster.coordinator()->SetStageDop(*submitted, 0, 4);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 120000).ok());
}

TEST(ClusterTest, TuningFinishedQueryIsRejected) {
  AccordionCluster cluster(FastOptions());
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("region", {"r_regionkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "r_regionkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(rel));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 60000).ok());
  Status st = cluster.coordinator()->SetStageDop(*submitted, 1, 2);
  EXPECT_FALSE(st.ok());
}

TEST(ClusterTest, SnapshotExposesStageTree) {
  AccordionCluster cluster(FastOptions());
  auto submitted =
      cluster.coordinator()->Submit(TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 120000).ok());

  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, QueryState::kFinished);
  ASSERT_EQ(snapshot->stages.size(), 4u);
  const auto* s1 = snapshot->stage(1);
  ASSERT_NE(s1, nullptr);
  EXPECT_TRUE(s1->has_join);
  EXPECT_TRUE(s1->hash_tables_built);
  const auto* s2 = snapshot->stage(2);
  EXPECT_EQ(s2->scan_table, "lineitem");
  EXPECT_EQ(s2->scan_rows, ExactLineitemRows(kSf));
  EXPECT_GT(snapshot->initial_schedule_requests, 0);
  EXPECT_GT(snapshot->end_ms, 0);
}

TEST(ClusterTest, BroadcastJoinStageScalesWithGenericPath) {
  auto options = FastOptions();
  options.engine.cost.scale = 2.0;
  AccordionCluster cluster(options);
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto orders = b.Scan("orders", {"o_orderkey", "o_custkey"});
  auto customer = b.Scan("customer", {"c_custkey", "c_nationkey"});
  auto joined = b.Join(orders, customer, {"o_custkey"}, {"c_custkey"},
                       {"c_nationkey"}, /*broadcast=*/true);
  auto agg = b.Aggregate(joined, {}, {{AggFunc::kCount, "o_orderkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(agg));
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(200);
  Status st = cluster.coordinator()->SetStageDop(*submitted, 1, 3);
  EXPECT_TRUE(st.ok()) << st.ToString();

  auto result = cluster.coordinator()->Wait(*submitted, 120000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), TpchRowCount("orders", kSf));
}

TEST(ClusterTest, AbortStopsQuery) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;  // long-running
  AccordionCluster cluster(options);
  auto submitted =
      cluster.coordinator()->Submit(TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  SleepForMillis(100);
  ASSERT_TRUE(cluster.coordinator()->Abort(*submitted).ok());
  auto result = cluster.coordinator()->Wait(*submitted, 30000);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(cluster.coordinator()->IsFinished(*submitted));
}

TEST(ClusterTest, AbortedQueryReleasesItsTasks) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;  // long-running
  AccordionCluster cluster(options);
  Coordinator* coordinator = cluster.coordinator();
  auto submitted = coordinator->Submit(TpchQ2JPlan(coordinator->catalog()));
  ASSERT_TRUE(submitted.ok());
  SleepForMillis(100);
  ASSERT_GT(HostedTasks(&cluster), 0);
  ASSERT_TRUE(coordinator->Abort(*submitted).ok());

  EXPECT_TRUE(WaitUntilNothingHosted(&cluster, 5000));
  EXPECT_EQ(HostedTasks(&cluster), 0);
  EXPECT_EQ(cluster.scheduler()->num_units(), 0);
  // The released tasks' final info still answers Snapshot.
  auto snapshot = coordinator->Snapshot(*submitted);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->state, QueryState::kAborted);
  ASSERT_EQ(snapshot->stages.size(), 4u);
  for (const StageSnapshot& stage : snapshot->stages) {
    EXPECT_EQ(stage.dop, 1) << "stage " << stage.stage_id;
    ASSERT_EQ(stage.tasks.size(), 1u) << "stage " << stage.stage_id;
    EXPECT_EQ(stage.tasks[0].state, TaskState::kAborted)
        << "stage " << stage.stage_id;
  }
}

// A long-lived cluster: every pass of the twelve TPC-H queries must leave
// no task on any worker and no unit in the shared pool, and give the same
// results as the first pass.
TEST(ClusterTest, FinishedQueriesLeaveNothingHosted) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  std::vector<int64_t> first_rows;
  for (int pass = 0; pass < 20; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    std::vector<int64_t> rows;
    for (int q = 1; q <= 12; ++q) {
      auto query = session.Execute(TpchQuerySql(q));
      ASSERT_TRUE(query.ok()) << "Q" << q << ": " << query.status().ToString();
      auto pages = (*query)->Wait(120000);
      ASSERT_TRUE(pages.ok()) << "Q" << q << ": " << pages.status().ToString();
      int64_t total = 0;
      for (const auto& page : *pages) total += page->num_rows();
      rows.push_back(total);
    }
    if (pass == 0) first_rows = rows;
    EXPECT_EQ(rows, first_rows);
    ASSERT_TRUE(WaitUntilNothingHosted(&cluster, 5000))
        << HostedTasks(&cluster) << " tasks and "
        << cluster.scheduler()->num_units() << " pool units left";
  }
}

TEST(ClusterTest, WaitTimeoutIsDistinctAndLeavesQueryRunning) {
  auto options = FastOptions();
  options.engine.cost.scale = 2.0;  // long-running
  AccordionCluster cluster(options);
  auto submitted = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());

  // A blown deadline is reported as kDeadlineExceeded (not a generic
  // failure), and the query keeps running...
  auto timed_out = cluster.coordinator()->Wait(*submitted, 1);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(cluster.coordinator()->IsFinished(*submitted));

  // ...so it can still be aborted, after which Wait reports kAborted.
  ASSERT_TRUE(cluster.coordinator()->Abort(*submitted).ok());
  auto aborted = cluster.coordinator()->Wait(*submitted, 30000);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kAborted);
  EXPECT_TRUE(cluster.coordinator()->IsFinished(*submitted));
}

TEST(ClusterTest, RpcRequestsAreCounted) {
  AccordionCluster cluster(FastOptions());
  int64_t before = cluster.coordinator()->total_rpc_requests();
  auto submitted =
      cluster.coordinator()->Submit(TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 120000).ok());
  EXPECT_GT(cluster.coordinator()->total_rpc_requests(), before + 10);
}

}  // namespace
}  // namespace accordion
