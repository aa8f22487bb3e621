// End-to-end TPC-H through the Session front door: all 12 queries run via
// Session::Execute from their TpchQuerySql text (the SQL subset covers
// the whole suite; a query without SQL text is an error), with results
// streamed through a ResultCursor.
// Machine-readable timings land in BENCH_e2e.json (override the path
// with ACCORDION_BENCH_JSON).
//
// The cost-based optimizer is measured against the legacy textual-order
// planner: `--optimizer=both` (the default) runs every query in both
// modes and reports the speedup; `--optimizer=on` / `--optimizer=off`
// run one mode.
//
//   $ ./bench_e2e_tpch [--optimizer=both|on|off]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench/bench_util.h"
#include "common/clock.h"
#include "tpch/queries.h"

int main(int argc, char** argv) {
  using namespace accordion;

  std::string mode = "both";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--optimizer=", 12) == 0) {
      mode = argv[i] + 12;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--optimizer=both|on|off]\n", argv[0]);
      return 1;
    }
  }
  if (mode != "both" && mode != "on" && mode != "off") {
    std::fprintf(stderr, "invalid --optimizer mode '%s'\n", mode.c_str());
    return 1;
  }
  std::vector<const char*> runs;
  if (mode != "on") runs.push_back("off");
  if (mode != "off") runs.push_back("on");

  std::string ref =
      "Session API acceptance run (SF0.01 + cost model), optimizer " + mode;
  bench::PrintHeader(
      "End-to-end TPC-H, 12 queries through Session::Execute "
      "(SQL text) with cursor-streamed results",
      ref.c_str());

  struct Row {
    int q;
    const char* optimizer;
    double seconds;
    int64_t rows;
    int64_t pages;
  };
  std::vector<Row> rows;

  std::printf("%-6s  %-8s  %-9s  %10s  %8s  %7s\n", "Query", "Frontend",
              "Optimizer", "Time (s)", "Rows", "Pages");
  for (int q = 1; q <= 12; ++q) {
    for (const char* run : runs) {
      auto options = bench::ExperimentOptions(/*cost_scale=*/0.8);
      options.num_workers = 2;
      AccordionCluster cluster(options);
      SessionOptions session_options;
      session_options.query_defaults.stage_dop = 2;
      session_options.query_defaults.task_dop = 2;
      if (std::strcmp(run, "off") == 0) {
        session_options.query_defaults.optimizer = OptimizerOptions::Off();
      }
      Session session(cluster.coordinator(), session_options);

      std::string sql = TpchQuerySql(q);
      if (sql.empty()) {
        std::fprintf(stderr, "Q%d has no SQL text\n", q);
        return 1;
      }
      Stopwatch sw;
      auto query = session.Execute(sql);
      if (!query.ok()) {
        std::fprintf(stderr, "Q%d submit failed: %s\n", q,
                     query.status().ToString().c_str());
        return 1;
      }
      ResultCursor cursor = (*query)->Cursor();
      auto pages = cursor.Drain(900000);
      if (!pages.ok()) {
        std::fprintf(stderr, "Q%d failed: %s\n", q,
                     pages.status().ToString().c_str());
        return 1;
      }
      Row row;
      row.q = q;
      row.optimizer = run;
      row.seconds = sw.ElapsedSeconds();
      row.rows = cursor.rows_seen();
      row.pages = cursor.pages_seen();
      rows.push_back(row);
      std::printf("Q%-5d  %-8s  %-9s  %10.3f  %8lld  %7lld\n", q, "sql",
                  row.optimizer, row.seconds,
                  static_cast<long long>(row.rows),
                  static_cast<long long>(row.pages));
    }
  }

  double total_on = 0;
  double total_off = 0;
  for (const Row& row : rows) {
    (std::strcmp(row.optimizer, "on") == 0 ? total_on : total_off) +=
        row.seconds;
  }
  if (total_on > 0) std::printf("%-6s  %-8s  %-9s  %10.3f\n", "TOTAL", "",
                                "on", total_on);
  if (total_off > 0) std::printf("%-6s  %-8s  %-9s  %10.3f\n", "TOTAL", "",
                                 "off", total_off);
  if (total_on > 0 && total_off > 0) {
    std::printf("optimizer speedup: %.2fx\n", total_off / total_on);
  }

  const char* json_path = std::getenv("ACCORDION_BENCH_JSON");
  std::string out_path = json_path != nullptr ? json_path : "BENCH_e2e.json";
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"e2e_tpch_session\",\n"
                    "  \"queries\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"query\": %d, \"frontend\": \"sql\", "
                 "\"optimizer\": \"%s\", \"seconds\": %.6f, "
                 "\"rows\": %lld, \"pages\": %lld}%s\n",
                 row.q, row.optimizer, row.seconds,
                 static_cast<long long>(row.rows),
                 static_cast<long long>(row.pages),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]");
  if (total_on > 0) std::fprintf(out, ",\n  \"total_seconds_on\": %.6f",
                                 total_on);
  if (total_off > 0) std::fprintf(out, ",\n  \"total_seconds_off\": %.6f",
                                  total_off);
  if (total_on > 0 && total_off > 0) {
    std::fprintf(out, ",\n  \"optimizer_speedup\": %.4f",
                 total_off / total_on);
  }
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("\nWrote %s\n", out_path.c_str());
  return 0;
}
