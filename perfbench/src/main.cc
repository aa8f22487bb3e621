// perfbench: the program behind the repository benchmark (run.py).
//
//   perfbench --workload <tpch-native|interactive|elastic-switch|
//                         deadline-tuner>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--expected perfbench/expected.txt] [--trace-dir <dir>]
//   perfbench --record-expected > perfbench/expected.txt
//
// Prints the run's engine settings, every metric by name with its unit,
// and as the last line one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Traced runs also write a Chrome trace-event file.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--expected <file>] [--trace-dir <dir>]\n"
               "       %s --record-expected\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  setvbuf(stdout, nullptr, _IOLBF, 0);

  RunArgs args;
  std::string expected_path = "perfbench/expected.txt";
  std::string trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--record-expected") return RecordExpected();
    if (i + 1 >= argc) return Usage(argv[0]);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--expected") {
      expected_path = value;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }

  void (*run)(const RunArgs&, const Expected&, RunResult*) = nullptr;
  if (args.workload == "tpch-native") run = RunTpchNative;
  if (args.workload == "interactive") run = RunInteractive;
  if (args.workload == "elastic-switch") run = RunElasticSwitch;
  if (args.workload == "deadline-tuner") run = RunDeadlineTuner;
  if (run == nullptr || args.seconds < 1) return Usage(argv[0]);

  Expected expected;
  std::string error;
  if (!expected.Load(expected_path, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  RunResult result(args.trace);
  run(args, expected, &result);
  if (!result.setup_ok) {
    std::fprintf(stderr, "set-up failed; no result\n");
    return 1;
  }

  std::printf("config: %s\n", result.config_json.c_str());
  result.named.Print("workload metrics:");
  result.e2e.Print("end-to-end metrics:");
  const Metrics* reported = &result.e2e;
  if (args.trace) {
    result.layer.Set("trace.spans", static_cast<double>(result.tracer.size()),
                     "count");
    // run.py compares this with an untraced run of the same seed.
    result.layer.Set("trace.query_geomean_ms",
                     result.e2e.Value("query_geomean_ms"), "ms");
    result.layer.Print("per-layer metrics:");
    std::string path = trace_dir + "/trace-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json";
    if (result.tracer.WriteChromeTrace(path, result.config_json)) {
      std::printf("trace: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    }
    reported = &result.layer;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              reported->ToJson().c_str());
  return 0;
}
