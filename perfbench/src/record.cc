// Records expected.txt: the row count and digest of every query the
// workloads check, computed with the optimizer off (the legacy textual
// planner) at DOP 1 on a native cluster of each workload's SF.
#include <cstdio>

#include "tpch/queries.h"
#include "workloads.h"

namespace perfbench {

namespace {

bool Emit(const std::string& key, const QueryRun& run) {
  if (!run.ok) {
    std::fprintf(stderr, "%s failed: %s\n", key.c_str(), run.error.c_str());
    return false;
  }
  std::printf("%s %lld %s\n", key.c_str(), static_cast<long long>(run.rows),
              HexDigest(run.digest).c_str());
  return true;
}

}  // namespace

int RecordExpected() {
  Tracer tracer(false);
  bool ok = true;
  std::printf("# key rows digest — recorded by `perfbench --record-expected` "
              "with the optimizer off\n");
  {
    AccordionCluster cluster(NativePreset(kTpchScaleFactor, 2, 4));
    accordion::SessionOptions session_options;
    session_options.query_defaults.optimizer =
        accordion::OptimizerOptions::Off();
    Session session(cluster.coordinator(), session_options);
    for (int q = 1; q <= 12; ++q) {
      std::string sql = accordion::TpchQuerySql(q);
      ok &= Emit("tpch/Q" + std::to_string(q),
                 RunQuery([&] { return session.Execute(sql); }, &tracer, 0, 0));
    }
    for (const ShortQuery& shape : ShortQueries(kTpchScaleFactor)) {
      if (shape.key_hi < shape.key_lo) {
        ok &= Emit(shape.key,
                   RunQuery([&] { return session.Execute(shape.sql); },
                            &tracer, 0, 0));
        continue;
      }
      auto statement = session.Prepare(shape.sql);
      if (!statement.ok()) return 1;
      for (int64_t key = shape.key_lo; key <= shape.key_hi; ++key) {
        ok &= Emit(std::string(shape.key) + "/" + std::to_string(key),
                   RunQuery(
                       [&] {
                         return session.Execute(*statement,
                                                {accordion::Value::Int(key)});
                       },
                       &tracer, 0, 0));
      }
    }
  }
  for (double sf : {kTunerScaleFactor, kElasticScaleFactor}) {
    AccordionCluster cluster(NativePreset(sf, 4, 4));
    Session session(cluster.coordinator());
    auto plan = accordion::TpchQ2JPlan(session.catalog());
    ok &= Emit(Q2JKey(sf),
               RunQuery([&] { return session.Execute(plan); }, &tracer, 0, 0));
  }
  return ok ? 0 : 1;
}

}  // namespace perfbench
