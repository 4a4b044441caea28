// aquabench — end-to-end and per-layer benchmark of aqua.
//
//   aquabench gen --workload W --seed N --dir D
//   aquabench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--aquad PATH] [--trace-file F] [--max-rounds R]
//                 [--perturb KEY]
//
// `gen` writes the inputs and reference answers into D; `run` answers the
// workload against them and prints, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. aquabench/run.py drives
// both; see aquabench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

using aquabench::Args;

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--dir") a->dir = v;
    else if (k == "--aquad") a->aquad = v;
    else if (k == "--trace-file") a->trace_file = v;
    else if (k == "--perturb") a->perturb = v;
    else if (k == "--max-rounds") a->max_rounds = std::atoi(v.c_str());
    else return false;
  }
  return (argc % 2) == 0 && !a->workload.empty() && !a->dir.empty();
}

void PrintResult(const aquabench::RunResult& r) {
  std::string counts = "{";
  for (const auto& [name, value] : r.counts) {
    if (counts.size() > 1) counts += ", ";
    counts += "\"" + name + "\": " + std::to_string(value);
  }
  std::printf("counts: %s}\n", counts.c_str());
  if (!r.correct) std::printf("INCORRECT: %s\n", r.first_error.c_str());
  std::string metrics;
  for (const aquabench::Metric& m : r.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + aquabench::Num(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aquabench gen|run --workload W --seed N --dir D "
                 "[--seconds S] [--trace 0|1] [--aquad PATH] "
                 "[--trace-file F] [--max-rounds R] [--perturb KEY]\n");
    return 2;
  }
  if (args.mode == "gen") return aquabench::RunGen(args);
  if (args.mode != "run") return 2;
  aquabench::RunResult result;
  int rc = 2;
  if (args.workload == aquabench::kServiceMix) {
    rc = aquabench::RunService(args, &result);
  } else if (args.workload == aquabench::kFileToAnswer ||
             args.workload == aquabench::kCountDistribution) {
    rc = aquabench::RunInProcess(args, &result);
  }
  if (rc != 0) return rc;
  PrintResult(result);
  return result.correct ? 0 : 1;
}
