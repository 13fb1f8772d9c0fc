// imbench_perf: runs one benchmark workload and prints its report as one
// JSON line (metrics, output checks, operation counts, per-layer rows).
// perfbench/run.py builds this binary, runs it and turns the report into
// the benchmark's result line.
//
//   imbench_perf --workload=wc --seed=1 --seconds=10 --trace=0
//                --work-dir=.bench_build/work
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "workload.h"

int main(int argc, char** argv) {
  imbench::FlagSet flags("imbench performance benchmark workload");
  std::string* workload = flags.AddString(
      "workload", "", "wc | lt");
  int64_t* seed = flags.AddInt("seed", 1, "workload seed");
  double* seconds = flags.AddDouble("seconds", 10, "nominal measured time");
  int64_t* trace = flags.AddInt("trace", 0, "1 = traced per-layer run");
  std::string* work_dir =
      flags.AddString("work-dir", ".", "directory for scratch files");
  flags.Parse(argc, argv);

  perfbench::BenchArgs args;
  args.workload = *workload;
  args.seed = static_cast<uint64_t>(*seed);
  args.seconds = *seconds;
  args.trace = *trace != 0;
  args.work_dir = *work_dir;
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(*workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload->c_str());
    return 2;
  }
  perfbench::Report report;
  const int status = perfbench::RunWorkload(*spec, args, report);
  if (status != 0) return status;
  report.Print();
  return 0;
}
