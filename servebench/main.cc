// Serving benchmark for the AW-MoE serving stack.
//
//   servebench --workload <fresh_pages|repeat_pages|paper_rerank>
//              --seed <n> --seconds <s> --trace <0|1> [--out_dir <dir>]
//
// The seed makes every input: the synthetic corpus and users, the
// served models' training runs, and the arrival streams. The last
// stdout line is the result JSON: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1 (that run also writes a Chrome
// trace-event file). See README.md for the workloads.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  const servebench::Clock::time_point process_start =
      servebench::Clock::now();
  servebench::RunOptions options;
  std::string error;
  if (!servebench::ParseRunOptions(argc, argv, &options, &error)) {
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    return 2;
  }
  if (options.workload == "fresh_pages" ||
      options.workload == "repeat_pages") {
    return servebench::RunFleetWorkload(options, process_start);
  }
  if (options.workload == "paper_rerank") {
    return servebench::RunRerankWorkload(options, process_start);
  }
  std::fprintf(stderr, "servebench: unknown workload %s\n",
               options.workload.c_str());
  return 2;
}
