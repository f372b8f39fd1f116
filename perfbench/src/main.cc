// perfbench: the end-to-end benchmark of the CMIF serving system.
//
//   perfbench --workload <cold_compile|warm_hit|stream_delivery|edit_publish>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Diagnostics go to standard error; the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics of the
// traced in-process replay (and writes its span file under .bench_out/).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.seconds <= 0 || argc % 2 == 0) {
    return Usage();
  }
  cmif::StatusOr<perfbench::RunResult> result =
      options.trace ? perfbench::RunTraced(options) : perfbench::RunUntraced(options);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::cout << perfbench::ResultJson(*result) << std::endl;
  return 0;
}
