// shredder_perfbench: runs one benchmark workload and prints its report as
// one JSON line on stdout. perfbench/run.py builds this binary, stamps the
// report with provenance and prints the benchmark's result line.
//
//   shredder_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--spans-out PATH]
//
// Exit status: 0 when every correctness gate held, 1 when one failed, 2 on
// a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "shredder_perfbench: %s\n"
               "usage: shredder_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string spans_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      } else if (arg == "--spans-out") {
        spans_out = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }
  if (!spans_out.empty() && !report.spans_json.empty()) {
    std::ofstream(spans_out) << report.spans_json;
  }
  std::printf("%s\n", report.to_json().c_str());
  return report.correct() ? 0 : 1;
}
