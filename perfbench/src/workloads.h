// The four benchmark workloads and the two kinds of run over them:
//
//   untraced (--trace 0): repeated set-up + timed phase + restore, tracing
//     off; reports the end-to-end metrics as medians over the repetitions.
//   traced (--trace 1): untraced and traced repetitions alternate (their
//     host throughput ratio is the tracing overhead), then the generated
//     inputs are replayed layer by layer through each module's public entry
//     points with a span around every call; reports the per-layer metrics.
//
// Inputs are generated from the seed before anything is timed. Every
// output is checked outside the timed phases against an oracle (serial
// chunking, host SHA-256, exact dedup accounting, bit-identical restores,
// bit-identical virtual time across repetitions).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Per-layer metrics a traced run reports, every one on every workload; a
// layer the workload never enters reads 0.
const std::vector<MetricSpec>& per_layer_specs();

struct GateResult {
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
};

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::size_t reps = 0;
  MetricSet metrics;
  // Host-time samples behind each median metric, keyed by metric name.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, GateResult> gates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::vector<std::string> notes;
  std::string spans_json;  // traced runs: Chrome trace-event JSON

  bool correct() const;
  std::string to_json() const;  // one line
};

// Throws std::invalid_argument for an unknown workload name.
Report run_workload(const RunOptions& options);

}  // namespace perfbench
