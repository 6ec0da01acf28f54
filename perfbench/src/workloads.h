// The benchmark's workloads: one process, at most three worker threads,
// closed loops, set-up finished before timing starts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory the run owns (checkpoint frames); removed at exit.
  std::string dir;
};

struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunReport {
  std::vector<std::pair<std::string, OpCount>> ops;  // per operation kind
  std::vector<std::pair<std::string, std::uint64_t>> samples;
  // Per-round values behind the end-to-end medians.
  std::vector<std::pair<std::string, std::vector<double>>> per_round;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // traced runs only
  // Peak resident set before the first round, in MiB: the binary, the
  // generated inputs, the worker threads and their sample buffers.
  double harness_rss_mib = 0;
  std::vector<std::string> errors;  // the first few failures, described
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
};

const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for an unknown workload.
RunReport run_workload(const RunConfig& config);

}  // namespace pb
