#pragma once
// The four benchmark workloads. Each builds the system through the
// program's public API, drives it from benchmark-owned threads, checks
// every output, and reports end-to-end metrics (and, when traced, the
// per-layer metrics measured around its own calls into each module).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time: fixed load + saturation + ladder
  bool traced = false;
};

struct Result {
  std::uint64_t attempted = 0;  ///< operations at the fixed load
  std::uint64_t failed = 0;     ///< shed, lost or wrong among them
  std::vector<std::string> problems;  ///< failed correctness checks
  std::vector<Metric> e2e;
  std::vector<Metric> layer;  ///< filled by traced runs only
  std::string info_json;      ///< phase details (ladder, sample counts...)
};

/// Names of the workloads perfbench can run (BENCHMARK.json lists the ones
/// the regression gate measures).
const std::vector<std::string>& workload_names();

/// Run one workload; unknown names throw std::invalid_argument.
Result run_workload(const Options& options);

}  // namespace perfbench
