// perfbench: the repository benchmark driver (one workload per process).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --list            (the workload names, one a line)
//
// --trace 0 measures with tracing off and reports the bounded end-to-end
// metrics. --trace 1 runs the workload twice, each for half the time:
// untraced, then traced (spans and counters around the benchmark's own
// calls into every layer). It reports the unbounded end-to-end figures of
// the untraced pass, the per-layer metrics of the traced pass, and for
// every end-to-end figure the traced value minus the untraced one.
//
// Output: a line {"perfbench_info": ...} with the host fingerprint, the
// modules the workload calls into, every end-to-end figure measured and
// the phase details, then as the last line {"correct", "attempted",
// "failed", "metrics"}. A failed check prints the result with "correct":
// false, names the workload on stderr and exits 1; bad arguments exit 2;
// overrunning the wall-clock cap exits 3.

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

namespace {

using perfbench::json_number;
using perfbench::json_string;
using perfbench::Metric;

// The end-to-end metrics BENCHMARK.json bounds. The workloads measure more
// (latency percentiles, probe latency, capacity, saturated throughput,
// allocations and failures per operation) and print them in the info line.
// On the 4-vCPU reference host those did not repeat within any allowed
// bound from run to run: the host steals 15-25% of the CPU for minutes at
// a time, which moves every latency and rate. Traced runs report them,
// from their untraced pass, as per-layer metrics instead.
bool bounded(std::string_view name) {
  return name == "setup_s" || name == "ok_ratio" ||
         name == "cpu_ms_per_kop" || name == "peak_rss_mb";
}

// The src/ modules each workload calls into.
const char* modules_of(std::string_view workload) {
  if (workload == "echo_small") {
    return R"(["net", "core", "executor", "common"])";
  }
  if (workload == "crypt_service") {
    return R"(["net", "core", "executor", "httpsim", "forkjoin", "kernels", )"
           R"("common"])";
  }
  if (workload == "edt_await") {
    return R"(["event", "core", "executor", "common"])";
  }
  return R"(["core", "executor", "common"])";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  std::exit(2);
}

/// Ends the process if the workload overruns its cap, naming it.
class Watchdog {
 public:
  Watchdog(std::string workload, double cap_s)
      : thread_([this, workload = std::move(workload), cap_s] {
          std::unique_lock lk(mu_);
          const auto cap = std::chrono::duration<double>(cap_s);
          if (!cv_.wait_for(lk, cap, [this] { return done_; })) {
            std::fprintf(stderr,
                         "perfbench: workload %s exceeded its wall-clock cap "
                         "of %.0f s\n",
                         workload.c_str(), cap_s);
            std::fflush(stderr);
            ::_exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::scoped_lock lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

perfbench::Options parse_args(int argc, char** argv, bool* traced) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list") {
      for (const auto& name : perfbench::workload_names()) {
        std::printf("%s\n", name.c_str());
      }
      std::exit(0);
    }
    if (i + 1 >= argc) usage("missing value after an option");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        *traced = value == "1";
      } else {
        usage("unknown option");
      }
    } catch (const std::exception&) {
      usage("malformed number");
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const auto& name : perfbench::workload_names()) {
    known = known || name == opt.workload;
  }
  if (!known) usage("unknown workload");
  if (!(opt.seconds >= 0.5 && opt.seconds <= 120)) {
    usage("--seconds must be in [0.5, 120]");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  bool traced = false;
  const perfbench::Options opt = parse_args(argc, argv, &traced);

  Watchdog watchdog(opt.workload, std::min(170.0, 60.0 + 3.0 * opt.seconds));
  perfbench::Result result;
  std::string info;
  try {
    if (!traced) {
      result = perfbench::run_workload(opt);
      info = "\"measured\": " + metrics_json(result.e2e) +
             ", \"untraced\": " + result.info_json;
      std::erase_if(result.e2e,
                    [](const Metric& m) { return !bounded(m.name); });
    } else {
      perfbench::Options half = opt;
      half.seconds = opt.seconds / 2;
      const perfbench::Result plain = perfbench::run_workload(half);
      half.traced = true;
      result = perfbench::run_workload(half);
      info = "\"measured\": " + metrics_json(plain.e2e) +
             ", \"untraced\": " + plain.info_json +
             ", \"traced\": " + result.info_json;
      std::vector<Metric> layer;
      for (const Metric& m : plain.e2e) {
        if (!bounded(m.name)) layer.push_back(m);
      }
      layer.insert(layer.end(), result.layer.begin(), result.layer.end());
      for (std::size_t i = 0; i < result.e2e.size(); ++i) {
        const Metric& m = result.e2e[i];
        layer.push_back({"trace_overhead." + m.name,
                         m.value - plain.e2e[i].value, m.unit});
      }
      result.layer = std::move(layer);
      result.attempted += plain.attempted;
      result.failed += plain.failed;
      result.problems.insert(result.problems.begin(), plain.problems.begin(),
                             plain.problems.end());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  const bool correct = result.problems.empty() && result.attempted > 0;
  std::string problems = "[";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    problems += (i ? ", " : "") + json_string(result.problems[i]);
  }
  problems += "]";
  std::printf(
      "{\"perfbench_info\": {\"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"host\": %s, \"modules\": %s, "
      "\"problems\": %s, %s}}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      json_number(opt.seconds).c_str(), traced ? 1 : 0,
      perfbench::host_fingerprint_json().c_str(), modules_of(opt.workload),
      problems.c_str(), info.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      metrics_json(traced ? result.layer : result.e2e).c_str());
  std::fflush(stdout);
  if (!correct) {
    for (const auto& p : result.problems) {
      std::fprintf(stderr, "perfbench: workload %s: %s\n",
                   opt.workload.c_str(), p.c_str());
    }
    return 1;
  }
  return 0;
}
