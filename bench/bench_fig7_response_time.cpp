// FIG7 — reproduces the paper's Figure 7 (§V.A): average event response
// time under request loads of 10..100 requests/sec, for each Java Grande
// kernel and each event-handling approach.
//
// Paper expectation: the sequential version's response time grows rapidly
// with load (events queue behind the busy EDT); SwingWorker,
// ExecutorService and Pyjama offload and stay close together and far below
// sequential, with Pyjama "equal and often superior" to the manual
// baselines; synchronous-parallel improves on sequential (shorter handler)
// but still occupies the EDT per event.
//
// Flags: --kernels=crypt,raytracer,montecarlo,series --loads=10,25,50,75,100
//        --events=N (per round; scaled with load by default) --real
//        --handler-ms=16 --workers=3 --full --csv=DIR

#include <cstdio>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "gui_bench.hpp"

namespace {

using evmp::baselines::Approach;
using evmp::baselines::to_string;

std::vector<std::string> split_names(const std::string& csv,
                                     std::vector<std::string> fallback) {
  if (csv.empty()) return fallback;
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out.empty() ? fallback : out;
}

}  // namespace

int main(int argc, char** argv) {
  const evmp::common::CliArgs args(argc, argv);
  auto base = evmp::bench::config_from_cli(args);
  const bool full = args.get_bool("full", false);

  const auto kernels = split_names(
      args.get("kernels", ""), {"crypt", "raytracer", "montecarlo", "series"});
  const auto loads =
      args.get_long_list("loads", full ? std::vector<long>{10, 20, 30, 40, 50,
                                                           60, 70, 80, 90, 100}
                                       : std::vector<long>{10, 25, 50, 75,
                                                           100});
  const std::string csv_dir = args.get("csv", "");

  std::printf(
      "FIG7: average event response time (ms) vs request load (req/s)\n");
  evmp::bench::print_environment_banner(base);

  for (const auto& kernel : kernels) {
    evmp::common::TextTable table;
    std::vector<std::string> header{"load(req/s)"};
    for (Approach a : evmp::bench::figure7_approaches()) {
      header.emplace_back(to_string(a));
    }
    table.set_header(header);

    for (long load : loads) {
      auto config = base;
      config.kernel = kernel;
      config.rate_hz = static_cast<double>(load);
      if (!args.has("events")) {
        // Keep each round ~1 second of firing regardless of load.
        config.events = static_cast<std::size_t>(
            std::max<long>(8, full ? load * 3 : load));
      }
      std::vector<std::string> row{std::to_string(load)};
      for (Approach a : evmp::bench::figure7_approaches()) {
        const auto outcome = evmp::bench::run_gui_round(a, config);
        double mean = outcome.load.response.mean_ns() / 1e6;
        if (!outcome.load.all_completed) {
          std::fprintf(stderr, "# warning: %s/%s/load=%ld left %llu stragglers\n",
                       kernel.c_str(), std::string(to_string(a)).c_str(), load,
                       static_cast<unsigned long long>(
                           outcome.load.fired - outcome.load.completed));
        }
        if (outcome.gui_violations != 0) {
          std::fprintf(stderr, "# ERROR: GUI confinement violated (%llu)\n",
                       static_cast<unsigned long long>(outcome.gui_violations));
        }
        row.push_back(evmp::common::fmt(mean, 2));
      }
      table.add_row(row);
    }

    std::printf("\n## kernel: %s (avg response time, ms)\n", kernel.c_str());
    table.print(std::cout);
    if (!csv_dir.empty()) {
      evmp::common::write_csv(table, csv_dir + "/fig7_" + kernel + ".csv");
    }
  }
  return 0;
}
