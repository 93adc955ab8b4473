// FIG8 — reproduces the paper's Figure 8 / §V.A responsiveness analysis:
// how responsive the EDT itself stays under load for each approach.
//
// A probe thread posts no-op events to the EDT every few milliseconds; the
// time each probe waits before being dispatched is the user-perceived UI
// latency. We also report the fraction of wall time the EDT spent inside
// handlers.
//
// Paper expectation: "the EDT in the synchronous parallel approach is
// actually unresponsive for a longer time compared to other approaches" —
// syncparallel (and worse, sequential) show high probe latency and EDT
// busy%, while every offloading approach (SwingWorker / ExecutorService /
// Pyjama / async-parallel) keeps both near zero.
//
// Flags: --kernel=crypt --load=50 --events=N --real --handler-ms=16 --csv=DIR

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "gui_bench.hpp"

int main(int argc, char** argv) {
  using evmp::baselines::Approach;
  using evmp::baselines::to_string;

  const evmp::common::CliArgs args(argc, argv);
  auto config = evmp::bench::config_from_cli(args);
  config.kernel = args.get("kernel", "crypt");
  config.rate_hz = static_cast<double>(args.get_long("load", 50));
  if (!args.has("events")) {
    config.events = static_cast<std::size_t>(
        std::max<long>(16, static_cast<long>(config.rate_hz)));
  }
  config.probe_period = evmp::common::Millis{2};

  std::printf("FIG8: EDT responsiveness at %.0f req/s, kernel=%s\n",
              config.rate_hz, config.kernel.c_str());
  evmp::bench::print_environment_banner(config);

  evmp::common::TextTable table;
  table.set_header({"approach", "probe p50(ms)", "probe p99(ms)",
                    "edt busy(%)", "avg resp(ms)", "events on EDT"});
  for (Approach a : evmp::bench::figure7_approaches()) {
    const auto outcome = evmp::bench::run_gui_round(a, config);
    table.add_row({std::string(to_string(a)),
                   evmp::common::fmt(outcome.probe_p50_ms, 3),
                   evmp::common::fmt(outcome.probe_p99_ms, 3),
                   evmp::common::fmt(outcome.edt_busy_pct, 1),
                   evmp::common::fmt(outcome.load.response.mean_ns() / 1e6, 2),
                   std::to_string(outcome.edt_events)});
  }
  table.print(std::cout);

  const std::string csv_dir = args.get("csv", "");
  if (!csv_dir.empty()) {
    evmp::common::write_csv(table, csv_dir + "/fig8_" + config.kernel + ".csv");
  }
  return 0;
}
