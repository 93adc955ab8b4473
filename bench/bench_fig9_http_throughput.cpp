// FIG9 — reproduces the paper's Figure 9 (§V.B): throughput of the HTTP
// encryption service vs number of concurrent worker threads, for the Jetty
// fixed-pool connector and the Pyjama virtual-target connector, each with
// and without per-event parallelisation of the kernel.
//
// Paper expectation: "both Jetty and Pyjama have good scaling performance
// as the number of concurrency worker threads increases. When the
// parallelization of each event ... is used in combination with either
// Jetty or Pyjama, it initially results in dramatically better throughput.
// Yet, as the number of concurrency worker threads is increased, the
// throughput levels off ... because every parallelization computation
// spawns its own set of worker threads" — oversubscription.
//
// Flags: --threads=1,2,4,8,16,32 --users=50 --requests=2 --payload=4096
//        --width=3 (per-request team for +parallel) --real --handler-ms=20
//        --full --csv=DIR
//
// --real-net switches to the real network front end (EXPERIMENTS.md §NET1):
// an open-loop offered-load sweep through net::LoadClient against the
// epoll-reactor net::Server running the same encryption handler, producing
// the latency-vs-offered-load curve past the saturation knee into
// <csv>/fig9_latency.csv. Knobs: --net-sweep=25,50,100,200,400 (offered
// rates, req/s) --net-conns=256 --net-duration=5 --net-high=512
// (shed high watermark; low = 3/4 of it).

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/tracing.hpp"
#include "forkjoin/team.hpp"
#include "forkjoin/team_pool.hpp"
#include "httpsim/connector.hpp"
#include "httpsim/encryption_service.hpp"
#include "httpsim/virtual_users.hpp"
#include "kernels/crypt.hpp"
#include "net/load_client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace {

using evmp::http::EncryptionService;
using evmp::http::HttpLoadResult;
using evmp::http::VirtualUserOptions;

struct Config {
  std::size_t payload = 4096;
  int parallel_width = 3;
  evmp::kernels::WorkModel model = evmp::kernels::WorkModel::kSimulated;
  evmp::common::Millis handler_ms{20};
  VirtualUserOptions users;
};

EncryptionService::Config service_config(const Config& cfg, bool parallel,
                                         bool pooled, bool adaptive = false) {
  EncryptionService::Config sc;
  sc.payload_bytes = cfg.payload;
  sc.parallel_width = parallel ? cfg.parallel_width : 1;
  sc.pooled_team = pooled;
  sc.adaptive_width = adaptive;
  sc.work_model = cfg.model;
  if (cfg.model == evmp::kernels::WorkModel::kSimulated) {
    // Split the handler's simulated duration across the crypt units.
    evmp::kernels::CryptKernel probe(cfg.payload);
    sc.per_unit = std::chrono::duration_cast<evmp::common::Nanos>(
                      cfg.handler_ms) /
                  std::max<long>(1, probe.units());
  }
  return sc;
}

HttpLoadResult run_one(const Config& cfg, bool pyjama, bool parallel,
                       int workers, bool pooled = false,
                       bool adaptive = false) {
  EncryptionService service(service_config(cfg, parallel, pooled, adaptive));
  if (pyjama) {
    evmp::http::PyjamaConnector connector(workers, service.handler());
    return evmp::http::run_virtual_users(connector, cfg.users);
  }
  evmp::http::JettyConnector connector(workers, service.handler());
  return evmp::http::run_virtual_users(connector, cfg.users);
}

/// --real-net: drive the epoll front end with the open-loop client and
/// write the offered-load vs latency curve. Returns the process exit code.
int run_real_net(const evmp::common::CliArgs& args, const Config& cfg) {
  const auto conns =
      static_cast<std::size_t>(args.get_long("net-conns", 256));
  const double duration = args.get_double("net-duration", 5.0);
  const auto threads = static_cast<int>(args.get_long("net-threads", 2));
  const auto high =
      static_cast<std::size_t>(args.get_long("net-high", 512));
  const auto sweep = args.get_long_list(
      "net-sweep", std::vector<long>{25, 50, 100, 200, 400});
  const std::string csv_dir = args.get("csv", "results");

  if (!evmp::net::raise_fd_limit(2 * conns + 512)) {
    std::fprintf(stderr, "FIG9: could not raise RLIMIT_NOFILE for %zu "
                         "connections\n", conns);
  }

  evmp::Runtime rt;
  rt.create_worker("worker", threads);
  EncryptionService service(service_config(cfg, /*parallel=*/false,
                                           /*pooled=*/false));
  evmp::net::Server::Config sc;
  sc.mode = evmp::net::Server::Mode::kHandler;
  sc.handler = service.handler();
  sc.high_watermark = high;
  sc.low_watermark = high * 3 / 4;
  evmp::net::Server server(rt, sc);
  server.start();

  evmp::net::LoadClient client(server.port(), conns, cfg.payload,
                               /*seed=*/42);
  const std::size_t up = client.connect_all();
  std::printf("FIG9 --real-net: %zu/%zu connections, %d worker threads, "
              "~%lldms handler, shed watermarks %zu/%zu\n",
              up, conns, threads,
              static_cast<long long>(cfg.handler_ms.count()), high,
              high * 3 / 4);
  if (up == 0) {
    std::fprintf(stderr, "FIG9: no connections established\n");
    return 2;
  }

  const std::string path = csv_dir + "/fig9_latency.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FIG9: cannot write %s\n", path.c_str());
    return 2;
  }
  std::fprintf(f,
               "offered_hz,sent,ok,shed,errors,wall_s,p50_ns,p90_ns,p99_ns,"
               "p999_ns,max_ns,mean_ns\n");
  for (const long rate : sweep) {
    const evmp::net::RoundResult r = client.run_round(
        static_cast<double>(rate), duration, /*poisson=*/true,
        /*drain_timeout_s=*/15.0);
    const evmp::common::LatencyQuantiles q = r.latency.quantiles();
    std::printf("  offered=%5ld/s ok=%7llu shed=%6llu p50=%8.3fms "
                "p99=%8.3fms p999=%8.3fms%s\n",
                rate, static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.shed), q.p50 / 1e6,
                q.p99 / 1e6, q.p999 / 1e6,
                r.drained ? "" : "  [drain timeout]");
    std::fprintf(
        f, "%.0f,%llu,%llu,%llu,%llu,%.3f,%llu,%llu,%llu,%llu,%llu,%.0f\n",
        r.offered_hz, static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.errors), r.wall_seconds,
        static_cast<unsigned long long>(q.p50),
        static_cast<unsigned long long>(q.p90),
        static_cast<unsigned long long>(q.p99),
        static_cast<unsigned long long>(q.p999),
        static_cast<unsigned long long>(q.max), q.mean_ns);
  }
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
  server.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const evmp::common::CliArgs args(argc, argv);
  const bool full = args.get_bool("full", false);

  Config cfg;
  cfg.payload = static_cast<std::size_t>(args.get_long("payload", 4096));
  cfg.parallel_width = static_cast<int>(args.get_long("width", 3));
  cfg.model = args.get_bool("real", false)
                  ? evmp::kernels::WorkModel::kReal
                  : evmp::kernels::WorkModel::kSimulated;
  cfg.handler_ms = evmp::common::Millis{args.get_long("handler-ms", 20)};
  cfg.users.users = static_cast<int>(args.get_long("users", full ? 100 : 50));
  cfg.users.requests_per_user =
      static_cast<int>(args.get_long("requests", full ? 5 : 2));
  cfg.users.payload_bytes = cfg.payload;
  evmp::kernels::set_simulated_cores(
      static_cast<int>(args.get_long("sim-cores", 16)));
  if (cfg.model == evmp::kernels::WorkModel::kSimulated) {
    // The governor must budget against the simulated machine's cores, not
    // the container's, or adaptive widths would track the wrong host.
    evmp::fj::TeamPool::instance().governor().set_cores(
        evmp::kernels::simulated_cores());
  }

  if (args.get_bool("real-net", false)) return run_real_net(args, cfg);

  const auto thread_counts = args.get_long_list(
      "threads", full ? std::vector<long>{1, 2, 4, 8, 16, 24, 32}
                      : std::vector<long>{1, 2, 4, 8, 16});

  std::printf("FIG9: HTTP encryption service throughput (responses/sec)\n");
  std::printf("# %d virtual users x %d requests, payload %zuB, %s work "
              "(~%lldms/request sequential)\n",
              cfg.users.users, cfg.users.requests_per_user, cfg.payload,
              cfg.model == evmp::kernels::WorkModel::kReal ? "real"
                                                           : "simulated",
              static_cast<long long>(cfg.handler_ms.count()));
  if (cfg.model == evmp::kernels::WorkModel::kSimulated) {
    std::printf("# simulated machine: %d virtual cores (paper: 16-core "
                "Xeon); per-request +parallel team width %d\n",
                evmp::kernels::simulated_cores(), cfg.parallel_width);
  }

  evmp::common::TextTable table;
  table.set_header({"workers", "jetty", "pyjama", "jetty+parallel",
                    "pyjama+parallel", "pyjama+par(pooled)",
                    "pyjama+par(adaptive)", "p50 ms", "p99 ms", "p999 ms",
                    "teams spawned", "pooled helpers"});

  for (long workers : thread_counts) {
    const auto helper_threads_before =
        evmp::fj::total_helper_threads_created();
    std::vector<std::string> row{std::to_string(workers)};
    for (const bool parallel : {false, true}) {
      for (const bool pyjama : {false, true}) {
        const auto result =
            run_one(cfg, pyjama, parallel, static_cast<int>(workers));
        if (result.failed != 0) {
          std::fprintf(stderr, "# ERROR: %llu failed responses\n",
                       static_cast<unsigned long long>(result.failed));
        }
        row.push_back(evmp::common::fmt(result.throughput_rps, 1));
      }
    }
    const auto teams = (evmp::fj::total_helper_threads_created() -
                        helper_threads_before) /
                       static_cast<std::uint64_t>(
                           std::max(1, cfg.parallel_width - 1));
    // The pooled-team series: same per-request parallelisation, but the
    // handler leases a cached fj::Team instead of spawning one — helper
    // creation stays flat instead of growing with request count.
    const auto pooled_before = evmp::fj::total_helper_threads_created();
    const auto pooled = run_one(cfg, /*pyjama=*/true, /*parallel=*/true,
                                static_cast<int>(workers), /*pooled=*/true);
    if (pooled.failed != 0) {
      std::fprintf(stderr, "# ERROR: %llu failed pooled responses\n",
                   static_cast<unsigned long long>(pooled.failed));
    }
    row.push_back(evmp::common::fmt(pooled.throughput_rps, 1));
    // The adaptive series: the WidthGovernor sizes each request's team from
    // live load — full hint width on an idle machine, narrower (down to 1)
    // under the request storm, so it must not drop below the plain
    // connectors even at the highest worker counts.
    const auto adaptive =
        run_one(cfg, /*pyjama=*/true, /*parallel=*/true,
                static_cast<int>(workers), /*pooled=*/true,
                /*adaptive=*/true);
    if (adaptive.failed != 0) {
      std::fprintf(stderr, "# ERROR: %llu failed adaptive responses\n",
                   static_cast<unsigned long long>(adaptive.failed));
    }
    row.push_back(evmp::common::fmt(adaptive.throughput_rps, 1));
    // Round-trip latency quantiles of the adaptive series, from the
    // HDR-style histogram (not a mean): the tail is what the paper's
    // oversubscription mechanism actually moves.
    const evmp::common::LatencyQuantiles lq = adaptive.latency.quantiles();
    row.push_back(evmp::common::fmt(static_cast<double>(lq.p50) / 1e6, 2));
    row.push_back(evmp::common::fmt(static_cast<double>(lq.p99) / 1e6, 2));
    row.push_back(evmp::common::fmt(static_cast<double>(lq.p999) / 1e6, 2));
    row.push_back(std::to_string(teams));
    row.push_back(std::to_string(evmp::fj::total_helper_threads_created() -
                                 pooled_before));
    table.add_row(row);
  }
  table.print(std::cout);
  std::printf("# 'teams spawned': per-request fork-join teams created by the "
              "+parallel variants in this row (the paper's oversubscription "
              "mechanism). 'pooled helpers': helper threads created during "
              "the pooled-team run — grows only to the row's concurrency "
              "high-water mark (workers x (width-1) at most), not with the "
              "request count; that is the fix for that mechanism. "
              "'p50/p99/p999 ms': round-trip latency quantiles of the "
              "adaptive series from the log-bucketed latency histogram.\n");

  // Run-queue counters published by the executors of the final run (worker
  // pool, dispatcher loop) plus the team pool's width decisions; see
  // common::Tracer.
  evmp::fj::TeamPool::instance().publish_counters();
  std::printf("# executor counters (last run):\n");
  for (const auto& [counter, value] :
       evmp::common::Tracer::instance().counters()) {
    std::printf("#   %-32s %llu\n", counter.c_str(),
                static_cast<unsigned long long>(value));
  }

  const std::string csv_dir = args.get("csv", "");
  if (!csv_dir.empty()) {
    evmp::common::write_csv(table, csv_dir + "/fig9.csv");
  }
  return 0;
}
