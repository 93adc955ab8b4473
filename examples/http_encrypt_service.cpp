// http_encrypt_service — the paper's §V.B case study as a runnable demo:
// an encryption service behind (a) a Jetty-style fixed thread pool and
// (b) a Pyjama-style dispatcher with a worker virtual target, loaded by a
// swarm of closed-loop virtual users.
//
// Run: ./build/examples/http_encrypt_service
//      [--users=20] [--requests=3] [--workers=4] [--payload=8192]
//      [--parallel]   (parallelise each request with a per-request team)
//      [--pooled]     (with --parallel: lease teams from fj::TeamPool
//                      instead of spawning one per request — the fix for
//                      the paper's Figure 9 oversubscription collapse)
//      [--adaptive]   (with --parallel: let the pool's WidthGovernor size
//                      each request's team from live load — wide when the
//                      service is idle, narrow under a request storm)
//      [--real-net]   (serve over real loopback HTTP instead of the
//                      in-process connectors: the epoll reactor accepts
//                      connections, the worker virtual target runs the
//                      same handler, and an open-loop client offers
//                      --rate req/s for --duration seconds)

#include <cstdio>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "core/runtime.hpp"
#include "forkjoin/team.hpp"
#include "forkjoin/team_pool.hpp"
#include "httpsim/connector.hpp"
#include "httpsim/encryption_service.hpp"
#include "httpsim/virtual_users.hpp"
#include "net/load_client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace {

/// --real-net: the same service behind the epoll front end, over real
/// sockets, measured open-loop.
int run_real_net(const evmp::common::CliArgs& args,
                 const evmp::http::EncryptionService::Config& cfg,
                 int workers) {
  const auto conns = static_cast<std::size_t>(args.get_long("conns", 128));
  const double rate = args.get_double("rate", 500.0);
  const double duration = args.get_double("duration", 3.0);
  if (!evmp::net::raise_fd_limit(2 * conns + 512)) {
    std::fprintf(stderr, "could not raise RLIMIT_NOFILE for %zu conns\n",
                 conns);
  }

  evmp::Runtime rt;
  rt.create_worker("worker", workers);
  evmp::http::EncryptionService service(cfg);
  evmp::net::Server::Config sc;
  sc.mode = evmp::net::Server::Mode::kHandler;
  sc.handler = service.handler();
  evmp::net::Server server(rt, sc);
  server.start();

  evmp::net::LoadClient client(server.port(), conns, cfg.payload_bytes,
                               /*seed=*/7);
  const std::size_t up = client.connect_all();
  std::printf("real-net: %zu/%zu loopback connections to port %u\n", up,
              conns, server.port());
  if (up == 0) return 2;
  const evmp::net::RoundResult r =
      client.run_round(rate, duration, /*poisson=*/true,
                       /*drain_timeout_s=*/10.0);
  const evmp::common::LatencyQuantiles q = r.latency.quantiles();
  std::printf("real-net: offered %.0f req/s for %.1fs -> %llu ok, %llu "
              "shed, %llu errors\n",
              rate, duration, static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.errors));
  std::printf("          p50 %.2f ms, p99 %.2f ms, p999 %.2f ms\n",
              q.p50 / 1e6, q.p99 / 1e6, q.p999 / 1e6);
  server.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const evmp::common::CliArgs args(argc, argv);
  evmp::http::VirtualUserOptions load;
  load.users = static_cast<int>(args.get_long("users", 20));
  load.requests_per_user = static_cast<int>(args.get_long("requests", 3));
  load.payload_bytes =
      static_cast<std::size_t>(args.get_long("payload", 8192));
  const int workers = static_cast<int>(args.get_long("workers", 4));
  const bool parallel = args.get_bool("parallel", false);
  const bool adaptive = args.get_bool("adaptive", false);
  const bool pooled = args.get_bool("pooled", false) || adaptive;

  evmp::http::EncryptionService::Config cfg;
  cfg.payload_bytes = load.payload_bytes;
  cfg.parallel_width = parallel ? 3 : 1;
  cfg.pooled_team = pooled;
  cfg.adaptive_width = adaptive;

  if (args.get_bool("real-net", false)) {
    return run_real_net(args, cfg, workers);
  }

  std::printf("HTTP encryption service: %d users x %d requests, %zuB "
              "payloads, %d workers%s%s\n\n",
              load.users, load.requests_per_user, load.payload_bytes,
              workers, parallel ? ", per-request omp parallel" : "",
              adaptive  ? " (adaptive pooled teams)"
              : pooled  ? " (pooled teams)"
                        : "");

  const auto helpers_before = evmp::fj::total_helper_threads_created();

  {
    evmp::http::EncryptionService service(cfg);
    evmp::http::JettyConnector jetty(workers, service.handler());
    const auto result = evmp::http::run_virtual_users(jetty, load);
    std::printf("jetty   fixed pool      : %7.1f resp/s, mean %.2f ms, "
                "p99 %.2f ms, %llu served\n",
                result.throughput_rps, result.latency.mean_ns() / 1e6,
                result.latency.percentile(0.99) / 1e6,
                static_cast<unsigned long long>(result.completed));
  }
  {
    evmp::http::EncryptionService service(cfg);
    evmp::http::PyjamaConnector pyjama(workers, service.handler());
    const auto result = evmp::http::run_virtual_users(pyjama, load);
    std::printf("pyjama  virtual target  : %7.1f resp/s, mean %.2f ms, "
                "p99 %.2f ms, %llu served\n",
                result.throughput_rps, result.latency.mean_ns() / 1e6,
                result.latency.percentile(0.99) / 1e6,
                static_cast<unsigned long long>(result.completed));
    std::printf("        dispatcher dispatched %llu requests and spent "
                "%.1f ms total inside handlers (offloading works)\n",
                static_cast<unsigned long long>(
                    pyjama.dispatcher().dispatched()),
                evmp::common::to_ms(pyjama.dispatcher().busy_time()));
  }
  if (parallel) {
    std::printf("\nfork-join helper threads created: %llu%s\n",
                static_cast<unsigned long long>(
                    evmp::fj::total_helper_threads_created() -
                    helpers_before),
                pooled ? " (pooled: flat regardless of request count)"
                       : " (one team per request — compare with --pooled)");
  }
  if (adaptive) {
    auto& pool = evmp::fj::TeamPool::instance();
    std::printf("width governor: %d concurrent leases at peak, %zu idle "
                "teams cached after trim\n",
                pool.leased_high_water(), pool.idle_count());
  }
  return 0;
}
