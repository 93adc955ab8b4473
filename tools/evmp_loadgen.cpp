// evmp_loadgen — open-loop socket-level load generator for the net::Server
// front end (EXPERIMENTS.md §NET1).
//
// The server (reactor + admission control + worker virtual target) and the
// client (net::LoadClient: one epoll loop driving every connection) live in
// one process over loopback TCP, so a run needs ~2 fds per connection.
//
//   evmp_loadgen --conns=10000 --rate=2000 --duration=5         one round
//   evmp_loadgen --sweep=500,1000,2000,4000 --csv=out.csv       load curve
//   evmp_loadgen --check=bench/budgets.json                     CI gate:
//       exits nonzero when p99 exceeds net_smoke_p99_ms, the shed fraction
//       exceeds net_smoke_shed_rate, any transport error occurs, or the
//       round fails to drain; exits 2 before any load runs when a budget
//       cannot be read from the file.
//   evmp_loadgen --alloc-check=bench/budgets.json               CI gate:
//       steady-state process-wide heap allocations per request against
//       allocs_per_request_steady (skipped under sanitizers, whose
//       allocators the interposer would fight).
//
// Split mode, for connection counts near the per-process fd limit (each
// side then holds ~1 fd per connection instead of 2):
//
//   evmp_loadgen --serve-for=30 --port=18329 ...    server only
//   evmp_loadgen --connect=18329 ...                client only

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/clock.hpp"
#include "common/stats.hpp"
#include "core/runtime.hpp"
#include "httpsim/encryption_service.hpp"
#include "net/load_client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

// The interposer must not replace a sanitizer's allocator.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EVMP_LOADGEN_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EVMP_LOADGEN_SANITIZED 1
#endif
#endif
#ifndef EVMP_LOADGEN_SANITIZED
#define EVMP_LOADGEN_SANITIZED 0
#endif

#if !EVMP_LOADGEN_SANITIZED
// GCC pairs the replaced operator new (malloc-backed) with calls to the
// replaced sized/aligned deletes and flags them as mismatched even though
// every path ends in free(); silence that known false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// --- allocation-counting operator new/delete interposer -------------------
// Unlike bench_overhead's submitter-thread counter, this one is
// process-wide (relaxed atomic): a request's allocations are split across
// the reactor thread, the worker target, and the client loop, and the
// budget covers the whole path.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t process_allocs() noexcept {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) return nullptr;
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // !EVMP_LOADGEN_SANITIZED

namespace {

using evmp::common::CliArgs;
using evmp::common::LatencyQuantiles;
using evmp::common::read_budget;
using evmp::net::LoadClient;
using evmp::net::RoundResult;

void print_round(const RoundResult& r) {
  const LatencyQuantiles q = r.latency.quantiles();
  std::printf(
      "rate=%8.0f/s sent=%8llu ok=%8llu shed=%7llu err=%5llu "
      "p50=%8.3fms p90=%8.3fms p99=%8.3fms p999=%8.3fms max=%8.3fms%s\n",
      r.offered_hz, static_cast<unsigned long long>(r.sent),
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.errors), q.p50 / 1e6, q.p90 / 1e6,
      q.p99 / 1e6, q.p999 / 1e6, q.max / 1e6,
      r.drained ? "" : "  [drain timeout]");
}

void write_csv_header(std::FILE* f) {
  std::fprintf(f,
               "offered_hz,sent,ok,shed,errors,wall_s,p50_ns,p90_ns,p99_ns,"
               "p999_ns,max_ns,mean_ns\n");
}

void write_csv_row(std::FILE* f, const RoundResult& r) {
  const LatencyQuantiles q = r.latency.quantiles();
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

/// Steady-state allocations per request: one warmup round primes every
/// pool and buffer, then a measured round divides the process-wide
/// allocation delta by the requests completed.
int run_alloc_check(LoadClient& client, double budget, double rate,
                    double duration) {
#if EVMP_LOADGEN_SANITIZED
  (void)client;
  (void)budget;
  (void)rate;
  (void)duration;
  std::printf("alloc-check skipped under sanitizers\n");
  return 0;
#else
  const RoundResult warm =
      client.run_round(rate, duration, /*poisson=*/false, 10.0);
  if (warm.ok == 0) {
    std::fprintf(stderr, "alloc-check FAILED: warmup completed 0 requests\n");
    return 1;
  }
  const std::uint64_t before = process_allocs();
  const RoundResult measured =
      client.run_round(rate, duration, /*poisson=*/false, 10.0);
  const std::uint64_t delta = process_allocs() - before;
  if (measured.ok == 0) {
    std::fprintf(stderr, "alloc-check FAILED: measured 0 ok requests\n");
    return 1;
  }
  const double per_request =
      static_cast<double>(delta) / static_cast<double>(measured.ok);
  std::printf(
      "alloc-check: %llu process-wide allocations over %llu requests "
      "=> %.2f allocs/request (budget %.2f)\n",
      static_cast<unsigned long long>(delta),
      static_cast<unsigned long long>(measured.ok), per_request, budget);
  if (per_request > budget) {
    std::fprintf(stderr,
                 "alloc-check FAILED: %.2f allocs/request exceeds budget "
                 "allocs_per_request_steady=%.2f\n",
                 per_request, budget);
    return 1;
  }
  std::printf("alloc-check passed\n");
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto conns = static_cast<std::size_t>(args.get_long("conns", 1000));
  const double rate = args.get_double("rate", 2000.0);
  const double duration = args.get_double("duration", 5.0);
  const auto payload = static_cast<std::size_t>(args.get_long("payload", 64));
  const auto threads = static_cast<int>(args.get_long("threads", 2));
  const bool poisson = args.get_bool("poisson", true);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 42));
  const double drain_s = args.get_double("drain-timeout", 10.0);
  const std::string mode = args.get("mode", "echo");
  const std::string check = args.get("check", "");
  const std::string alloc_check = args.get("alloc-check", "");
  const std::string csv = args.get("csv", "");
  const std::vector<long> sweep = args.get_long_list("sweep", {});
  const double serve_for = args.get_double("serve-for", 0.0);
  const auto connect_port =
      static_cast<std::uint16_t>(args.get_long("connect", 0));
  const bool client_only = connect_port != 0;
  const bool server_only = serve_for > 0.0;

  // Budgets are read before any load runs: a file or key that cannot be
  // read fails the run instead of loosening its gate.
  std::optional<double> alloc_budget;
  if (!alloc_check.empty()) {
    alloc_budget = read_budget(alloc_check, "allocs_per_request_steady");
    if (!alloc_budget) return 2;
  }
  std::optional<double> p99_budget_ms;
  std::optional<double> shed_budget;
  if (!check.empty()) {
    p99_budget_ms = read_budget(check, "net_smoke_p99_ms");
    shed_budget = read_budget(check, "net_smoke_shed_rate");
    if (!p99_budget_ms || !shed_budget) return 2;
  }

  // In the default in-process mode, client + server together hold two fds
  // per connection; a split side holds one.
  const std::size_t fds_needed =
      (client_only || server_only ? conns : 2 * conns) + 512;
  if (!evmp::net::raise_fd_limit(fds_needed)) {
    std::fprintf(stderr,
                 "loadgen: could not raise RLIMIT_NOFILE for %zu conns\n",
                 conns);
  }

  evmp::Runtime rt;
  evmp::http::EncryptionService service({.payload_bytes = payload});
  std::unique_ptr<evmp::net::Server> server;
  if (!client_only) {
    rt.create_worker("worker", threads);
    evmp::net::Server::Config cfg;
    cfg.port = static_cast<std::uint16_t>(args.get_long("port", 0));
    cfg.mode = mode == "handler" ? evmp::net::Server::Mode::kHandler
                                 : evmp::net::Server::Mode::kEcho;
    if (cfg.mode == evmp::net::Server::Mode::kHandler) {
      cfg.handler = service.handler();
    }
    cfg.high_watermark =
        static_cast<std::size_t>(args.get_long("high-watermark", 4096));
    cfg.low_watermark = static_cast<std::size_t>(
        args.get_long("low-watermark", cfg.high_watermark * 3 / 4));
    cfg.max_target_depth =
        static_cast<std::size_t>(args.get_long("max-depth", 0));
    cfg.max_connections =
        static_cast<std::size_t>(args.get_long("max-conns", 0));
    cfg.idle_timeout = evmp::common::Nanos{
        args.get_long("idle-timeout-ms", 0) * 1'000'000};
    server = std::make_unique<evmp::net::Server>(rt, cfg);
    server->start();
  }

  if (server_only) {
    std::printf("loadgen: serving on port %u for %.1fs (%s mode)\n",
                server->port(), serve_for, mode.c_str());
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(serve_for));
    server->stop();
    const evmp::net::ServerStats s = server->stats();
    std::printf(
        "server: accepted=%llu recv=%llu admitted=%llu shed=%llu "
        "sent=%llu dropped=%llu proto_err=%llu idle_closed=%llu "
        "shed_entries=%llu gate_closes=%llu\n",
        static_cast<unsigned long long>(s.connections_accepted),
        static_cast<unsigned long long>(s.requests_received),
        static_cast<unsigned long long>(s.requests_admitted),
        static_cast<unsigned long long>(s.requests_shed),
        static_cast<unsigned long long>(s.responses_sent),
        static_cast<unsigned long long>(s.responses_dropped),
        static_cast<unsigned long long>(s.protocol_errors),
        static_cast<unsigned long long>(s.idle_closed),
        static_cast<unsigned long long>(s.shed_entries),
        static_cast<unsigned long long>(s.accept_gate_closes));
    return 0;
  }

  LoadClient client(client_only ? connect_port : server->port(), conns,
                    payload, seed);
  const std::size_t up = client.connect_all();
  std::printf("loadgen: %zu/%zu connections established (%s mode)\n", up,
              conns, mode.c_str());
  if (up == 0) {
    std::fprintf(stderr, "loadgen: no connections; aborting\n");
    return 2;
  }

  int status = 0;
  if (alloc_budget) {
    status = run_alloc_check(client, *alloc_budget, rate, duration);
  } else {
    std::FILE* csv_file = nullptr;
    if (!csv.empty()) {
      csv_file = std::fopen(csv.c_str(), "w");
      if (csv_file == nullptr) {
        std::fprintf(stderr, "loadgen: cannot write %s\n", csv.c_str());
        return 2;
      }
      write_csv_header(csv_file);
    }

    std::vector<double> rates;
    if (sweep.empty()) {
      rates.push_back(rate);
    } else {
      for (const long r : sweep) rates.push_back(static_cast<double>(r));
    }

    for (const double r : rates) {
      const RoundResult result =
          client.run_round(r, duration, poisson, drain_s);
      print_round(result);
      if (csv_file != nullptr) write_csv_row(csv_file, result);

      if (p99_budget_ms && shed_budget) {
        const LatencyQuantiles q = result.latency.quantiles();
        const double p99_ms = q.p99 / 1e6;
        const double shed_rate =
            result.sent == 0 ? 0.0
                             : static_cast<double>(result.shed) /
                                   static_cast<double>(result.sent);
        if (p99_ms > *p99_budget_ms) {
          std::fprintf(stderr,
                       "loadgen CHECK FAILED: p99 %.3fms exceeds budget "
                       "net_smoke_p99_ms=%.3fms\n",
                       p99_ms, *p99_budget_ms);
          status = 1;
        }
        if (shed_rate > *shed_budget) {
          std::fprintf(stderr,
                       "loadgen CHECK FAILED: shed rate %.4f exceeds budget "
                       "net_smoke_shed_rate=%.4f\n",
                       shed_rate, *shed_budget);
          status = 1;
        }
        if (result.errors != 0) {
          std::fprintf(stderr,
                       "loadgen CHECK FAILED: %llu transport errors\n",
                       static_cast<unsigned long long>(result.errors));
          status = 1;
        }
        if (!result.drained) {
          std::fprintf(stderr, "loadgen CHECK FAILED: drain timeout\n");
          status = 1;
        }
        if (status == 0) std::printf("loadgen check passed\n");
      }
    }
    if (csv_file != nullptr) std::fclose(csv_file);
  }

  if (server == nullptr) return status;  // client side of a split run
  server->stop();
  const evmp::net::ServerStats s = server->stats();
  std::printf(
      "server: accepted=%llu recv=%llu admitted=%llu shed=%llu sent=%llu "
      "dropped=%llu proto_err=%llu idle_closed=%llu shed_entries=%llu "
      "gate_closes=%llu\n",
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.requests_received),
      static_cast<unsigned long long>(s.requests_admitted),
      static_cast<unsigned long long>(s.requests_shed),
      static_cast<unsigned long long>(s.responses_sent),
      static_cast<unsigned long long>(s.responses_dropped),
      static_cast<unsigned long long>(s.protocol_errors),
      static_cast<unsigned long long>(s.idle_closed),
      static_cast<unsigned long long>(s.shed_entries),
      static_cast<unsigned long long>(s.accept_gate_closes));
  return status;
}
