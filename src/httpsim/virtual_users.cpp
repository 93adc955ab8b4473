#include "httpsim/virtual_users.hpp"

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"

namespace evmp::http {

HttpLoadResult run_virtual_users(Connector& connector,
                                 const VirtualUserOptions& options) {
  HttpLoadResult result;
  std::mutex result_mu;
  common::LatencyHistogram hist;
  const auto start = common::now();
  common::TimePoint last_response = start;

  {
    std::vector<std::jthread> users;
    users.reserve(static_cast<std::size_t>(options.users));
    for (int u = 0; u < options.users; ++u) {
      users.emplace_back([&, u] {
        common::Xoshiro256 rng(options.seed +
                               static_cast<std::uint64_t>(u) * 0x9e37ull);
        std::vector<std::uint8_t> payload(options.payload_bytes);
        for (auto& b : payload) {
          b = static_cast<std::uint8_t>(rng.next_below(256));
        }
        const int burst = options.burst < 1 ? 1 : options.burst;
        for (int r = 0; r < options.requests_per_user;) {
          const int n = std::min(burst, options.requests_per_user - r);
          std::vector<Request> batch;
          batch.reserve(static_cast<std::size_t>(n));
          for (int b = 0; b < n; ++b) {
            Request req;
            req.id = static_cast<std::uint64_t>(u) * 1'000'000u +
                     static_cast<std::uint64_t>(r + b);
            req.user = static_cast<std::uint64_t>(u);
            req.payload = payload;
            req.arrived = common::now();
            batch.push_back(std::move(req));
          }
          r += n;

          const auto sent = batch.front().arrived;

          // Closed loop per burst: block this user until every response of
          // its pipelined burst arrives (n == 1 is the paper's strict
          // one-request-in-flight client).
          common::CountdownLatch done(static_cast<std::size_t>(n));
          std::mutex burst_mu;
          std::uint64_t burst_failed = 0;
          auto on_response = [&](const Response& resp) {
            const auto now_tp = common::now();
            // Wait-free record path: no lock around the histogram.
            hist.record(static_cast<std::uint64_t>(
                std::max<std::int64_t>(1, (now_tp - sent).count())));
            {
              std::scoped_lock lk(burst_mu);
              if (!resp.ok) ++burst_failed;
            }
            {
              std::scoped_lock lk(result_mu);
              ++result.completed;
              if (now_tp > last_response) last_response = now_tp;
            }
            done.count_down();
          };
          if (n == 1) {
            connector.submit(std::move(batch.front()), on_response);
          } else {
            connector.submit_batch(std::move(batch), on_response);
          }
          done.wait();
          if (burst_failed != 0) {
            std::scoped_lock lk(result_mu);
            result.failed += burst_failed;
          }
        }
      });
    }
  }  // join all users

  result.latency = hist.snapshot();
  result.wall_seconds = common::to_sec(last_response - start);
  result.throughput_rps =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.completed) / result.wall_seconds
          : 0.0;
  return result;
}

}  // namespace evmp::http
