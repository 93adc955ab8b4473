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
        for (int r = 0; r < options.requests_per_user; ++r) {
          Request req;
          req.id = static_cast<std::uint64_t>(u) * 1'000'000u +
                   static_cast<std::uint64_t>(r);
          req.user = static_cast<std::uint64_t>(u);
          req.payload = payload;
          req.arrived = common::now();
          const auto sent = req.arrived;

          // Closed loop: block this user until its response arrives (the
          // paper's strict one-request-in-flight client).
          common::CountdownLatch done(1);
          connector.submit(std::move(req), [&](const Response& resp) {
            const auto now_tp = common::now();
            // Wait-free record path: no lock around the histogram.
            hist.record(static_cast<std::uint64_t>(
                std::max<std::int64_t>(1, (now_tp - sent).count())));
            {
              std::scoped_lock lk(result_mu);
              ++result.completed;
              if (!resp.ok) ++result.failed;
              if (now_tp > last_response) last_response = now_tp;
            }
            done.count_down();
          });
          done.wait();
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
