#pragma once
// Closed-loop load: "The load benchmark is set up with 100 virtual users,
// with each user sending a constant number of requests. The throughput
// measures the application's ability to process requests." (§V.B)

#include <cstdint>

#include "common/stats.hpp"
#include "httpsim/connector.hpp"

namespace evmp::http {

/// Result of one closed-loop load run.
struct HttpLoadResult {
  std::uint64_t completed = 0;     ///< responses received
  std::uint64_t failed = 0;        ///< responses with ok == false
  double wall_seconds = 0.0;       ///< first submit .. last response
  double throughput_rps = 0.0;     ///< completed / wall_seconds
  /// Per-request round trips in the HDR-style log-bucketed histogram (ns):
  /// exact mean, p50/p99/p999 without storing every sample, mergeable
  /// across runs.
  common::HistogramSnapshot latency;
};

/// Closed-loop virtual user swarm.
struct VirtualUserOptions {
  int users = 100;               ///< paper: 100 virtual users
  int requests_per_user = 10;    ///< constant per-user request count
  std::size_t payload_bytes = 4096;
  std::uint64_t seed = 7;
};

/// Drive `connector` with `users` concurrent users, each sending
/// `requests_per_user` back-to-back requests (a user waits for its response
/// before sending the next). Blocks until every response arrived.
HttpLoadResult run_virtual_users(Connector& connector,
                                 const VirtualUserOptions& options);

}  // namespace evmp::http
