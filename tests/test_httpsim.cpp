// Tests for the simulated HTTP encryption service of §V.B: service handler
// correctness, the Jetty and Pyjama connectors, and the closed-loop virtual
// user swarm.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "httpsim/connector.hpp"
#include "httpsim/encryption_service.hpp"
#include "httpsim/virtual_users.hpp"

namespace evmp::http {
namespace {

EncryptionService::Config tiny_config(int parallel_width = 1) {
  EncryptionService::Config cfg;
  cfg.payload_bytes = 1024;
  cfg.parallel_width = parallel_width;
  return cfg;
}

Request make_request(std::uint64_t id, std::size_t payload = 1024) {
  Request r;
  r.id = id;
  r.payload.assign(payload, static_cast<std::uint8_t>(id & 0xff));
  r.arrived = common::now();
  return r;
}

TEST(EncryptionService, ProducesDeterministicResponses) {
  EncryptionService svc(tiny_config());
  auto handler = svc.handler();
  const auto r1 = handler(make_request(1));
  const auto r2 = handler(make_request(1));
  EXPECT_TRUE(r1.ok);
  EXPECT_EQ(r1.checksum, r2.checksum);
  EXPECT_EQ(r1.id, 1u);
  EXPECT_EQ(svc.requests_served(), 2u);
}

TEST(EncryptionService, ResponseDependsOnPayload) {
  EncryptionService svc(tiny_config());
  auto handler = svc.handler();
  const auto a = handler(make_request(1));
  const auto b = handler(make_request(2));  // different payload bytes
  EXPECT_NE(a.checksum, b.checksum);
}

TEST(EncryptionService, ParallelHandlerMatchesSequential) {
  EncryptionService seq_svc(tiny_config(1));
  EncryptionService par_svc(tiny_config(3));
  const auto seq = seq_svc.handler()(make_request(5));
  const auto par = par_svc.handler()(make_request(5));
  // Same crypt checksum regardless of the per-request team.
  EXPECT_EQ(seq.checksum, par.checksum);
}

TEST(EncryptionService, HandlerIsConcurrencySafe) {
  EncryptionService svc(tiny_config());
  auto handler = svc.handler();
  std::atomic<int> mismatches{0};
  const auto expected = handler(make_request(9)).checksum;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 10; ++i) {
          if (handler(make_request(9)).checksum != expected) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(svc.requests_served(), 41u);
}

TEST(JettyConnector, CompletesAllRequests) {
  EncryptionService svc(tiny_config());
  JettyConnector connector(3, svc.handler());
  EXPECT_EQ(connector.workers(), 3u);
  EXPECT_EQ(connector.name(), "jetty");
  std::atomic<int> responses{0};
  common::CountdownLatch latch(20);
  for (int i = 0; i < 20; ++i) {
    connector.submit(make_request(static_cast<std::uint64_t>(i)),
                     [&](const Response& r) {
                       if (r.ok) responses.fetch_add(1);
                       latch.count_down();
                     });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{30}));
  EXPECT_EQ(responses.load(), 20);
}

TEST(PyjamaConnector, CompletesAllRequests) {
  EncryptionService svc(tiny_config());
  PyjamaConnector connector(3, svc.handler());
  EXPECT_EQ(connector.workers(), 3u);
  EXPECT_EQ(connector.name(), "pyjama");
  std::atomic<int> responses{0};
  common::CountdownLatch latch(20);
  for (int i = 0; i < 20; ++i) {
    connector.submit(make_request(static_cast<std::uint64_t>(i)),
                     [&](const Response& r) {
                       if (r.ok) responses.fetch_add(1);
                       latch.count_down();
                     });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{30}));
  EXPECT_EQ(responses.load(), 20);
}

TEST(PyjamaConnector, DispatcherOnlyDispatches) {
  // The dispatcher (server EDT) must spend almost no time per request: the
  // handler runs on the worker target.
  EncryptionService::Config cfg;
  cfg.payload_bytes = 64 * 1024;  // handler visibly slower than dispatch
  EncryptionService svc(cfg);
  PyjamaConnector connector(2, svc.handler());
  common::CountdownLatch latch(8);
  for (int i = 0; i < 8; ++i) {
    connector.submit(make_request(static_cast<std::uint64_t>(i), 64 * 1024),
                     [&](const Response&) { latch.count_down(); });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{60}));
  EXPECT_EQ(connector.dispatcher().dispatched(), 8u);
  // Dispatcher busy time is a small fraction of the total handler work.
  const double dispatcher_ms =
      common::to_ms(connector.dispatcher().busy_time());
  EXPECT_LT(dispatcher_ms, 100.0);
}

TEST(PyjamaConnector, HandlerRunsOffDispatcherThread) {
  std::atomic<bool> off_dispatcher{false};
  // A probing "service" that inspects its thread.
  PyjamaConnector* connector_ptr = nullptr;
  PyjamaConnector connector(2, [&](const Request& r) {
    off_dispatcher.store(
        !connector_ptr->dispatcher().owns_current_thread());
    return Response{r.id, 0, true};
  });
  connector_ptr = &connector;
  common::CountdownLatch latch(1);
  connector.submit(make_request(1), [&](const Response&) {
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_TRUE(off_dispatcher.load());
}

TEST(VirtualUsers, ClosedLoopCompletesEveryRequest) {
  EncryptionService svc(tiny_config());
  JettyConnector connector(4, svc.handler());
  VirtualUserOptions opt;
  opt.users = 10;
  opt.requests_per_user = 5;
  opt.payload_bytes = 512;
  const auto result = run_virtual_users(connector, opt);
  EXPECT_EQ(result.completed, 50u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.throughput_rps, 0.0);
  EXPECT_EQ(result.latency.total_count(), 50u);
  EXPECT_GT(result.latency.mean_ns(), 0.0);
}

TEST(VirtualUsers, PyjamaConnectorUnderSwarm) {
  EncryptionService svc(tiny_config());
  PyjamaConnector connector(4, svc.handler());
  VirtualUserOptions opt;
  opt.users = 8;
  opt.requests_per_user = 4;
  const auto result = run_virtual_users(connector, opt);
  EXPECT_EQ(result.completed, 32u);
  EXPECT_EQ(result.failed, 0u);
}

TEST(VirtualUsers, FailedResponsesAreCounted) {
  // Request ids are user * 1e6 + request index: failing the odd indices
  // fails two of each user's four requests.
  JettyConnector connector(2, [](const Request& r) {
    return Response{r.id, 0, r.id % 2 == 0};
  });
  VirtualUserOptions opt;
  opt.users = 3;
  opt.requests_per_user = 4;
  const auto result = run_virtual_users(connector, opt);
  EXPECT_EQ(result.completed, 12u);
  EXPECT_EQ(result.failed, 6u);
  EXPECT_EQ(result.latency.total_count(), 12u);
}

TEST(VirtualUsers, ThroughputAccountingIsConsistent) {
  EncryptionService svc(tiny_config());
  JettyConnector connector(2, svc.handler());
  VirtualUserOptions opt;
  opt.users = 4;
  opt.requests_per_user = 3;
  const auto result = run_virtual_users(connector, opt);
  EXPECT_NEAR(result.throughput_rps,
              static_cast<double>(result.completed) / result.wall_seconds,
              1e-9);
}

}  // namespace
}  // namespace evmp::http
