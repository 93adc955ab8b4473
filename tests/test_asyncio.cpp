// Tests for the asynchronous-I/O extension (the paper's future-work item):
// simulated disk/network operations that occupy no thread while pending,
// and their integration with the runtime's logical barrier
// (Runtime::await_handle) and with executor-targeted continuations.

#include <gtest/gtest.h>

#include <atomic>

#include "asyncio/async_io.hpp"
#include "common/sync.hpp"
#include "core/runtime.hpp"
#include "core/target.hpp"
#include "event/event_loop.hpp"

namespace evmp::io {
namespace {

AsyncIoService::Config fast_config() {
  AsyncIoService::Config cfg;
  cfg.disk.base_latency = common::Micros{200};
  cfg.disk.bytes_per_sec = 1e9;
  cfg.network.base_latency = common::Millis{2};
  cfg.network.bytes_per_sec = 1e8;
  cfg.network.jitter_fraction = 0.0;
  return cfg;
}

TEST(AsyncIo, ReadCompletesWithContent) {
  AsyncIoService io(fast_config());
  auto op = io.read_file("alpha.bin", 4096);
  op.handle().wait();
  EXPECT_EQ(op.size(), 4096u);
  EXPECT_EQ(io.operations_completed(), 1u);
  EXPECT_EQ(io.bytes_transferred(), 4096u);
}

TEST(AsyncIo, ContentIsDeterministicPerName) {
  AsyncIoService io(fast_config());
  auto a1 = io.read_file("same", 256);
  auto a2 = io.read_file("same", 256);
  auto b = io.read_file("different", 256);
  a1.handle().wait();
  a2.handle().wait();
  b.handle().wait();
  EXPECT_EQ(a1.data(), a2.data());
  EXPECT_NE(a1.data(), b.data());
}

TEST(AsyncIo, SubmitReturnsBeforeCompletion) {
  auto cfg = fast_config();
  cfg.network.base_latency = common::Millis{30};
  AsyncIoService io(cfg);
  const common::Stopwatch sw;
  auto op = io.fetch_url("http://example/x", 1024);
  EXPECT_LT(sw.elapsed_ms(), 10.0);
  EXPECT_FALSE(op.handle().done());
  op.handle().wait();
  EXPECT_GE(sw.elapsed_ms(), 25.0);
}

TEST(AsyncIo, LatencyModelRespected) {
  auto cfg = fast_config();
  cfg.disk.base_latency = common::Millis{10};
  cfg.disk.bytes_per_sec = 1e6;  // 10KB == 10ms transfer
  AsyncIoService io(cfg);
  const common::Stopwatch sw;
  auto op = io.read_file("f", 10'000);
  op.handle().wait();
  EXPECT_GE(sw.elapsed_ms(), 18.0);  // ~10ms latency + ~10ms transfer
}

TEST(AsyncIo, OperationsRetireInDeadlineOrder) {
  auto cfg = fast_config();
  AsyncIoService io(cfg);
  // Larger read has a later deadline despite earlier submission order.
  auto slow = io.read_file("slow", 1'000'000);  // +1ms transfer
  auto fast = io.read_file("fast", 16);
  fast.handle().wait();
  EXPECT_FALSE(slow.handle().done());
  slow.handle().wait();
}

TEST(AsyncIo, WriteHasNoContent) {
  AsyncIoService io(fast_config());
  auto op = io.write_file("out.bin", 2048);
  op.handle().wait();
  EXPECT_EQ(op.size(), 0u);  // writes transfer out, nothing comes back
  EXPECT_EQ(io.bytes_transferred(), 2048u);
}

TEST(AsyncIo, ContinuationPostsToExecutor) {
  AsyncIoService io(fast_config());
  event::EventLoop edt("edt");
  edt.start();
  std::atomic<bool> on_edt{false};
  common::CountdownLatch done(1);
  io.fetch_url_then("http://example/img", 512, edt, [&] {
    on_edt.store(edt.is_dispatch_thread());
    done.count_down();
  });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{10}));
  EXPECT_TRUE(on_edt.load());
}

TEST(AsyncIo, ShutdownFailsNewSubmissions) {
  AsyncIoService io(fast_config());
  io.shutdown();
  auto op = io.read_file("late", 64);
  EXPECT_TRUE(op.handle().done());
  EXPECT_THROW(op.handle().wait(), std::runtime_error);
}

TEST(AsyncIo, ShutdownRetiresInFlightOps) {
  auto cfg = fast_config();
  cfg.disk.base_latency = common::Millis{50};
  AsyncIoService io(cfg);
  auto op = io.read_file("pending", 128);
  io.shutdown();  // must not leave the waiter hanging
  EXPECT_TRUE(op.handle().wait_for(std::chrono::seconds{5}));
}

TEST(AsyncIo, ManyConcurrentOpsAllComplete) {
  AsyncIoService io(fast_config());
  std::vector<IoOperation> ops;
  ops.reserve(100);
  for (int i = 0; i < 100; ++i) {
    ops.push_back(io.read_file("f" + std::to_string(i), 64));
  }
  for (auto& op : ops) op.handle().wait();
  EXPECT_EQ(io.operations_completed(), 100u);
  EXPECT_EQ(io.in_flight(), 0u);
}

TEST(AsyncIo, AwaitHandlePumpsEdtWhileIoPending) {
  // The headline integration: an event handler awaits an I/O operation
  // with the logical barrier; the EDT dispatches other events meanwhile
  // and no worker thread is occupied by the pending I/O.
  auto cfg = fast_config();
  cfg.network.base_latency = common::Millis{30};
  AsyncIoService io(cfg);
  event::EventLoop edt("edt");
  edt.start();
  Runtime rt;
  rt.register_edt("edt", edt);

  std::atomic<int> other_events{0};
  std::atomic<bool> data_ready_at_continuation{false};
  common::CountdownLatch done(1);

  edt.post([&] {
    auto op = io.fetch_url("http://example/big", 2048);
    rt.await_handle(op.handle());  // logical barrier on the EDT
    data_ready_at_continuation.store(op.size() == 2048);
    done.count_down();
  });
  for (int i = 0; i < 6; ++i) {
    edt.post([&] { other_events.fetch_add(1); });
  }
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{10}));
  EXPECT_TRUE(data_ready_at_continuation.load());
  EXPECT_EQ(other_events.load(), 6);  // pumped during the await
  EXPECT_GE(edt.max_nesting(), 2);
}

TEST(AsyncIo, AwaitHandleOnForeignThreadJustBlocks) {
  AsyncIoService io(fast_config());
  Runtime rt;
  auto op = io.read_file("plain", 32);
  rt.await_handle(op.handle());
  EXPECT_TRUE(op.handle().done());
}

TEST(AsyncIo, JitterStaysWithinBounds) {
  auto cfg = fast_config();
  cfg.network.base_latency = common::Millis{10};
  cfg.network.bytes_per_sec = 1e12;  // latency dominated
  cfg.network.jitter_fraction = 0.3;
  AsyncIoService io(cfg);
  for (int i = 0; i < 5; ++i) {
    const common::Stopwatch sw;
    auto op = io.fetch_url("u", 16);
    op.handle().wait();
    const double ms = sw.elapsed_ms();
    EXPECT_GE(ms, 6.0);
    EXPECT_LE(ms, 40.0);
  }
}

}  // namespace
}  // namespace evmp::io
