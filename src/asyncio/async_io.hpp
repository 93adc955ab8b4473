#pragma once
// Asynchronous I/O extension.
//
// The paper's conclusion names as future work "integrating non-blocking
// I/O and asynchronous I/O into this model". This module provides that
// integration: an AsyncIoService models a storage device and a network
// (latency + bandwidth), executes operations on a completion thread
// *without occupying any worker thread while an operation is pending*,
// and hands completions back as TaskHandles / executor posts. Combined
// with Runtime::await_handle, an event handler can write
//
//     auto op = io.read_file(file, bytes);          // returns immediately
//     rt.await_handle(op.handle);                   // logical barrier:
//                                                   // EDT pumps other events
//     use(op);                                      // sequential style
//
// which is exactly the directive model's continuation-in-place philosophy
// applied to I/O.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/deadline_heap.hpp"
#include "common/rng.hpp"
#include "executor/completion.hpp"
#include "executor/executor.hpp"

namespace evmp::io {

/// Latency/bandwidth model of one simulated device (disk or NIC).
struct DeviceModel {
  common::Nanos base_latency{std::chrono::microseconds{100}};
  double bytes_per_sec = 200.0e6;  ///< sustained transfer rate
  double jitter_fraction = 0.0;    ///< +- uniform jitter on the total time
};

/// A pending or completed I/O operation. The payload buffer is owned by
/// the operation and valid once `handle.done()`.
class IoOperation {
 public:
  /// Completion handle; await it, wait on it, or poll done().
  [[nodiscard]] const exec::TaskHandle& handle() const noexcept {
    return handle_;
  }
  /// The transferred bytes (reads: filled by the service).
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return *data_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return data_->size(); }

 private:
  friend class AsyncIoService;
  exec::TaskHandle handle_;
  std::shared_ptr<std::vector<std::uint8_t>> data_ =
      std::make_shared<std::vector<std::uint8_t>>();
};

/// Simulated asynchronous I/O service. One completion thread retires
/// operations in deadline order; no caller thread blocks while an
/// operation is in flight.
class AsyncIoService {
 public:
  struct Config {
    DeviceModel disk{};
    DeviceModel network{common::Micros{500}, 50.0e6, 0.2};
    std::uint64_t seed = 0xA51Cull;
  };

  AsyncIoService();
  explicit AsyncIoService(Config cfg);
  ~AsyncIoService();
  AsyncIoService(const AsyncIoService&) = delete;
  AsyncIoService& operator=(const AsyncIoService&) = delete;

  /// Asynchronously "read" `bytes` from the named file: the returned
  /// operation completes after the disk model's latency with
  /// deterministic pseudo-content derived from (name, bytes).
  IoOperation read_file(const std::string& name, std::size_t bytes);

  /// Asynchronously "write" `bytes`; completes after the disk model time.
  IoOperation write_file(const std::string& name, std::size_t bytes);

  /// Asynchronously "download" from a URL via the network model.
  IoOperation fetch_url(const std::string& url, std::size_t bytes);

  /// As fetch_url, but additionally run `on_complete` on `executor` when
  /// the transfer finishes — completion-to-executor integration, e.g.
  /// post straight to the "edt" target.
  IoOperation fetch_url_then(const std::string& url, std::size_t bytes,
                             exec::Executor& executor, exec::Task on_complete);

  /// Stop accepting work, retire everything in flight, join. Idempotent.
  void shutdown();

  [[nodiscard]] std::uint64_t operations_completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_transferred() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Operations submitted but not yet retired.
  [[nodiscard]] std::size_t in_flight() const;

  /// Export "<prefix>.ops_pending" / "<prefix>.ops_completed" /
  /// "<prefix>.bytes_transferred" through common::Tracer (also called by
  /// shutdown()).
  void publish_counters(const std::string& prefix = "asyncio") const;

 private:
  struct Pending {
    exec::CompletionRef state;
    std::shared_ptr<std::vector<std::uint8_t>> data;
    std::size_t bytes = 0;
    std::uint64_t content_seed = 0;  ///< 0 = no content generation (write)
    exec::Executor* post_to = nullptr;
    exec::Task continuation;
  };

  IoOperation submit(const DeviceModel& model, std::size_t bytes,
                     std::uint64_t content_seed, exec::Executor* post_to,
                     exec::Task continuation);
  common::Nanos modeled_duration(const DeviceModel& model, std::size_t bytes);
  void completion_main();

  Config cfg_;
  common::Xoshiro256 rng_;  // guarded by mu_

  mutable std::mutex mu_;
  std::condition_variable cv_;
  common::DeadlineHeap<Pending> queue_;  // guarded by mu_
  bool stopping_ = false;

  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::jthread thread_;
};

}  // namespace evmp::io
