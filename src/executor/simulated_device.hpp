#pragma once
// Simulated accelerator device.
//
// The paper's extension is "inspired by the Accelerator Model" of OpenMP 4.0:
// `target device(n)` offloads to a physical accelerator with its own memory.
// This container has no GPU, so `device(n)` targets map to this executor — a
// dedicated device thread plus an explicit transfer-cost model, preserving
// the part of the semantics the paper contrasts against (separate execution
// context, data movement has a cost) without real hardware.

#include <atomic>
#include <cstdint>

#include "common/clock.hpp"
#include "executor/thread_pool_executor.hpp"

namespace evmp::exec {

/// Single-threaded "device" with kernel-launch latency and a bandwidth model
/// for map(to:)/map(from:) transfers. A one-thread ThreadPoolExecutor whose
/// post wraps each task in its launch: the wrapper costs one heap
/// allocation per device post, which device dispatch can afford.
class SimulatedDeviceExecutor final : public ThreadPoolExecutor {
 public:
  struct Config {
    /// Fixed cost added before each offloaded block (kernel launch).
    common::Nanos launch_latency{std::chrono::microseconds{20}};
    /// Simulated host<->device interconnect bandwidth.
    double bandwidth_bytes_per_sec = 8.0e9;  // ~PCIe3 x8
  };

  SimulatedDeviceExecutor(std::string name, int device_id, Config cfg);
  SimulatedDeviceExecutor(std::string name, int device_id)
      : SimulatedDeviceExecutor(std::move(name), device_id, Config{}) {}
  ~SimulatedDeviceExecutor() override;

  void post(Task task) override;

  [[nodiscard]] int device_id() const noexcept { return device_id_; }

  /// Model a host->device transfer of `bytes` (blocks the calling thread for
  /// the simulated duration and updates accounting).
  void transfer_to_device(std::uint64_t bytes);

  /// Model a device->host transfer.
  void transfer_from_device(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t bytes_to_device() const noexcept {
    return to_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_from_device() const noexcept {
    return from_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t kernels_launched() const noexcept {
    return launches_.load(std::memory_order_relaxed);
  }

 private:
  void sleep_for_bytes(std::uint64_t bytes) const;

  const int device_id_;
  const Config cfg_;
  std::atomic<std::uint64_t> to_bytes_{0};
  std::atomic<std::uint64_t> from_bytes_{0};
  std::atomic<std::uint64_t> launches_{0};
};

}  // namespace evmp::exec
