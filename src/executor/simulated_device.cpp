#include "executor/simulated_device.hpp"

namespace evmp::exec {

SimulatedDeviceExecutor::SimulatedDeviceExecutor(std::string device_name,
                                                 int device_id, Config cfg)
    : ThreadPoolExecutor(std::move(device_name), 1), device_id_(device_id),
      cfg_(cfg) {}

// Drain while cfg_ and launches_ are still alive: queued launches read them.
SimulatedDeviceExecutor::~SimulatedDeviceExecutor() { shutdown(); }

void SimulatedDeviceExecutor::post(Task task) {
  ThreadPoolExecutor::post(launch(std::move(task)));
}

void SimulatedDeviceExecutor::post_batch(std::span<Task> tasks) {
  for (Task& task : tasks) task = launch(std::move(task));
  ThreadPoolExecutor::post_batch(tasks);
}

void SimulatedDeviceExecutor::sleep_for_bytes(std::uint64_t bytes) const {
  const double secs = static_cast<double>(bytes) / cfg_.bandwidth_bytes_per_sec;
  common::precise_sleep(common::Nanos{static_cast<std::int64_t>(secs * 1e9)});
}

void SimulatedDeviceExecutor::transfer_to_device(std::uint64_t bytes) {
  sleep_for_bytes(bytes);
  to_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void SimulatedDeviceExecutor::transfer_from_device(std::uint64_t bytes) {
  sleep_for_bytes(bytes);
  from_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

Task SimulatedDeviceExecutor::launch(Task task) {
  return Task([this, task = std::move(task)]() mutable {
    common::precise_sleep(cfg_.launch_latency);
    launches_.fetch_add(1, std::memory_order_relaxed);
    task();
  });
}

}  // namespace evmp::exec
