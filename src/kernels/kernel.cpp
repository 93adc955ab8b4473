#include "kernels/kernel.hpp"

#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/env.hpp"
#include "common/sync.hpp"
#include "forkjoin/team_pool.hpp"
#include "kernels/crypt.hpp"
#include "kernels/montecarlo.hpp"
#include "kernels/raytracer.hpp"
#include "kernels/series.hpp"

namespace evmp::kernels {

namespace {

struct SimMachine {
  std::mutex mu;
  int cores = 16;
  std::unique_ptr<common::Semaphore> slots;
};

SimMachine& sim_machine() {
  static SimMachine machine;
  static std::once_flag init;
  std::call_once(init, [] {
    if (auto v = common::env_long("EVMP_SIM_CORES"); v && *v > 0) {
      machine.cores = static_cast<int>(*v);
    }
    machine.slots = std::make_unique<common::Semaphore>(
        static_cast<std::size_t>(machine.cores));
  });
  return machine;
}

}  // namespace

int simulated_cores() noexcept {
  auto& m = sim_machine();
  std::scoped_lock lk(m.mu);
  return m.cores;
}

void set_simulated_cores(int cores) {
  if (cores < 1) cores = 1;
  auto& m = sim_machine();
  std::scoped_lock lk(m.mu);
  // Swapping the semaphore is only safe while no simulated work is in
  // flight; benches set this once up front.
  m.cores = cores;
  m.slots = std::make_unique<common::Semaphore>(
      static_cast<std::size_t>(cores));
}

std::uint64_t Kernel::process_range(long lo, long hi) {
  if (model_ == WorkModel::kReal) {
    return compute_range(lo, hi);
  }
  // One virtual core hosts this range for its modeled duration; if all
  // cores are busy, the range queues — the saturation behaviour of a real
  // K-core machine under CPU-bound load.
  common::Semaphore* slots = nullptr;
  {
    auto& m = sim_machine();
    std::scoped_lock lk(m.mu);
    slots = m.slots.get();
  }
  const common::SemaphoreGuard core(*slots);
  const auto begin = common::now();
  const std::uint64_t partial = compute_range(lo, hi);
  const auto target = per_unit_ * (hi - lo);
  const auto elapsed = common::now() - begin;
  if (target > elapsed) {
    common::precise_sleep(
        std::chrono::duration_cast<common::Nanos>(target - elapsed));
  }
  return partial;
}

std::uint64_t Kernel::run_sequential() { return process_range(0, units()); }

std::uint64_t Kernel::run_parallel(fj::Team& team, fj::Schedule sched,
                                   long chunk) {
  return run_parallel_range(team, 0, units(), sched, chunk);
}

std::uint64_t Kernel::run_parallel_pooled(int width, fj::Schedule sched,
                                          long chunk) {
  auto team = fj::TeamPool::instance().lease(width);
  return run_parallel(*team, sched, chunk);
}

std::uint64_t Kernel::run_parallel_adaptive(int max_width, fj::Schedule sched,
                                            long chunk) {
  auto team = fj::TeamPool::instance().lease_adaptive(max_width);
  return run_parallel(*team, sched, chunk);
}

std::uint64_t Kernel::run_parallel_range(fj::Team& team, long range_lo,
                                         long range_hi, fj::Schedule sched,
                                         long chunk) {
  std::vector<fj::detail::Padded<std::uint64_t>> partials(
      static_cast<std::size_t>(team.num_threads()),
      fj::detail::Padded<std::uint64_t>{0});
  fj::parallel_ranges(
      team, range_lo, range_hi,
      [&](int tid, long lo, long hi) {
        partials[static_cast<std::size_t>(tid)].value +=
            process_range(lo, hi);
      },
      sched, chunk);
  std::uint64_t combined = 0;
  for (const auto& p : partials) combined += p.value;
  return combined;
}

std::unique_ptr<Kernel> make_kernel(std::string_view kernel_name,
                                    SizeClass size) {
  if (kernel_name == "crypt") return std::make_unique<CryptKernel>(size);
  if (kernel_name == "raytracer") {
    return std::make_unique<RayTracerKernel>(size);
  }
  if (kernel_name == "montecarlo") {
    return std::make_unique<MonteCarloKernel>(size);
  }
  if (kernel_name == "series") return std::make_unique<SeriesKernel>(size);
  throw std::invalid_argument("unknown kernel: " + std::string(kernel_name));
}

const std::vector<std::string>& kernel_names() {
  static const std::vector<std::string> names{"crypt", "raytracer",
                                              "montecarlo", "series"};
  return names;
}

}  // namespace evmp::kernels
