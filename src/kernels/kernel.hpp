#pragma once
// Computational kernels used as event-handler workloads.
//
// The paper's §V.A benchmarks "adopt a computational kernel selected from
// the Java Grande Benchmark suite ... Crypt, RayTracer, MonteCarlo and
// Series" to simulate time-consuming work inside event handlers. These four
// are the only kernels here; each is a faithful C++ port, decomposed into
// `units()` independent work units so it can run sequentially or under any
// fork-join schedule.
//
// Work models (see DESIGN.md §2): the host has fewer cores than the paper's
// 16-core Xeon, so a kernel can run in
//  * WorkModel::kReal       — pure computation (the paper's setting); or
//  * WorkModel::kSimulated  — the same computation *plus* a calibrated
//    sleep per unit, emulating each unit's duration on a dedicated core.
//    Concurrency structure (queueing, EDT blocking, offloading, parallel
//    section overlap) is preserved; raw CPU contention is not.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "forkjoin/parallel_for.hpp"
#include "forkjoin/team.hpp"

namespace evmp::kernels {

/// How a kernel's work units consume time.
enum class WorkModel { kReal, kSimulated };

/// The simulated machine's core count. Under WorkModel::kSimulated every
/// in-flight work range occupies one virtual core for its modeled duration
/// (a global counting semaphore), so concurrency saturates at this value —
/// exactly how a real K-core host behaves under CPU-bound load. Defaults to
/// 16 (the paper's Xeon for §V.B) or the EVMP_SIM_CORES environment
/// variable; settable at runtime for sweeps.
int simulated_cores() noexcept;
void set_simulated_cores(int cores);

/// Base class for all Java Grande kernel ports.
///
/// Thread-safety contract: after prepare(), compute_range() may be called
/// concurrently on *disjoint* unit ranges; units write only unit-local state.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Kernel identifier: "crypt", "series", "montecarlo", "raytracer".
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Number of independent work units (IDEA blocks, Fourier coefficients,
  /// Monte Carlo paths, scanlines).
  [[nodiscard]] virtual long units() const noexcept = 0;

  /// Allocate and initialise inputs. Must be called once before any run.
  virtual void prepare() = 0;

  /// Process units [lo, hi) (pure computation); returns a partial checksum
  /// combined across ranges by addition.
  virtual std::uint64_t compute_range(long lo, long hi) = 0;

  /// Cheap sanity check on a full run's combined checksum and the kernel's
  /// output state. False means the computation is broken.
  [[nodiscard]] virtual bool validate(std::uint64_t combined) const = 0;

  // --- work model ---------------------------------------------------------
  /// Select the work model; `per_unit` is the simulated duration of one
  /// unit (ignored under kReal).
  void set_work_model(WorkModel model,
                      common::Nanos per_unit = common::Nanos{0}) noexcept {
    model_ = model;
    per_unit_ = per_unit;
  }
  [[nodiscard]] WorkModel work_model() const noexcept { return model_; }
  [[nodiscard]] common::Nanos per_unit() const noexcept { return per_unit_; }

  /// Process a range under the active work model: always runs the real
  /// computation; under kSimulated additionally sleeps out the remainder of
  /// the range's simulated duration (batched per range, so chunked
  /// schedules pay one sleep per chunk).
  std::uint64_t process_range(long lo, long hi);

  /// Full run on the calling thread.
  std::uint64_t run_sequential();

  /// Full run across a fork-join team (the calling thread participates).
  std::uint64_t run_parallel(fj::Team& team,
                             fj::Schedule sched = fj::Schedule::kStatic,
                             long chunk = 0);

  /// Full run across a team of `width` leased from the process-wide
  /// fj::TeamPool — per-event handlers get fork-join parallelism without
  /// creating helper threads per event (the Figure 9 fix).
  std::uint64_t run_parallel_pooled(int width,
                                    fj::Schedule sched = fj::Schedule::kStatic,
                                    long chunk = 0);

  /// Full run across an elastically sized team: the pool's WidthGovernor
  /// grants up to `max_width` threads (<= 0 means "as wide as useful"),
  /// narrowing under concurrent load so simultaneous handlers never
  /// oversubscribe the cores (the Figure 9 level-off fix, DESIGN.md §11).
  std::uint64_t run_parallel_adaptive(
      int max_width = 0, fj::Schedule sched = fj::Schedule::kStatic,
      long chunk = 0);

  /// Parallel run restricted to units [lo, hi) — used by handlers that
  /// interleave GUI progress updates between kernel halves.
  std::uint64_t run_parallel_range(
      fj::Team& team, long lo, long hi,
      fj::Schedule sched = fj::Schedule::kStatic, long chunk = 0);

 private:
  WorkModel model_ = WorkModel::kReal;
  common::Nanos per_unit_{0};
};

/// Size classes loosely following the Java Grande A/B/C convention, scaled
/// so a size-0 run finishes in well under a millisecond (tests) and size-2
/// in tens of milliseconds (benchmarks, real mode).
enum class SizeClass : int { kTiny = 0, kSmall = 1, kMedium = 2 };

/// Factory: construct one of the paper's four kernels by name (see
/// kernel_names()) at the given size class. Throws std::invalid_argument
/// for any other name. The kernel is returned un-prepared.
std::unique_ptr<Kernel> make_kernel(std::string_view kernel_name,
                                    SizeClass size = SizeClass::kSmall);

/// The paper's four evaluation kernels, in its order.
const std::vector<std::string>& kernel_names();

}  // namespace evmp::kernels
