#include "common/event_count.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <exception>

#include "common/sync.hpp"

namespace evmp::common {

bool EventCount::futex_wait(std::uint32_t expected,
                            const TimePoint* deadline) noexcept {
  // FUTEX_WAIT_BITSET takes an absolute CLOCK_MONOTONIC timeout, which is
  // what std::chrono::steady_clock reads on Linux.
  timespec abs{};
  if (deadline != nullptr) {
    const auto ns = std::chrono::duration_cast<Nanos>(
                        deadline->time_since_epoch())
                        .count();
    if (ns <= 0) return false;
    abs.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    abs.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  }
  const long rc = ::syscall(SYS_futex, epoch_word(),
                            FUTEX_WAIT_BITSET | FUTEX_PRIVATE_FLAG, expected,
                            deadline != nullptr ? &abs : nullptr, nullptr,
                            FUTEX_BITSET_MATCH_ANY);
  return rc == 0 || errno != ETIMEDOUT;
}

void EventCount::futex_wake(int count) noexcept {
  ::syscall(SYS_futex, epoch_word(), FUTEX_WAKE | FUTEX_PRIVATE_FLAG, count,
            nullptr, nullptr, 0);
}

namespace {

// Parkers live in fixed chunks that are never freed, so an id (or a
// pointer) handed out once stays dereferenceable for the whole process.
constexpr std::uint32_t kChunkParkers = 64;
constexpr std::uint32_t kMaxChunks = 4096;

struct ParkerTable {
  std::atomic_flag lock = ATOMIC_FLAG_INIT;
  std::atomic<Parker*> chunks[kMaxChunks] = {};
  std::uint32_t next_id = 1;    ///< guarded by lock
  Parker* free_list = nullptr;  ///< guarded by lock
};

/// Trivially destructible, so a thread exiting during static teardown can
/// still return its parker.
ParkerTable& table() noexcept {
  static ParkerTable instance;
  return instance;
}

Parker* acquire_parker() {
  ParkerTable& t = table();
  SpinLockGuard lk(t.lock);
  if (Parker* p = t.free_list) {
    t.free_list = p->next_free;
    p->next_free = nullptr;
    return p;
  }
  const std::uint32_t id = t.next_id++;
  const std::uint32_t chunk = (id - 1) / kChunkParkers;
  if (chunk >= kMaxChunks) std::terminate();  // 262144 live threads
  Parker* slab = t.chunks[chunk].load(std::memory_order_relaxed);
  if (slab == nullptr) {
    slab = new Parker[kChunkParkers];
    for (std::uint32_t i = 0; i < kChunkParkers; ++i) {
      slab[i].id = chunk * kChunkParkers + i + 1;
    }
    t.chunks[chunk].store(slab, std::memory_order_release);
  }
  return &slab[(id - 1) % kChunkParkers];
}

struct ThreadParker {
  Parker* parker = nullptr;

  ThreadParker() = default;
  ThreadParker(const ThreadParker&) = delete;
  ThreadParker& operator=(const ThreadParker&) = delete;
  ~ThreadParker() {
    if (parker == nullptr) return;
    ParkerTable& t = table();
    SpinLockGuard lk(t.lock);
    parker->next_free = t.free_list;
    t.free_list = parker;
  }
};

}  // namespace

Parker& Parker::current() noexcept {
  thread_local ThreadParker holder;
  if (holder.parker == nullptr) holder.parker = acquire_parker();
  return *holder.parker;
}

Parker& Parker::from_id(std::uint32_t id) noexcept {
  Parker* slab =
      table().chunks[(id - 1) / kChunkParkers].load(std::memory_order_acquire);
  return slab[(id - 1) % kChunkParkers];
}

}  // namespace evmp::common
