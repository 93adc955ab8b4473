#include "core/tag_group.hpp"

#include <thread>

namespace evmp {

namespace {
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}
}  // namespace

void TagGroup::leave(std::exception_ptr error) noexcept {
  if (error) {
    while (error_lock_.test_and_set(std::memory_order_acquire)) cpu_relax();
    if (!first_error_) first_error_ = std::move(error);
    error_lock_.clear(std::memory_order_release);
    has_error_.store(true, std::memory_order_release);
  }
  // The decrement is the LAST access to this group: a waiter observing
  // zero may immediately destroy the registry (runtime teardown). Atomic
  // RMWs extend the release sequence, so a waiter's load of zero sees
  // every leaver's prior writes, including the error publication.
  const std::uint64_t prev = word_.fetch_sub(1, std::memory_order_seq_cst);
  const auto parker = static_cast<std::uint32_t>(prev >> kParkerShift);
  if ((prev & kCountMask) == 1 && parker != 0) {
    common::Parker::from_id(parker).events.notify_all();
  }
}

common::EventCount& TagGroup::watch(common::Parker& mine) noexcept {
  std::uint64_t w = word_.load(std::memory_order_seq_cst);
  for (;;) {
    if (const auto id = static_cast<std::uint32_t>(w >> kParkerShift)) {
      return common::Parker::from_id(id).events;
    }
    const std::uint64_t named =
        w | (static_cast<std::uint64_t>(mine.id) << kParkerShift);
    if (word_.compare_exchange_weak(w, named, std::memory_order_seq_cst)) {
      return mine.events;
    }
  }
}

bool TagGroup::wait(exec::Executor* helper,
                    std::optional<common::TimePoint> deadline,
                    exec::JoinStats& stats) {
  if (!exec::join(*this, helper, deadline, stats, kSpinYields)) return false;
  if (has_error_.load(std::memory_order_acquire)) {
    std::exception_ptr err;
    while (error_lock_.test_and_set(std::memory_order_acquire)) cpu_relax();
    err = std::move(first_error_);
    first_error_ = nullptr;
    has_error_.store(false, std::memory_order_relaxed);
    error_lock_.clear(std::memory_order_release);
    if (err) std::rethrow_exception(err);
  }
  return true;
}

TagRegistry::TagRegistry() {
  for (Shard& shard : shards_) {
    shard.groups.reserve(8);  // first-use inserts stay rehash-free
  }
}

TagGroup& TagRegistry::group(std::string_view tag) {
  const std::size_t hash = TransparentHash{}(tag);
  Shard& shard = shards_[hash & (kShards - 1)];
  std::scoped_lock lk(shard.mu);
  auto it = shard.groups.find(tag);
  if (it == shard.groups.end()) {
    it = shard.groups
             .emplace(std::string(tag), std::make_unique<TagGroup>())
             .first;
    created_.fetch_add(1, std::memory_order_relaxed);
  }
  return *it->second;
}

std::size_t TagRegistry::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::scoped_lock lk(shard.mu);
    total += shard.groups.size();
  }
  return total;
}

}  // namespace evmp
