#pragma once
// Sharded MPMC run queue: the run queue of ThreadPoolExecutor and the task
// queue of net::Reactor.
//
// The FIFO is striped across N independently locked shards, so disjoint
// producers take disjoint locks (with one shard it is a single-lock FIFO):
//
//  * push() hashes the producer thread to a home shard and takes only that
//    shard's lock — disjoint producers never contend;
//  * push_batch() admits a whole burst under ONE shard lock and ONE notify,
//    amortising the synchronisation cost across the batch;
//  * pop() serves a consumer from its home shard first and work-pulls from
//    sibling shards when the home shard is dry, so no item is stranded;
//  * close() is the shutdown contract: pending items remain poppable, new
//    pushes are refused, blocked consumers wake once the queue has
//    drained. close() latches the flag while holding every shard lock,
//    which linearises it against all in-flight pushes.
//
// Ordering: FIFO per shard — hence FIFO per producer thread — but not
// globally FIFO across racing producers, whose interleaving is arbitrary
// anyway.
//
// Wakeups avoid the shared condition variable entirely while consumers are
// busy: a push only touches the cv mutex when the sleeper count says someone
// is actually parked, so uncontended producers stay shard-local. The
// generation/sleeper handshake below (seq_cst on both sides) is the classic
// store-buffer pairing: a consumer registers as a sleeper before re-checking
// the generation, a producer bumps the generation before checking sleepers —
// at least one side always observes the other, so no wakeup is lost.
//
// Each queue keeps relaxed-atomic counters (pushes, batches, pops, steals,
// lock collisions, max depth) so executors can expose their fan-in behaviour
// through common::tracing; reading them costs nothing on the hot path.
//
// Lifetime: push() touches queue members after its item became poppable,
// so a producer must ensure the queue outlives its push() call. Every
// executor in this repo guarantees that by joining its workers before
// destroying the queue; posting to an executor racing with its destruction
// is undefined.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/ring_buffer.hpp"

namespace evmp::common {

/// Snapshot of a sharded queue's counters (values are monotone except
/// max_depth, which is a high-water mark; all are approximate under races
/// by design — they are observability, not synchronisation).
struct ShardedQueueStats {
  std::uint64_t pushes = 0;        ///< single-item push() calls accepted
  std::uint64_t batch_pushes = 0;  ///< push_batch() calls accepted
  std::uint64_t batch_items = 0;   ///< items admitted via push_batch()
  std::uint64_t pops = 0;          ///< items handed to consumers
  std::uint64_t steals = 0;        ///< pops served from a non-home shard
  std::uint64_t collisions = 0;    ///< pushes that found their shard locked
  std::uint64_t max_depth = 0;     ///< deepest single shard ever observed
  std::uint64_t rejections = 0;    ///< try_push items refused by capacity
};

/// Unbounded MPMC FIFO striped over `num_shards` mutex-protected shards.
/// FIFO per producer thread, not across producers (see above).
/// `num_shards` is rounded up to a power of two;
/// 0 selects a default based on the hardware concurrency.
template <class T>
class ShardedMpmcQueue {
 public:
  explicit ShardedMpmcQueue(std::size_t num_shards = 0) {
    if (num_shards == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      num_shards = hw == 0 ? 1 : hw;
    }
    std::size_t rounded = 1;
    while (rounded < num_shards && rounded < kMaxShards) rounded <<= 1;
    shards_.reserve(rounded);
    for (std::size_t i = 0; i < rounded; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    mask_ = rounded - 1;
  }
  ShardedMpmcQueue(const ShardedMpmcQueue&) = delete;
  ShardedMpmcQueue& operator=(const ShardedMpmcQueue&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Stable home-shard index for the calling thread (also usable as the
  /// `home` hint for pop()/try_pop()).
  [[nodiscard]] std::size_t home_shard() const noexcept {
    return thread_slot() & mask_;
  }

  /// Soft bound on the queue's total depth, enforced by try_push only
  /// (0 = unbounded). Plain push()/push_batch() keep their must-succeed
  /// contract regardless — completion-carrying dispatches can never be
  /// refused, so a join can never deadlock on a refused continuation. The
  /// bound is checked under one shard's lock against the global size, so
  /// concurrent try_pushers into other shards can overshoot by at most one
  /// item each — admission control, not a hard invariant.
  void set_capacity(std::size_t capacity) noexcept {
    capacity_.store(capacity, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Push one item to the producer's home shard. Returns false (drops the
  /// item) if the queue is closed.
  bool push(T item) { return push_to(home_shard(), std::move(item)); }

  /// As push(), but additionally refuses the item (returns false, counts a
  /// rejection) when the queue already holds capacity() items. This is the
  /// backpressure seam: overload callers that can shed use this, callers
  /// carrying completions use push().
  bool try_push(T item) {
    return push_one(home_shard(), std::move(item),
                    capacity_.load(std::memory_order_relaxed));
  }

  /// Push to an explicit shard (tests pin items to shards with it).
  bool push_to(std::size_t shard_index, T item) {
    return push_one(shard_index, std::move(item), 0);
  }

  /// Admit a whole batch to the producer's home shard under one shard lock
  /// and one notification. The batch is atomic with respect to close():
  /// either every item is admitted (returns items.size()) or the queue was
  /// closed and none are (returns 0, items are left in a moved-from state
  /// only when admitted). Items keep their relative order (single shard ⇒
  /// FIFO within batch).
  std::size_t push_batch(std::span<T> items) {
    if (items.empty()) return 0;
    Shard& s = shard(home_shard());
    {
      std::unique_lock lk = lock_counting(s);
      if (closed_.load(std::memory_order_acquire)) return 0;
      for (T& item : items) {
        s.items.push_back(std::move(item));
      }
      note_depth(s.items.size());
      size_.fetch_add(items.size(), std::memory_order_release);
      batch_pushes_.fetch_add(1, std::memory_order_relaxed);
      batch_items_.fetch_add(items.size(), std::memory_order_relaxed);
    }
    wake(true);  // a batch may satisfy many sleeping consumers
    return items.size();
  }

  /// Block until an item is available or the queue is closed and drained.
  /// Returns nullopt only on closed-and-empty. `home` biases which shard is
  /// scanned first (defaults to the calling thread's home shard).
  std::optional<T> pop() { return pop(home_shard()); }

  std::optional<T> pop(std::size_t home) {
    // Yield-scan briefly before parking: in back-to-back dispatch the next
    // item typically lands within a scheduler quantum of the previous pop.
    // Catching it here keeps this consumer off the sleeper list, which in
    // turn keeps the producer's wake() on its syscall-free path — in steady
    // state neither side touches the condvar or its mutex.
    for (int i = 0; i < kSpinScans; ++i) {
      if (auto item = scan(home)) return item;
      if (closed_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
    for (;;) {
      const std::uint64_t gen = gen_.load();  // seq_cst: pairs with wake()
      if (auto item = scan(home)) return item;
      if (closed_.load(std::memory_order_acquire)) {
        // All pre-close pushes are visible once closed_ reads true (the
        // flag is latched while holding every shard lock), so one more
        // full scan decides drained-ness.
        if (auto item = scan(home)) return item;
        return std::nullopt;
      }
      SleeperGuard sleeper(sleepers_);
      std::unique_lock lk(cv_mu_);
      cv_.wait(lk, [&] {
        return closed_.load(std::memory_order_relaxed) ||
               gen_.load(std::memory_order_relaxed) != gen;
      });
    }
  }

  /// Non-blocking pop; nullopt when every shard is empty.
  std::optional<T> try_pop() { return try_pop(home_shard()); }
  std::optional<T> try_pop(std::size_t home) { return scan(home); }

  /// Close the queue: pending items remain poppable, new pushes (and whole
  /// batches) are refused, blocked consumers wake once the queue drains.
  void close() {
    // Latch the flag while holding every shard lock: any concurrent push
    // either completed before we got its shard (item visible to the final
    // drain scan) or observes closed_ and is refused.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto& s : shards_) locks.emplace_back(s->mu);
    closed_.store(true, std::memory_order_release);
    locks.clear();
    wake(true);
  }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] ShardedQueueStats stats() const noexcept {
    ShardedQueueStats s;
    s.pushes = pushes_.load(std::memory_order_relaxed);
    s.batch_pushes = batch_pushes_.load(std::memory_order_relaxed);
    s.batch_items = batch_items_.load(std::memory_order_relaxed);
    s.pops = pops_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    s.collisions = collisions_.load(std::memory_order_relaxed);
    s.max_depth = max_depth_.load(std::memory_order_relaxed);
    s.rejections = rejections_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  static constexpr std::size_t kMaxShards = 64;
  /// Bounded pre-park yield-scan attempts in pop(). Small enough that an
  /// idle consumer reaches the condvar within ~a few scheduler quanta.
  static constexpr int kSpinScans = 32;

  struct Shard {
    std::mutex mu;
    // RingBuffer, not std::deque: a deque allocates/frees ~512 B chunks as
    // the queue oscillates around a chunk edge, which shows up as
    // steady-state allocations on the dispatch fast path.
    RingBuffer<T> items;
  };

  Shard& shard(std::size_t index) noexcept {
    return *shards_[index & mask_];
  }

  /// Lock `s`, counting a collision when another thread holds it.
  std::unique_lock<std::mutex> lock_counting(Shard& s) {
    std::unique_lock lk(s.mu, std::try_to_lock);
    if (!lk.owns_lock()) {
      collisions_.fetch_add(1, std::memory_order_relaxed);
      lk.lock();
    }
    return lk;
  }

  /// push_to() and try_push(): refused when closed, or when `cap` is
  /// nonzero and the queue already holds that many items.
  bool push_one(std::size_t shard_index, T item, std::size_t cap) {
    Shard& s = shard(shard_index);
    {
      std::unique_lock lk = lock_counting(s);
      if (closed_.load(std::memory_order_acquire)) return false;
      if (cap != 0 && size_.load(std::memory_order_acquire) >= cap) {
        rejections_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      s.items.push_back(std::move(item));
      note_depth(s.items.size());
      size_.fetch_add(1, std::memory_order_release);
      pushes_.fetch_add(1, std::memory_order_relaxed);
    }
    wake(false);
    return true;
  }

  /// Small stable per-thread slot, assigned round-robin on first use so
  /// concurrent producers spread evenly over shards regardless of how the
  /// OS allocates thread ids.
  static std::size_t thread_slot() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local std::size_t slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot;
  }

  /// One sweep over all shards starting at `home`; takes at most one item.
  std::optional<T> scan(std::size_t home) {
    const std::size_t n = shards_.size();
    for (std::size_t k = 0; k < n; ++k) {
      Shard& s = shard(home + k);
      std::scoped_lock lk(s.mu);
      if (s.items.empty()) continue;
      T item = s.items.pop_front();
      size_.fetch_sub(1, std::memory_order_release);
      pops_.fetch_add(1, std::memory_order_relaxed);
      if (k != 0) steals_.fetch_add(1, std::memory_order_relaxed);
      return item;
    }
    return std::nullopt;
  }

  void note_depth(std::size_t depth) noexcept {
    // Benign cross-shard race: this is a high-water mark for reporting.
    if (depth > max_depth_.load(std::memory_order_relaxed)) {
      max_depth_.store(depth, std::memory_order_relaxed);
    }
  }

  /// RAII sleeper registration for the store-buffer handshake with wake().
  class SleeperGuard {
   public:
    explicit SleeperGuard(std::atomic<std::size_t>& count) : count_(count) {
      count_.fetch_add(1);  // seq_cst
    }
    ~SleeperGuard() { count_.fetch_sub(1); }
    SleeperGuard(const SleeperGuard&) = delete;
    SleeperGuard& operator=(const SleeperGuard&) = delete;

   private:
    std::atomic<std::size_t>& count_;
  };

  /// Bump the wake generation; notify only when a consumer is parked.
  /// Seq_cst ordering (gen bump, then sleeper read) against pop()'s
  /// (sleeper registration, then gen re-read) guarantees at least one side
  /// sees the other: either the consumer's wait predicate observes the new
  /// generation and never sleeps, or this producer observes the sleeper and
  /// notifies. The notification itself is taken under cv_mu_, which a
  /// parked consumer holds until it is genuinely waiting — so the notify
  /// cannot fire into the gap between predicate check and sleep.
  void wake(bool all) {
    gen_.fetch_add(1);  // seq_cst
    if (sleepers_.load() == 0) return;
    std::scoped_lock lk(cv_mu_);
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t mask_ = 0;

  std::mutex cv_mu_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> gen_{0};
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> capacity_{0};

  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> batch_pushes_{0};
  std::atomic<std::uint64_t> batch_items_{0};
  std::atomic<std::uint64_t> pops_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> collisions_{0};
  std::atomic<std::uint64_t> max_depth_{0};
  std::atomic<std::uint64_t> rejections_{0};
};

}  // namespace evmp::common
