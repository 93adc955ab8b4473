#pragma once
// The one run list: Vyukov's intrusive MPSC queue with a try-locked
// consumer side and a count word that carries a closed bit. Every executor
// queues its submissions on one of these — the EDT's events, the reactor's
// posted tasks, the central pool's run queue and the stealing pool's
// injection list.
//
//  * push is one fetch_add on the count word, one exchange on the head
//    and one link store; a chain linked privately by the producer splices
//    with the same three steps, so a batch stays FIFO and contiguous.
//    (A fetch_add, not a CAS: consumers decrement the same word, and a
//    CAS would retry against them.) No lock, no allocation: the nodes
//    belong to the caller (a common::ObjectPool in every executor here).
//  * consumers take turns through a try-acquired flag, and try_pop()
//    answers kTaken, kEmpty or kBusy. kBusy means another consumer holds
//    the flag; the caller decides whether to look again or move on. A
//    probe that finds the count at zero writes nothing.
//  * between a producer's exchange and its link store the node is counted
//    but not reachable: try_pop() reports kEmpty while size() is nonzero.
//    Consumers that must not stop early ("drain until the count reads
//    zero") look again; drain() does exactly that.
//  * close() sets the closed bit with one RMW on the count word. A push
//    whose fetch_add came first is counted and will be linked; a push
//    whose fetch_add sees the bit takes its count back at once and is
//    refused, its nodes never linked. So close() followed by a drain to a
//    zero count runs every accepted push, and nothing accepted is stranded
//    (DESIGN.md §6).
//
// Ordering: FIFO in the order of the head exchanges, hence FIFO per
// producer and within a chain.
//
// Requirements on Node: default-constructible (the list keeps one as its
// stub) with a member `std::atomic<Node*> next`. A node may be pushed
// again once popped.

#include <atomic>
#include <cstddef>
#include <thread>

namespace evmp::common {

template <class Node>
class MpscList {
 public:
  enum class Pop { kTaken, kEmpty, kBusy };

  MpscList() noexcept : head_(&stub_), tail_(&stub_) {}
  MpscList(const MpscList&) = delete;
  MpscList& operator=(const MpscList&) = delete;

  /// Append one node. False once closed: the node is not linked, its
  /// count is taken back, and it stays the caller's.
  bool push(Node* node) noexcept { return push_chain(node, node, 1); }

  /// Append `n` nodes the caller linked in order through `next`, first to
  /// last, as one contiguous run. Refused as a whole once closed.
  bool push_chain(Node* first, Node* last, std::size_t n) noexcept {
    if ((count_.fetch_add(n, std::memory_order_relaxed) & kClosed) != 0) {
      count_.fetch_sub(n, std::memory_order_relaxed);  // refused: uncount
      return false;
    }
    link(first, last);
    return true;
  }

  /// Take the oldest node. kEmpty when the count reads zero or the next
  /// node's producer is still between its exchange and its link; kBusy
  /// when another consumer holds the consumer side.
  Pop try_pop(Node*& out) noexcept {
    if (size() == 0) return Pop::kEmpty;  // read-only probe
    if (!try_lock_consumer()) return Pop::kBusy;
    Node* node = pop_locked();
    unlock_consumer();
    if (node == nullptr) return Pop::kEmpty;
    out = node;
    return Pop::kTaken;
  }

  /// Refuse every later push. Idempotent; nodes already counted stay
  /// poppable.
  void close() noexcept { count_.fetch_or(kClosed, std::memory_order_acq_rel); }

  /// Pop until the count reads zero, handing each node to `fn`; after
  /// close(), this reaches every accepted push. Yields while a producer is
  /// mid-link, a refused push has yet to take its count back, or another
  /// consumer holds the flag.
  template <class Fn>
  void drain(Fn&& fn) {
    for (;;) {
      Node* node = nullptr;
      if (try_pop(node) == Pop::kTaken) {
        fn(node);
      } else if (size() == 0) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  }

  [[nodiscard]] bool closed() const noexcept {
    return (count_.load(std::memory_order_acquire) & kClosed) != 0;
  }

  /// Nodes pushed and not yet popped, including any still being linked.
  /// Acquire: a reader that sees a pop's decrement also sees what that
  /// consumer wrote before it.
  [[nodiscard]] std::size_t size() const noexcept {
    return count_.load(std::memory_order_acquire) & ~kClosed;
  }

  /// The consumer side, held for the duration of one pop. try_pop() takes
  /// it itself; a caller holds it directly only to keep other consumers
  /// out (tests do, to stage a turned-away consumer). Both are acq_rel
  /// RMWs: whatever a consumer did before it was turned away happens
  /// before the holder's unlock and anything the holder checks after it.
  bool try_lock_consumer() noexcept {
    return !busy_.exchange(true, std::memory_order_acq_rel);
  }
  void unlock_consumer() noexcept {
    busy_.exchange(false, std::memory_order_acq_rel);
  }

 private:
  static constexpr std::size_t kClosed = ~(~std::size_t{0} >> 1);  // top bit

  void link(Node* first, Node* last) noexcept {
    last->next.store(nullptr, std::memory_order_relaxed);
    Node* prev = head_.exchange(last, std::memory_order_acq_rel);
    // Between the exchange and this store the run is on the list but not
    // reachable from it: a consumer sees prev->next == nullptr and
    // reports kEmpty.
    prev->next.store(first, std::memory_order_release);
  }

  /// Vyukov's pop under the consumer flag: skip the stub, take a node once
  /// its successor is linked, re-insert the stub behind a lone last node
  /// so that one can go too.
  Node* pop_locked() noexcept {
    Node* node = tail_;
    Node* next = node->next.load(std::memory_order_acquire);
    if (node == &stub_ && next != nullptr) {
      tail_ = next;
      node = next;
      next = node->next.load(std::memory_order_acquire);
    }
    if (node != &stub_ && next == nullptr &&
        node == head_.load(std::memory_order_acquire)) {
      link(&stub_, &stub_);
      next = node->next.load(std::memory_order_acquire);
    }
    // No successor: the list is empty, or the next node's producer is
    // between its exchange and its link.
    if (node == &stub_ || next == nullptr) return nullptr;
    tail_ = next;
    count_.fetch_sub(1, std::memory_order_release);
    return node;
  }

  // Producers exchange head_ and count first, so the count never reads
  // below the nodes still linked; tail_ belongs to whichever consumer
  // holds busy_; stub_ keeps the list non-empty.
  alignas(64) std::atomic<Node*> head_;
  std::atomic<std::size_t> count_{0};  ///< nodes counted | kClosed
  alignas(64) std::atomic<bool> busy_{false};
  Node* tail_;
  Node stub_;
};

}  // namespace evmp::common
