#include "asyncio/async_io.hpp"

#include <stdexcept>

#include "common/tracing.hpp"

namespace evmp::io {

namespace {

std::uint64_t hash_name(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h == 0 ? 1 : h;  // 0 is the "no content" sentinel
}

}  // namespace

AsyncIoService::AsyncIoService() : AsyncIoService(Config{}) {}

AsyncIoService::AsyncIoService(Config cfg)
    : cfg_(cfg), rng_(cfg.seed), thread_([this] { completion_main(); }) {}

AsyncIoService::~AsyncIoService() { shutdown(); }

common::Nanos AsyncIoService::modeled_duration(const DeviceModel& model,
                                               std::size_t bytes) {
  double secs = common::to_sec(model.base_latency) +
                static_cast<double>(bytes) / model.bytes_per_sec;
  if (model.jitter_fraction > 0.0) {
    // rng_ is guarded by mu_ in submit().
    const double u = rng_.next_double() * 2.0 - 1.0;
    secs *= 1.0 + model.jitter_fraction * u;
  }
  return common::Nanos{static_cast<std::int64_t>(secs * 1e9)};
}

IoOperation AsyncIoService::submit(const DeviceModel& model,
                                   std::size_t bytes,
                                   std::uint64_t content_seed,
                                   exec::Executor* post_to,
                                   exec::Task continuation) {
  IoOperation op;
  exec::CompletionRef state = exec::CompletionState::make();
  op.handle_ = exec::TaskHandle(state);
  {
    std::scoped_lock lk(mu_);
    if (stopping_) {
      state->set_exception(std::make_exception_ptr(
          std::runtime_error("AsyncIoService is shut down")));
      return op;
    }
    const common::TimePoint due =
        common::now() + modeled_duration(model, bytes);
    Pending p;
    p.state = state;
    p.data = op.data_;
    p.bytes = bytes;
    p.content_seed = content_seed;
    p.post_to = post_to;
    p.continuation = std::move(continuation);
    queue_.push(due, std::move(p));
    cv_.notify_all();  // under the lock: destruction-safe wakeup
  }
  return op;
}

IoOperation AsyncIoService::read_file(const std::string& name,
                                      std::size_t bytes) {
  return submit(cfg_.disk, bytes, hash_name(name), nullptr, {});
}

IoOperation AsyncIoService::write_file(const std::string& /*name*/,
                                       std::size_t bytes) {
  return submit(cfg_.disk, bytes, 0, nullptr, {});
}

IoOperation AsyncIoService::fetch_url(const std::string& url,
                                      std::size_t bytes) {
  return submit(cfg_.network, bytes, hash_name(url), nullptr, {});
}

IoOperation AsyncIoService::fetch_url_then(const std::string& url,
                                           std::size_t bytes,
                                           exec::Executor& executor,
                                           exec::Task on_complete) {
  return submit(cfg_.network, bytes, hash_name(url), &executor,
                std::move(on_complete));
}

std::size_t AsyncIoService::in_flight() const {
  std::scoped_lock lk(mu_);
  return queue_.size();
}

void AsyncIoService::shutdown() {
  {
    std::scoped_lock lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  publish_counters();
}

void AsyncIoService::publish_counters(const std::string& prefix) const {
  auto& tracer = common::Tracer::instance();
  tracer.set_counter(prefix + ".ops_pending", in_flight());
  tracer.set_counter(prefix + ".ops_completed",
                     completed_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".bytes_transferred",
                     bytes_.load(std::memory_order_relaxed));
}

void AsyncIoService::completion_main() {
  std::unique_lock lk(mu_);
  while (true) {
    if (queue_.empty()) {
      if (stopping_) return;
      cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      continue;
    }
    const common::TimePoint due = queue_.next_due();
    if (!stopping_ && common::now() < due) {
      cv_.wait_until(lk, due);
      continue;
    }
    Pending p = queue_.pop();
    lk.unlock();

    // Retire: generate content (reads/fetches), flip the handle, fire the
    // continuation. On shutdown, pending ops still retire (possibly early)
    // so no waiter hangs.
    if (p.content_seed != 0) {
      p.data->resize(p.bytes);
      common::SplitMix64 gen(p.content_seed);
      for (auto& b : *p.data) {
        b = static_cast<std::uint8_t>(gen.next() & 0xff);
      }
    }
    bytes_.fetch_add(p.bytes, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    p.state->set_done();
    if (p.post_to != nullptr && p.continuation) {
      p.post_to->post(std::move(p.continuation));
    }
    lk.lock();
  }
}

}  // namespace evmp::io
