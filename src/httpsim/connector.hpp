#pragma once
// Server connectors: the two threading architectures compared in Figure 9.
//
//  * JettyConnector — "Jetty's thread-pool framework, which adopts a
//    thread-per-request policy but reuses a fixed number of threads from a
//    thread pool": each accepted request is handled start-to-finish by one
//    pool thread.
//  * PyjamaConnector — a single dispatcher thread (the server's event loop)
//    accepts requests and offloads each handler to a worker virtual target
//    with `target virtual(worker) nowait`, exactly the structure the paper
//    builds with Pyjama's runtime.

#include <memory>
#include <string>

#include "core/runtime.hpp"
#include "event/event_loop.hpp"
#include "executor/thread_pool_executor.hpp"
#include "httpsim/request.hpp"

namespace evmp::http {

/// Abstract server front end.
class Connector {
 public:
  virtual ~Connector() = default;

  /// Accept a request; `on_done` fires exactly once when its response is
  /// ready (possibly on a connector thread). Thread-safe.
  virtual void submit(Request request, ResponseCallback on_done) = 0;

  /// Connector architecture name for reports.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Number of worker threads serving requests.
  [[nodiscard]] virtual std::size_t workers() const noexcept = 0;
};

/// Fixed-pool thread-per-request connector (the Jetty model).
class JettyConnector final : public Connector {
 public:
  JettyConnector(int worker_threads, RequestHandler handler);

  void submit(Request request, ResponseCallback on_done) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "jetty";
  }
  [[nodiscard]] std::size_t workers() const noexcept override {
    return pool_.concurrency();
  }

 private:
  RequestHandler handler_;
  exec::ThreadPoolExecutor pool_;
};

/// Dispatcher + virtual-target connector (the Pyjama model). Owns a private
/// Runtime with an EDT-style dispatcher loop and a worker target.
class PyjamaConnector final : public Connector {
 public:
  PyjamaConnector(int worker_threads, RequestHandler handler);
  ~PyjamaConnector() override;

  void submit(Request request, ResponseCallback on_done) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "pyjama";
  }
  [[nodiscard]] std::size_t workers() const noexcept override;

  /// Dispatcher-loop statistics (events dispatched, busy time).
  [[nodiscard]] const event::EventLoop& dispatcher() const noexcept {
    return *dispatcher_;
  }
  [[nodiscard]] Runtime& runtime() noexcept { return rt_; }

 private:
  RequestHandler handler_;
  Runtime rt_;
  std::unique_ptr<event::EventLoop> dispatcher_;
};

}  // namespace evmp::http
