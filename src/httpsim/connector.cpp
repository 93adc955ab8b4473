#include "httpsim/connector.hpp"

#include "core/target.hpp"

namespace evmp::http {

JettyConnector::JettyConnector(int worker_threads, RequestHandler handler)
    : handler_(std::move(handler)),
      pool_("jetty-pool",
            static_cast<std::size_t>(worker_threads < 1 ? 1 : worker_threads)) {}

void JettyConnector::submit(Request request, ResponseCallback on_done) {
  // Thread-per-request from the fixed pool: one thread owns the whole
  // request lifecycle.
  pool_.post([this, req = std::move(request), cb = std::move(on_done)] {
    cb(handler_(req));
  });
}

PyjamaConnector::PyjamaConnector(int worker_threads, RequestHandler handler)
    : handler_(std::move(handler)),
      dispatcher_(std::make_unique<event::EventLoop>("http-dispatcher")) {
  rt_.create_worker("worker", worker_threads < 1 ? 1 : worker_threads);
  rt_.register_edt("edt", *dispatcher_);
  rt_.set_default_target("worker");
  dispatcher_->start();
}

PyjamaConnector::~PyjamaConnector() {
  dispatcher_->wait_until_idle();
  // Drain offloaded handlers before tearing the dispatcher down.
  rt_.clear();
  dispatcher_->stop();
}

std::size_t PyjamaConnector::workers() const noexcept {
  return rt_.has_target("worker") ? rt_.resolve("worker").concurrency() : 0;
}

void PyjamaConnector::submit(Request request, ResponseCallback on_done) {
  // The dispatcher is the server's EDT: it only dequeues the event and
  // offloads the handler, staying free for the next request.
  dispatcher_->post(
      [this, req = std::move(request), cb = std::move(on_done)]() mutable {
        // //#omp target virtual(worker) nowait
        rt_.target("worker").nowait(
            [this, r = std::move(req), done = std::move(cb)] {
              done(handler_(r));
            });
      });
}

}  // namespace evmp::http
