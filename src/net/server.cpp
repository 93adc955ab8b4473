#include "net/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

#include "common/logging.hpp"
#include "core/async_mode.hpp"
#include "net/http.hpp"

namespace evmp::net {

namespace {
constexpr std::size_t kReadChunk = 16 * 1024;
}  // namespace

// Per-connection state. Lives in Server::conns_ and is touched only on the
// reactor thread; worker handlers reach it exclusively through
// Server::complete() posted back to the reactor (keyed by cid, never by
// pointer, so a connection that died in the meantime is simply a drop).
struct Connection : Reactor::FdHandler {
  Connection(Server& server, std::uint64_t conn_id, Fd socket)
      : srv(server),
        cid(conn_id),
        fd(std::move(socket)),
        last_activity(common::now()) {}

  void on_readable() override { read_ready(); }
  void on_writable() override { flush(); }

  // --- read side --------------------------------------------------------
  void read_ready() {
    if (closed) return;
    for (;;) {
      const std::size_t old = in_buf.size();
      in_buf.resize(old + kReadChunk);
      const ssize_t n = ::read(fd.get(), in_buf.data() + old, kReadChunk);
      if (n > 0) {
        in_buf.resize(old + static_cast<std::size_t>(n));
        srv.stats_.add(&ServerStats::bytes_received,
                       static_cast<std::uint64_t>(n));
        last_activity = common::now();
        continue;  // edge-triggered: drain until EAGAIN or EOF
      }
      in_buf.resize(old);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or hard error: stop reading; finish writing what we owe, then
      // close. (A peer that shutdown(SHUT_WR) still wants its responses.)
      peer_eof = true;
      break;
    }
    parse_requests();
    if (done_reading() && !closed && out_buf.size() == out_off &&
        inflight == 0) {
      close_now();
    }
  }

  void parse_requests() {
    std::size_t off = 0;
    while (!closed && !want_close) {
      HttpRequest req;
      std::size_t consumed = 0;
      const ParseStatus st = parse_http_request(
          std::span<const std::uint8_t>(in_buf).subspan(off), &consumed,
          &req);
      if (st == ParseStatus::kNeedMore) break;
      if (st == ParseStatus::kError) {
        srv.stats_.add(&ServerStats::protocol_errors);
        close_now();
        break;
      }
      srv.stats_.add(&ServerStats::requests_received);
      // Copy the body out before the buffer is compacted below.
      std::vector<std::uint8_t> payload(req.body.begin(), req.body.end());
      const bool keep_alive = req.keep_alive;
      off += consumed;
      srv.on_request(*this, req.id, keep_alive, std::move(payload));
    }
    if (off > 0 && !closed) {
      in_buf.erase(in_buf.begin(),
                   in_buf.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }

  // --- write side -------------------------------------------------------
  void queue_response(std::span<const std::uint8_t> wire) {
    if (closed) return;
    out_buf.insert(out_buf.end(), wire.begin(), wire.end());
    flush();
  }

  void flush() {
    if (closed) return;
    while (out_off < out_buf.size()) {
      const ssize_t n = ::send(fd.get(), out_buf.data() + out_off,
                               out_buf.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        srv.stats_.add(&ServerStats::bytes_sent,
                       static_cast<std::uint64_t>(n));
        last_activity = common::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        arm_write(true);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      close_now();  // peer reset mid-write
      return;
    }
    // Fully flushed: compact and disarm EPOLLOUT.
    out_buf.clear();
    out_off = 0;
    arm_write(false);
    if (done_reading() && inflight == 0) close_now();
  }

  void arm_write(bool on) {
    if (on == want_write) return;
    want_write = on;
    srv.reactor_.mod_fd(fd.get(), true, on, this);
  }

  /// No further requests will be parsed: the peer closed its half or the
  /// last request asked for Connection: close.
  [[nodiscard]] bool done_reading() const noexcept {
    return peer_eof || want_close;
  }

  // Close the socket now; free the Connection object via a posted task so
  // the current epoll batch cannot touch a destroyed handler.
  void close_now() {
    if (closed) return;
    closed = true;
    srv.reactor_.del_fd(fd.get());
    fd.reset();
    srv.stats_.add(&ServerStats::connections_closed);
    srv.defer_destroy(cid);
  }

  Server& srv;
  const std::uint64_t cid;
  Fd fd;
  std::vector<std::uint8_t> in_buf;
  std::vector<std::uint8_t> out_buf;
  std::size_t out_off = 0;
  common::TimePoint last_activity;
  std::uint32_t inflight = 0;  ///< this connection's admitted requests
  bool want_write = false;
  bool want_close = false;  ///< a request carried Connection: close
  bool peer_eof = false;
  bool closed = false;
};

// The listening socket's handler: accept until EAGAIN (edge-triggered).
class Server::Acceptor : public Reactor::FdHandler {
 public:
  explicit Acceptor(Server& server) : srv_(server) {}

  void on_readable() override {
    for (;;) {
      if (srv_.cfg_.max_connections != 0 &&
          srv_.conns_.size() >= srv_.cfg_.max_connections) {
        srv_.close_accept_gate();
        return;
      }
      const int fd = ::accept4(srv_.listen_.get(), nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        // EMFILE/ECONNABORTED/...: drop this one, keep accepting later.
        EVMP_LOG_WARN << "net server '" << srv_.cfg_.name
                      << "' accept failed: errno " << errno;
        return;
      }
      set_nodelay(fd);
      const std::uint64_t cid = srv_.next_cid_++;
      auto conn = std::make_unique<Connection>(srv_, cid, Fd(fd));
      Connection* raw = conn.get();
      srv_.conns_.emplace(cid, std::move(conn));
      srv_.stats_.add(&ServerStats::connections_accepted);
      if (!srv_.reactor_.add_fd(raw->fd.get(), true, false, raw)) {
        raw->close_now();
        continue;
      }
      srv_.arm_idle_timer(*raw);
    }
  }

 private:
  Server& srv_;
};

Server::Server(Runtime& rt, Config cfg)
    : rt_(rt),
      cfg_(std::move(cfg)),
      reactor_(cfg_.name + ".reactor"),
      drain_tag_(cfg_.name + ".drain") {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  listen_ = listen_tcp_loopback(cfg_.port, &port_);
  if (!listen_.valid()) {
    throw std::system_error(errno, std::generic_category(),
                            "net::Server: cannot listen on loopback");
  }
  target_exec_ = &rt_.resolve(cfg_.target);
  acceptor_ = std::make_unique<Acceptor>(*this);
  reactor_.add_fd(listen_.get(), true, false, acceptor_.get());
  accepting_ = true;
  // The reactor is itself a virtual target: handlers may dispatch their
  // continuations back with `target virtual(<name>)` instead of raw post().
  rt_.register_executor(cfg_.name, reactor_);
  reactor_.start();
  started_ = true;
}

void Server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // 1. Stop accepting (on the reactor thread, so no accept race).
  reactor_.post(exec::Task([this] {
    if (listen_.valid()) {
      if (accepting_) reactor_.del_fd(listen_.get());
      accepting_ = false;
      listen_.reset();
    }
  }));
  // 2. Join in-flight handlers the directive way: every admitted request
  //    was dispatched name_as(drain_tag_), so wait(tag) is the drain
  //    barrier. Their completions may still be in flight to the reactor.
  rt_.wait_tag(drain_tag_);
  // 3. Close every connection (flushing what the completions queued), on
  //    the reactor thread. The reactor queue is FIFO only per producer, so
  //    complete() tasks posted by workers may still sit behind this one;
  //    wait_tag() returned after they were pushed, so run them first.
  reactor_.post(exec::Task([this] {
    while (reactor_.try_run_one()) {
    }
    for (auto& [cid, conn] : conns_) {
      if (conn && !conn->closed) conn->flush();
    }
    // flush() may have erased entries via posted destroys; close the rest.
    for (auto& [cid, conn] : conns_) {
      if (conn && !conn->closed) conn->close_now();
    }
  }));
  // 4. Drain the posted work and join the loop.
  reactor_.stop();
  conns_.clear();
  rt_.unregister(cfg_.name);
  stats_.publish(cfg_.name);
  common::Counters<ReactorStats>::publish(cfg_.name + ".reactor",
                                         reactor_.stats());
}

// Reactor thread. Admission control happens here — *before* the request
// occupies a worker queue slot — so overload is shed at the cheapest point.
void Server::on_request(Connection& conn, std::uint64_t id, bool keep_alive,
                        std::vector<std::uint8_t> payload) {
  const common::TimePoint arrived = common::now();
  if (!keep_alive) conn.want_close = true;
  const bool target_deep = cfg_.max_target_depth != 0 &&
                           target_exec_->pending() >= cfg_.max_target_depth;
  if (shedding_.load(std::memory_order_relaxed) || target_deep) {
    // Shed: answer 503 immediately from the reactor thread. The
    // connection stays open; the client decides whether to back off.
    stats_.add(&ServerStats::requests_shed);
    std::vector<std::uint8_t> wire;
    encode_http_response(wire, kStatusShed, id, 0, {});
    conn.queue_response(wire);
    return;
  }
  stats_.add(&ServerStats::requests_admitted);
  conn.inflight++;
  update_admission_on_admit();
  const std::uint64_t cid = conn.cid;
  // Algorithm 1 dispatch, tagged so stop() can join via wait(drain_tag_).
  rt_.invoke_target_block(
      cfg_.target,
      [this, cid, id, payload = std::move(payload), arrived]() mutable {
        handle_on_worker(cid, id, std::move(payload), arrived);
      },
      Async::kNameAs, drain_tag_);
}

// Worker target. Run the application handler and encode the response off
// the reactor thread; only the buffered-write bookkeeping goes back.
void Server::handle_on_worker(std::uint64_t cid, std::uint64_t id,
                              std::vector<std::uint8_t> payload,
                              common::TimePoint arrived) {
  std::vector<std::uint8_t> wire;
  if (cfg_.mode == Mode::kEcho) {
    const std::uint64_t sum = fnv1a(payload);
    encode_http_response(wire, kStatusOk, id, sum, payload);
  } else {
    http::Request req;
    req.id = id;
    req.user = cid;
    req.payload = std::move(payload);
    req.arrived = arrived;
    http::Response resp;  // ok = false: a throwing handler answers 500
    try {
      resp = cfg_.handler(req);
    } catch (...) {
      // Swallowed so the response still goes out, complete() still drops
      // the in-flight counts, and stop()'s wait_tag has nothing to rethrow.
      stats_.add(&ServerStats::handler_errors);
    }
    encode_http_response(wire, resp.ok ? kStatusOk : 500, id, resp.checksum,
                         {});
  }
  reactor_.post(exec::Task([this, cid, wire = std::move(wire)]() mutable {
    complete(cid, std::move(wire));
  }));
}

// Reactor thread: a handler's completion. The connection may have died
// while the request was in flight — that is a counted drop, not an error.
void Server::complete(std::uint64_t cid, std::vector<std::uint8_t> wire) {
  update_admission_on_complete();
  const auto it = conns_.find(cid);
  if (it == conns_.end() || !it->second || it->second->closed) {
    stats_.add(&ServerStats::responses_dropped);
    return;
  }
  Connection& conn = *it->second;
  conn.inflight--;
  stats_.add(&ServerStats::responses_sent);
  conn.queue_response(wire);
  if (conn.done_reading() && !conn.closed && conn.inflight == 0 &&
      conn.out_buf.size() == conn.out_off) {
    conn.close_now();
  }
}

void Server::defer_destroy(std::uint64_t cid) {
  // try_post: during stop()'s final drain the queue is already closed; the
  // drop is fine because stop() clears conns_ after the reactor joins.
  (void)reactor_.try_post(exec::Task([this, cid] {
    conns_.erase(cid);
    maybe_open_accept_gate();
  }));
}

// --- admission state machine (reactor thread) ----------------------------

void Server::update_admission_on_admit() {
  const std::uint64_t now_inflight =
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (cfg_.high_watermark == 0) return;
  if (!shedding_.load(std::memory_order_relaxed) &&
      now_inflight >= cfg_.high_watermark) {
    shedding_.store(true, std::memory_order_relaxed);
    stats_.add(&ServerStats::shed_entries);
    close_accept_gate();
  }
}

void Server::update_admission_on_complete() {
  const std::uint64_t now_inflight =
      inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (shedding_.load(std::memory_order_relaxed) &&
      now_inflight <= cfg_.low_watermark) {
    shedding_.store(false, std::memory_order_relaxed);
    maybe_open_accept_gate();
  }
}

void Server::close_accept_gate() {
  if (!accepting_ || stopped_) return;
  reactor_.del_fd(listen_.get());
  accepting_ = false;
  accept_gated_ = true;
  stats_.add(&ServerStats::accept_gate_closes);
}

void Server::maybe_open_accept_gate() {
  if (!accept_gated_ || stopped_ || !listen_.valid()) return;
  if (shedding_.load(std::memory_order_relaxed)) return;
  if (cfg_.max_connections != 0 &&
      conns_.size() >= cfg_.max_connections) {
    return;
  }
  accept_gated_ = false;
  if (reactor_.add_fd(listen_.get(), true, false, acceptor_.get())) {
    accepting_ = true;
    // Edge-triggered: connections that queued while gated predate the
    // re-add, so harvest them explicitly rather than waiting for an edge.
    acceptor_->on_readable();
  }
}

void Server::arm_idle_timer(Connection& conn) {
  if (cfg_.idle_timeout <= common::Nanos{0}) return;
  const std::uint64_t cid = conn.cid;
  // Check-and-re-arm idiom: the timer looks up the connection by id and
  // compares last_activity, so active connections never cancel anything
  // and a dead cid simply lets the entry lapse.
  reactor_.add_timer(cfg_.idle_timeout, exec::Task([this, cid] {
    const auto it = conns_.find(cid);
    if (it == conns_.end() || !it->second || it->second->closed) return;
    Connection& c = *it->second;
    const common::Nanos idle = common::now() - c.last_activity;
    if (idle >= cfg_.idle_timeout && c.inflight == 0) {
      stats_.add(&ServerStats::idle_closed);
      c.close_now();
      return;
    }
    arm_idle_timer(c);
  }));
}

}  // namespace evmp::net
