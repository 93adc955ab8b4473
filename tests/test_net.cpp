// Tests for src/net: the HTTP/1.1 wire layer, the epoll reactor (posted
// tasks, timers, shutdown, a socket read joined with Runtime::await_handle
// from the EDT and from a foreign thread), the loopback server (echo and
// handler modes, EOF/partial-write/keep-alive paths, idle timeouts, graceful
// stop) and the watermark admission machinery end to end, plus the
// bounded injection queue and try_post at the unit level.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/sharded_queue.hpp"
#include "common/sync.hpp"
#include "core/runtime.hpp"
#include "event/event_loop.hpp"
#include "executor/completion.hpp"
#include "executor/thread_pool_executor.hpp"
#include "net/http.hpp"
#include "net/reactor.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace evmp::net {
namespace {

std::span<const std::uint8_t> as_bytes_view(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// --- blocking-style client helpers (poll + nonblocking fd) ---------------

void send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      ASSERT_GT(::poll(&p, 1, 5000), 0) << "send_all timed out";
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    FAIL() << "send failed: errno " << errno;
  }
}

/// One response with its body copied out of the stream buffer.
struct OwnedResponse {
  int status = 0;
  std::uint64_t id = 0;
  std::uint64_t checksum = 0;
  std::vector<std::uint8_t> body;
};

/// Read until `want` complete HTTP responses arrived (or EOF/timeout).
/// Returns false on EOF or timeout before `want`.
bool read_responses(int fd, std::size_t want, std::vector<OwnedResponse>* out,
                    int timeout_ms = 10000) {
  std::vector<std::uint8_t> buf;
  std::size_t off = 0;
  while (out->size() < want) {
    std::uint8_t chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      buf.insert(buf.end(), chunk, chunk + n);
      for (;;) {
        HttpResponse resp;
        std::size_t consumed = 0;
        const ParseStatus st = parse_http_response(
            std::span<const std::uint8_t>(buf).subspan(off), &consumed,
            &resp);
        if (st != ParseStatus::kOk) break;
        off += consumed;
        out->push_back(OwnedResponse{resp.status, resp.id, resp.checksum,
                                     {resp.body.begin(), resp.body.end()}});
      }
      continue;
    }
    if (n == 0) return out->size() >= want;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return false;  // timeout
      continue;
    }
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Wait (polling) until read() returns EOF on `fd`.
bool read_eof(int fd) {
  for (int i = 0; i < 1000; ++i) {
    std::uint8_t chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) return true;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLIN, 0};
      ::poll(&p, 1, 100);
      continue;
    }
    if (n < 0 && errno != EINTR) return false;
  }
  return false;
}

Fd connect_ready(std::uint16_t port) {
  Fd fd = connect_tcp_loopback(port);
  EXPECT_TRUE(fd.valid());
  pollfd p{fd.get(), POLLOUT, 0};
  EXPECT_GT(::poll(&p, 1, 5000), 0);
  int err = -1;
  socklen_t len = sizeof(err);
  ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
  EXPECT_EQ(err, 0);
  return fd;
}

// --- HTTP wire units ------------------------------------------------------

TEST(Http, RequestRoundTrip) {
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  encode_http_request(wire, 42, payload);
  HttpRequest req;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_http_request(wire, &consumed, &req), ParseStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/encrypt");
  EXPECT_EQ(req.id, 42u);
  EXPECT_TRUE(req.keep_alive);
  EXPECT_TRUE(std::equal(req.body.begin(), req.body.end(), payload.begin(),
                         payload.end()));
}

TEST(Http, ResponseRoundTrip) {
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> body{9, 8, 7};
  encode_http_response(wire, kStatusOk, 7, 0xDEADBEEFull, body);
  HttpResponse resp;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_http_response(wire, &consumed, &resp), ParseStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(resp.status, kStatusOk);
  EXPECT_EQ(resp.id, 7u);
  EXPECT_EQ(resp.checksum, 0xDEADBEEFull);
  EXPECT_TRUE(std::equal(resp.body.begin(), resp.body.end(), body.begin(),
                         body.end()));
}

TEST(Http, ShedResponseHasRetryAfterAndNoBody) {
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> ignored{1, 2, 3};
  encode_http_response(wire, kStatusShed, 11, 99, ignored);
  const std::string text(wire.begin(), wire.end());
  EXPECT_NE(text.find("503"), std::string::npos);
  EXPECT_NE(text.find("Retry-After: 0"), std::string::npos);
  HttpResponse resp;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_http_response(wire, &consumed, &resp), ParseStatus::kOk);
  EXPECT_EQ(resp.status, kStatusShed);
  EXPECT_EQ(resp.id, 11u);
  EXPECT_TRUE(resp.body.empty());
}

TEST(Http, NeedMoreOnEveryPrefix) {
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload{9, 8, 7};
  encode_http_request(wire, 7, payload);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    HttpRequest req;
    std::size_t consumed = 0;
    EXPECT_EQ(parse_http_request(
                  std::span<const std::uint8_t>(wire.data(), cut), &consumed,
                  &req),
              ParseStatus::kNeedMore)
        << "prefix length " << cut;
  }
}

TEST(Http, PipelinedRequestsParseSequentially) {
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> a{1};
  const std::vector<std::uint8_t> b{2, 2};
  encode_http_request(wire, 1, a);
  encode_http_request(wire, 2, b);
  HttpRequest req;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_http_request(wire, &consumed, &req), ParseStatus::kOk);
  EXPECT_EQ(req.id, 1u);
  EXPECT_EQ(req.body.size(), 1u);
  const std::size_t first = consumed;
  ASSERT_EQ(parse_http_request(
                std::span<const std::uint8_t>(wire).subspan(first), &consumed,
                &req),
            ParseStatus::kOk);
  EXPECT_EQ(req.id, 2u);
  EXPECT_EQ(req.body.size(), 2u);
  EXPECT_EQ(first + consumed, wire.size());
}

TEST(Http, KeepAliveDefaultsFollowVersion) {
  const auto parse = [](std::string_view text) {
    HttpRequest req;
    std::size_t consumed = 0;
    EXPECT_EQ(parse_http_request(as_bytes_view(text), &consumed, &req),
              ParseStatus::kOk);
    return req.keep_alive;
  };
  EXPECT_TRUE(parse("POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
  EXPECT_FALSE(parse(
      "POST / HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"));
  EXPECT_FALSE(parse("POST / HTTP/1.0\r\nContent-Length: 0\r\n\r\n"));
  EXPECT_TRUE(parse("POST / HTTP/1.0\r\nConnection: keep-alive\r\n"
                    "Content-Length: 0\r\n\r\n"));
}

TEST(Http, MalformedInputIsError) {
  HttpRequest req;
  std::size_t consumed = 0;
  // Not an HTTP version at all.
  EXPECT_EQ(parse_http_request(as_bytes_view("POST / FTP/9.9\r\n\r\n"),
                               &consumed, &req),
            ParseStatus::kError);
  // Unparseable Content-Length.
  EXPECT_EQ(parse_http_request(
                as_bytes_view(
                    "POST / HTTP/1.1\r\nContent-Length: twelve\r\n\r\n"),
                &consumed, &req),
            ParseStatus::kError);
  // A header block that exceeds the cap without terminating is an error,
  // not an invitation to buffer forever.
  std::string huge = "POST / HTTP/1.1\r\nX-Filler: ";
  huge.append(kMaxHeaderBytes, 'a');
  EXPECT_EQ(parse_http_request(as_bytes_view(huge), &consumed, &req),
            ParseStatus::kError);
}

// --- reactor --------------------------------------------------------------

TEST(Reactor, RunsPostedTasksOnItsOwnThread) {
  Reactor reactor("t.reactor");
  reactor.start();
  std::atomic<bool> ran{false};
  std::atomic<bool> owned{false};
  reactor.post(exec::Task([&] {
    owned.store(reactor.owns_current_thread());
    ran.store(true);
  }));
  for (int i = 0; i < 1000 && !ran.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(owned.load());
  reactor.stop();
  EXPECT_GE(reactor.stats().tasks_run, 1u);
}

TEST(Reactor, StopIsIdempotentAndRefusesLatePosts) {
  Reactor reactor("t.reactor2");
  reactor.start();
  reactor.stop();
  reactor.stop();
  EXPECT_FALSE(reactor.try_post(exec::Task([] { FAIL() << "ran late"; })));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

TEST(Reactor, TimerFiresOnceAfterDelay) {
  Reactor reactor("t.timer");
  reactor.start();
  std::atomic<int> fired{0};
  reactor.add_timer(std::chrono::milliseconds{5},
                    exec::Task([&] { fired.fetch_add(1); }));
  for (int i = 0; i < 1000 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired.load(), 1);  // one-shot
  reactor.stop();
  const ReactorStats s = reactor.stats();
  EXPECT_GE(s.timers_scheduled, 1u);
  EXPECT_GE(s.timers_fired, 1u);
}

TEST(Reactor, TimerCallbackMayRearmItself) {
  Reactor reactor("t.rearm");
  reactor.start();
  std::atomic<int> ticks{0};
  std::function<void()> tick = [&] {
    if (ticks.fetch_add(1) + 1 < 3) {
      reactor.add_timer(std::chrono::milliseconds{2}, exec::Task(tick));
    }
  };
  reactor.add_timer(std::chrono::milliseconds{2}, exec::Task(tick));
  for (int i = 0; i < 1000 && ticks.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ticks.load(), 3);
  reactor.stop();
}

TEST(Reactor, ZeroDelayRearmDoesNotStarveTasks) {
  // A timer that keeps re-arming itself with zero delay is always due, so
  // a sweep that fired newly armed entries would never return. Each sweep
  // fires only what was due when it began, so posted tasks keep running.
  Reactor reactor("t.spin");
  reactor.start();
  std::atomic<bool> done{false};
  std::atomic<int> fired{0};
  std::function<void()> spin = [&] {
    fired.fetch_add(1);
    if (!done.load()) reactor.add_timer(common::Nanos{0}, exec::Task(spin));
  };
  reactor.add_timer(common::Nanos{0}, exec::Task(spin));
  common::CountdownLatch ran(1);
  reactor.post(exec::Task([&] { ran.count_down(); }));
  EXPECT_TRUE(ran.wait_for(std::chrono::seconds{1}))
      << "posted task starved by a zero-delay timer";
  for (int i = 0; i < 1000 && fired.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  reactor.stop();
  EXPECT_GT(fired.load(), 1);
}

// --- await_handle on a reactor-completed read ------------------------------

/// A non-blocking AF_UNIX socketpair whose reading end is registered on
/// `reactor`. The handler drains it on each edge and completes `state`
/// once `want` bytes arrived: an asynchronous operation that occupies no
/// thread while pending. send() writes to the other end.
struct SocketRead final : Reactor::FdHandler {
  SocketRead(Reactor& r, std::size_t w) : reactor(r), want(w) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                           0, fds),
              0);
    rx.reset(fds[0]);
    tx.reset(fds[1]);
    EXPECT_TRUE(reactor.add_fd(rx.get(), true, false, this));
  }
  SocketRead(const SocketRead&) = delete;  // the reactor holds its address
  SocketRead& operator=(const SocketRead&) = delete;

  void on_readable() override {
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(rx.get(), buf, sizeof(buf))) > 0) {
      data.append(buf, static_cast<std::size_t>(n));
    }
    if (n < 0 && errno == EAGAIN && data.size() < want) return;
    reactor.del_fd(rx.get());
    state->set_done();
  }

  void send(const std::string& bytes) const {
    ::send(tx.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }

  Reactor& reactor;
  std::size_t want;
  Fd rx;
  Fd tx;
  std::string data;
  exec::CompletionRef state = exec::CompletionState::make();
};

TEST(ReactorAwait, EdtAwaitPumpsEventsUntilSocketDataArrives) {
  // An EDT handler awaits a read that the reactor completes. The data is
  // written by the last of six events posted behind the handler, so the
  // read can only finish if the barrier dispatches them while it waits.
  Reactor reactor("t.await");
  reactor.start();
  event::EventLoop edt("edt");
  edt.start();
  Runtime rt;
  rt.register_edt("edt", edt);
  const std::string payload(2048, 'p');
  SocketRead read(reactor, payload.size());

  std::atomic<int> events{0};
  std::atomic<int> events_at_join{-1};
  std::atomic<bool> complete_at_join{false};
  common::CountdownLatch done(1);
  edt.post([&] {
    rt.await_handle(exec::TaskHandle(read.state));
    events_at_join.store(events.load());
    complete_at_join.store(read.data == payload);
    done.count_down();
  });
  for (int i = 0; i < 6; ++i) {
    edt.post([&] {
      if (events.fetch_add(1) + 1 == 6) read.send(payload);
    });
  }
  if (!done.wait_for(std::chrono::seconds{5})) {
    // The barrier blocked the EDT: unblock it so the test can fail cleanly.
    read.send(payload);
    ASSERT_TRUE(done.wait_for(std::chrono::seconds{10}));
  }
  EXPECT_EQ(events_at_join.load(), 6);  // pumped during the await
  EXPECT_TRUE(complete_at_join.load());
  EXPECT_GE(edt.max_nesting(), 2);
  edt.wait_until_idle();
  reactor.stop();
}

TEST(ReactorAwait, ForeignThreadAwaitBlocksUntilReadCompletes) {
  Reactor reactor("t.await2");
  reactor.start();
  Runtime rt;
  const std::string payload(2048, 'q');
  SocketRead read(reactor, payload.size());
  reactor.add_timer(std::chrono::milliseconds{20},
                    exec::Task([&] { read.send(payload); }));
  rt.await_handle(exec::TaskHandle(read.state));
  EXPECT_TRUE(read.state->done());
  EXPECT_EQ(read.data, payload);
  reactor.stop();
}

// --- server ---------------------------------------------------------------

class NetServerTest : public ::testing::Test {
 protected:
  void start(Server::Config cfg) {
    rt_.create_worker("worker", 2);
    server_ = std::make_unique<Server>(rt_, std::move(cfg));
    server_->start();
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  Runtime rt_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetServerTest, EchoRoundTrip) {
  start({});
  Fd fd = connect_ready(server_->port());
  const std::vector<std::uint8_t> payload{'h', 'e', 'l', 'l', 'o'};
  std::vector<std::uint8_t> wire;
  encode_http_request(wire, 1, payload);
  send_all(fd.get(), wire);
  std::vector<OwnedResponse> responses;
  ASSERT_TRUE(read_responses(fd.get(), 1, &responses));
  EXPECT_EQ(responses[0].id, 1u);
  EXPECT_EQ(responses[0].status, kStatusOk);
  EXPECT_EQ(responses[0].checksum, fnv1a(payload));
  EXPECT_EQ(responses[0].body, payload);
}

TEST_F(NetServerTest, PipelinedRequestsAnsweredExactlyOnce) {
  start({});
  Fd fd = connect_ready(server_->port());
  constexpr int kCount = 32;
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < kCount; ++i) {
    const std::vector<std::uint8_t> payload(17 + i, std::uint8_t(i));
    encode_http_request(wire, static_cast<std::uint64_t>(i + 1), payload);
  }
  send_all(fd.get(), wire);
  std::vector<OwnedResponse> responses;
  ASSERT_TRUE(read_responses(fd.get(), kCount, &responses));
  std::vector<bool> seen(kCount, false);
  for (const OwnedResponse& r : responses) {
    ASSERT_GE(r.id, 1u);
    ASSERT_LE(r.id, static_cast<std::uint64_t>(kCount));
    const std::size_t idx = r.id - 1;
    EXPECT_FALSE(seen[idx]) << "duplicate response " << r.id;
    seen[idx] = true;
    EXPECT_EQ(r.status, kStatusOk);
    const std::vector<std::uint8_t> payload(17 + idx, std::uint8_t(idx));
    EXPECT_EQ(r.checksum, fnv1a(payload));
  }
}

TEST_F(NetServerTest, LargePayloadExercisesPartialIo) {
  // 4 MiB body: far beyond one socket buffer, so the server's read loop
  // sees many partial reads and its echo response hits EAGAIN and the
  // EPOLLOUT re-arm path while we deliberately read slowly.
  start({});
  Fd fd = connect_ready(server_->port());
  std::vector<std::uint8_t> payload(4u << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  std::vector<std::uint8_t> wire;
  encode_http_request(wire, 99, payload);
  send_all(fd.get(), wire);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<OwnedResponse> responses;
  ASSERT_TRUE(read_responses(fd.get(), 1, &responses));
  EXPECT_EQ(responses[0].id, 99u);
  EXPECT_EQ(responses[0].status, kStatusOk);
  EXPECT_EQ(responses[0].checksum, fnv1a(payload));
  EXPECT_EQ(responses[0].body.size(), payload.size());
}

TEST_F(NetServerTest, EofAfterRequestStillGetsResponseThenClose) {
  // A client that sends one request and shuts down its write side must
  // still receive the response, after which the server closes the
  // connection (flush-then-close on peer EOF).
  start({});
  Fd fd = connect_ready(server_->port());
  const std::vector<std::uint8_t> payload{1, 2, 3};
  std::vector<std::uint8_t> wire;
  encode_http_request(wire, 5, payload);
  send_all(fd.get(), wire);
  ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);
  std::vector<OwnedResponse> responses;
  ASSERT_TRUE(read_responses(fd.get(), 1, &responses));
  EXPECT_EQ(responses[0].status, kStatusOk);
  EXPECT_TRUE(read_eof(fd.get()));
}

TEST_F(NetServerTest, ConnectionCloseIsHonored) {
  start({});
  Fd fd = connect_ready(server_->port());
  const std::string req =
      "POST /encrypt HTTP/1.1\r\nX-Request-Id: 3\r\nConnection: close\r\n"
      "Content-Length: 2\r\n\r\nok";
  send_all(fd.get(), as_bytes_view(req));
  std::vector<OwnedResponse> responses;
  ASSERT_TRUE(read_responses(fd.get(), 1, &responses));
  EXPECT_EQ(responses[0].id, 3u);
  EXPECT_EQ(responses[0].status, kStatusOk);
  EXPECT_TRUE(read_eof(fd.get()));
}

TEST_F(NetServerTest, ImmediateEofClosesWithoutRequests) {
  start({});
  const std::uint64_t accepted_before = server_->stats().connections_accepted;
  {
    Fd fd = connect_ready(server_->port());
    // Close with no bytes sent.
  }
  for (int i = 0; i < 500; ++i) {
    const ServerStats s = server_->stats();
    if (s.connections_closed > 0 && s.connections_accepted > accepted_before) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const ServerStats s = server_->stats();
  EXPECT_GE(s.connections_accepted, accepted_before + 1);
  EXPECT_GE(s.connections_closed, 1u);
  EXPECT_EQ(s.requests_received, 0u);
}

TEST_F(NetServerTest, MalformedRequestClosesConnection) {
  start({});
  Fd fd = connect_ready(server_->port());
  send_all(fd.get(), as_bytes_view("POST / FTP/9.9\r\n\r\n"));
  EXPECT_TRUE(read_eof(fd.get()));
  EXPECT_EQ(server_->stats().protocol_errors, 1u);
}

TEST_F(NetServerTest, IdleTimeoutClosesQuietConnection) {
  Server::Config cfg;
  cfg.idle_timeout = std::chrono::milliseconds{50};
  start(std::move(cfg));
  Fd fd = connect_ready(server_->port());
  EXPECT_TRUE(read_eof(fd.get()));
  EXPECT_GE(server_->stats().idle_closed, 1u);
}

TEST_F(NetServerTest, WatermarkHysteresisSheds503) {
  // high=1 with a slow handler: a pipelined burst arrives as one readable
  // batch; the first request is admitted and crosses the high watermark,
  // so every further request parsed in the same batch is shed with a 503
  // while the accept gate closes. Deterministic because admission and
  // parsing both run on the reactor thread.
  Server::Config cfg;
  cfg.mode = Server::Mode::kHandler;
  cfg.high_watermark = 1;
  cfg.low_watermark = 0;
  cfg.handler = [](const http::Request& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    http::Response resp;
    resp.id = req.id;
    resp.checksum = 0;
    resp.ok = true;
    return resp;
  };
  start(std::move(cfg));
  Fd fd = connect_ready(server_->port());
  constexpr int kBurst = 16;
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload{0xAA, 0xBB};
  for (int i = 0; i < kBurst; ++i) {
    encode_http_request(wire, static_cast<std::uint64_t>(i + 1), payload);
  }
  send_all(fd.get(), wire);
  std::vector<OwnedResponse> responses;
  ASSERT_TRUE(read_responses(fd.get(), kBurst, &responses));
  int ok = 0;
  int shed = 0;
  for (const OwnedResponse& r : responses) {
    if (r.status == kStatusOk) ++ok;
    if (r.status == kStatusShed) ++shed;
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(shed, kBurst - 1);
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.requests_received, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(s.requests_admitted, 1u);
  EXPECT_EQ(s.requests_shed, static_cast<std::uint64_t>(kBurst - 1));
  EXPECT_EQ(s.responses_sent, 1u);  // shed 503s bypass the worker path
  EXPECT_EQ(s.shed_entries, 1u);
  EXPECT_GE(s.accept_gate_closes, 1u);
}

TEST_F(NetServerTest, ShedStateRecoversBelowLowWatermark) {
  // After the slow burst drains, inflight falls to the low watermark, the
  // gate reopens, and a fresh request is admitted again.
  Server::Config cfg;
  cfg.mode = Server::Mode::kHandler;
  cfg.high_watermark = 1;
  cfg.low_watermark = 0;
  cfg.handler = [](const http::Request& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    http::Response resp;
    resp.id = req.id;
    resp.checksum = 0;
    resp.ok = true;
    return resp;
  };
  start(std::move(cfg));
  Fd fd = connect_ready(server_->port());
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload{1};
  encode_http_request(wire, 1, payload);
  encode_http_request(wire, 2, payload);  // shed while #1 is in flight
  send_all(fd.get(), wire);
  std::vector<OwnedResponse> responses;
  ASSERT_TRUE(read_responses(fd.get(), 2, &responses));
  // Wait out the drain so the hysteresis flips back to ADMIT.
  for (int i = 0; i < 500 && server_->stats().responses_sent < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  wire.clear();
  encode_http_request(wire, 3, payload);
  send_all(fd.get(), wire);
  responses.clear();
  ASSERT_TRUE(read_responses(fd.get(), 1, &responses));
  EXPECT_EQ(responses[0].id, 3u);
  EXPECT_EQ(responses[0].status, kStatusOk);
  EXPECT_EQ(server_->stats().requests_admitted, 2u);
}

TEST_F(NetServerTest, ThrowingHandlerAnswers500AndServerMovesOn) {
  // A handler that throws must still answer (500), release its admission
  // slot (high=1: a leaked slot would shed the next request with a 503),
  // and leave stop() nothing to rethrow.
  Server::Config cfg;
  cfg.mode = Server::Mode::kHandler;
  cfg.high_watermark = 1;
  cfg.low_watermark = 0;
  cfg.handler = [](const http::Request& req) -> http::Response {
    if (req.id == 1) throw std::runtime_error("handler failure");
    http::Response resp;
    resp.id = req.id;
    resp.ok = true;
    return resp;
  };
  start(std::move(cfg));
  Fd fd = connect_ready(server_->port());
  const std::vector<std::uint8_t> payload{7};
  std::vector<OwnedResponse> responses;
  for (std::uint64_t id = 1; id <= 2; ++id) {
    std::vector<std::uint8_t> wire;
    encode_http_request(wire, id, payload);
    send_all(fd.get(), wire);
    ASSERT_TRUE(read_responses(fd.get(), id, &responses)) << "request " << id;
  }
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].id, 1u);
  EXPECT_EQ(responses[0].status, 500);
  EXPECT_EQ(responses[1].id, 2u);
  EXPECT_EQ(responses[1].status, kStatusOk);
  EXPECT_EQ(server_->stats().handler_errors, 1u);
  EXPECT_EQ(server_->stats().requests_shed, 0u);
  server_->stop();
  EXPECT_EQ(server_->stats().responses_sent, 2u);
}

TEST_F(NetServerTest, GracefulStopDrainsInflightResponses) {
  Server::Config cfg;
  cfg.mode = Server::Mode::kHandler;
  cfg.handler = [](const http::Request& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    http::Response resp;
    resp.id = req.id;
    resp.checksum = 0;
    resp.ok = true;
    return resp;
  };
  start(std::move(cfg));
  Fd fd = connect_ready(server_->port());
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload{4, 5, 6};
  encode_http_request(wire, 77, payload);
  send_all(fd.get(), wire);
  // Deterministic handoff: stop() only after the request is in flight.
  for (int i = 0; i < 2000 && server_->stats().requests_admitted == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server_->stats().requests_admitted, 1u);
  server_->stop();  // waits on the drain tag, then flushes and closes
  std::vector<OwnedResponse> responses;
  ASSERT_TRUE(read_responses(fd.get(), 1, &responses));
  EXPECT_EQ(responses[0].id, 77u);
  EXPECT_EQ(responses[0].status, kStatusOk);
  EXPECT_TRUE(read_eof(fd.get()));
  EXPECT_EQ(server_->stats().responses_sent, 1u);
}

// --- bounded injection queue (unit) --------------------------------------

TEST(BoundedQueue, TryPushRejectsExactlyTheOverflow) {
  common::ShardedMpmcQueue<int> queue;
  constexpr std::size_t kCap = 8;
  constexpr std::size_t kAttempts = 20;
  queue.set_capacity(kCap);
  EXPECT_EQ(queue.capacity(), kCap);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kAttempts; ++i) {
    if (queue.try_push(static_cast<int>(i))) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // No consumer ran: exactly kCap accepted, the rest refused, no deadlock.
  EXPECT_EQ(accepted, kCap);
  EXPECT_EQ(rejected, kAttempts - kCap);
  EXPECT_EQ(queue.size(), kCap);
  EXPECT_EQ(queue.stats().rejections, kAttempts - kCap);
  // Draining frees capacity for try_push again.
  std::size_t popped = 0;
  while (queue.try_pop()) ++popped;
  EXPECT_EQ(popped, kCap);
  EXPECT_TRUE(queue.try_push(1));
}

TEST(BoundedQueue, PlainPushIgnoresCapacity) {
  // post()'s must-succeed contract: the bound applies to try_push only,
  // so completion-carrying dispatches can never be refused.
  common::ShardedMpmcQueue<int> queue;
  queue.set_capacity(2);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(queue.push(i));
  }
  EXPECT_EQ(queue.size(), 10u);
  EXPECT_EQ(queue.stats().rejections, 0u);
}

TEST(BoundedQueue, TryPushRefusedAfterClose) {
  common::ShardedMpmcQueue<int> queue;
  queue.set_capacity(4);
  EXPECT_TRUE(queue.try_push(1));
  queue.close();
  EXPECT_FALSE(queue.try_push(2));
  EXPECT_TRUE(queue.try_pop().has_value());  // pending stays poppable
}

TEST(BoundedExecutor, TryPostShedsWhenFullThenRecovers) {
  exec::ThreadPoolExecutor pool("bounded", 2);
  constexpr std::size_t kCap = 4;
  pool.set_queue_capacity(kCap);
  EXPECT_EQ(pool.queue_capacity(), kCap);

  // Gate both workers so the queue depth is fully under our control.
  std::atomic<bool> release{false};
  std::atomic<int> gated{0};
  for (int i = 0; i < 2; ++i) {
    pool.post(exec::Task([&] {
      gated.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    }));
  }
  while (gated.load() < 2) std::this_thread::yield();

  std::atomic<int> ran{0};
  std::size_t accepted = 0;
  std::size_t refused = 0;
  constexpr std::size_t kAttempts = 12;
  for (std::size_t i = 0; i < kAttempts; ++i) {
    if (pool.try_post(exec::Task([&] { ran.fetch_add(1); }))) {
      ++accepted;
    } else {
      ++refused;
    }
  }
  EXPECT_EQ(accepted, kCap);
  EXPECT_EQ(refused, kAttempts - kCap);

  release.store(true);
  pool.shutdown();
  // Every accepted task ran; every refused task was destroyed, not run.
  EXPECT_EQ(ran.load(), static_cast<int>(accepted));
  EXPECT_EQ(pool.queue_stats().rejections, kAttempts - kCap);
}

}  // namespace
}  // namespace evmp::net
