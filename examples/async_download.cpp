// async_download — the future-work extension in action: non-blocking I/O
// integrated with the event-driven directive model.
//
// A button handler downloads 200 KB from a socket registered on the epoll
// reactor (no thread is blocked while the transfer is in flight), awaits
// it with the logical barrier (the EDT keeps dispatching other events),
// then processes the bytes on the worker target and displays the result.
// The peer is a reactor timer writing one 20 KB chunk every 10 ms into the
// other end of an AF_UNIX socketpair.
//
// Run: ./build/examples/async_download

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <vector>

#include "common/sync.hpp"
#include "core/evmp.hpp"
#include "executor/completion.hpp"
#include "kernels/crypt.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"

namespace {

constexpr std::size_t kTotal = 200'000;
constexpr std::size_t kChunk = 20'000;

/// The reading end: drains the socket on each edge and completes `state`
/// once the last byte landed (or the peer closed early).
struct Download final : evmp::net::Reactor::FdHandler {
  Download(evmp::net::Reactor& r, int f) : reactor(r), fd(f) {}
  Download(const Download&) = delete;  // the reactor holds its address
  Download& operator=(const Download&) = delete;

  void on_readable() override {
    std::uint8_t buf[16 * 1024];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0 ||
           (n < 0 && errno == EINTR)) {
      if (n > 0) data.insert(data.end(), buf, buf + n);
    }
    if (n < 0 && errno == EAGAIN && data.size() < kTotal) return;
    reactor.del_fd(fd);
    state->set_done();
  }

  evmp::net::Reactor& reactor;
  int fd;
  std::vector<std::uint8_t> data;
  evmp::exec::CompletionRef state = evmp::exec::CompletionState::make();
};

}  // namespace

int main() {
  evmp::event::EventLoop edt("edt");
  edt.start();
  evmp::rt().register_edt("edt", edt);
  evmp::rt().create_worker("worker", 2);

  evmp::net::Reactor reactor("io");
  reactor.start();

  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   fds) != 0) {
    std::perror("socketpair");
    return 1;
  }
  const evmp::net::Fd rx(fds[0]);
  const evmp::net::Fd tx(fds[1]);
  Download download(reactor, rx.get());

  // The peer: one chunk per 10 ms reactor timer; a short write carries
  // the rest over to the next tick.
  std::vector<std::uint8_t> payload(kTotal);
  std::iota(payload.begin(), payload.end(), std::uint8_t{0});
  std::size_t sent = 0;
  std::function<void()> send_chunk = [&] {
    const ssize_t n = ::send(tx.get(), payload.data() + sent,
                             std::min(kChunk, kTotal - sent), MSG_NOSIGNAL);
    if (n > 0) sent += static_cast<std::size_t>(n);
    if (sent < kTotal) {
      reactor.add_timer(evmp::common::Millis{10},
                        evmp::exec::Task(send_chunk));
    }
  };

  evmp::common::CountdownLatch done(1);

  edt.post([&] {
    std::printf("[edt]    click: starting download (EDT stays live)\n");
    reactor.add_fd(rx.get(), /*want_read=*/true, /*want_write=*/false,
                   &download);
    reactor.add_timer(evmp::common::Millis{10}, evmp::exec::Task(send_chunk));

    // The logical barrier: while ~100ms of transfer elapses, the EDT
    // below keeps dispatching ticks; the reactor thread reads the socket.
    evmp::rt().await_handle(evmp::exec::TaskHandle(download.state));
    std::printf("[edt]    download complete: %zu bytes\n",
                download.data.size());

    // Heavy post-processing goes to the worker target (Figure 6 pattern).
    evmp::target("worker").await([&] {
      evmp::kernels::CryptKernel crypt(download.data.size());
      crypt.prepare();
      const auto checksum = crypt.run_sequential();
      std::printf("[worker] encrypted round-trip checksum: %llu blocks ok\n",
                  static_cast<unsigned long long>(checksum));
    });
    std::printf("[edt]    pipeline finished\n");
    done.count_down();
  });

  // Competing events that must keep flowing during the await.
  for (int i = 0; i < 5; ++i) {
    edt.post_delayed(
        [i] { std::printf("[edt]    tick %d dispatched during download\n", i); },
        evmp::common::Millis{15 * (i + 1)});
  }

  done.wait();
  edt.wait_until_idle();
  reactor.stop();
  const evmp::net::ReactorStats rs = reactor.stats();
  std::printf(
      "reactor: %llu fd events, %llu timers fired; edt max nesting %d\n",
      static_cast<unsigned long long>(rs.fd_events),
      static_cast<unsigned long long>(rs.timers_fired), edt.max_nesting());
  evmp::rt().clear();
  return download.data == payload ? 0 : 1;
}
