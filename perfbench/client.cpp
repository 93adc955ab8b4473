#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "net/http.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {
constexpr std::uint64_t kIdBits = 40;  // low bits: op index + 1
constexpr std::uint64_t kIdMask = (std::uint64_t{1} << kIdBits) - 1;
constexpr std::size_t kReadChunk = 64 * 1024;
}  // namespace

struct HttpClient::Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in = std::vector<std::uint8_t>(4 * kReadChunk);
  std::size_t in_len = 0;
  std::size_t outstanding = 0;
  bool dead = false;
};

HttpClient::HttpClient(std::uint16_t port, std::size_t conns,
                       std::vector<std::vector<std::uint8_t>> payloads,
                       std::vector<std::uint64_t> checksums, bool echo_body,
                       bool traced)
    : port_(port),
      payloads_(std::move(payloads)),
      checksums_(std::move(checksums)),
      echo_body_(echo_body),
      traced_(traced) {
  epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
  for (std::size_t i = 0; i < conns; ++i) {
    conns_.push_back(std::make_unique<Conn>());
    conns_.back()->out.reserve(4 * kReadChunk);
  }
}

HttpClient::~HttpClient() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  if (epoll_ >= 0) ::close(epoll_);
}

bool HttpClient::connect_all() {
  if (epoll_ < 0) return false;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = *conns_[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return false;
    }
    const int one = 1;
    if (::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
      return false;
    }
    const int flags = ::fcntl(c.fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(c.fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.u64 = i;
    if (::epoll_ctl(epoll_, EPOLL_CTL_ADD, c.fd, &ev) != 0) return false;
  }
  return true;
}

void HttpClient::run_open(ClientPhase& phase, std::int64_t drain_ns) {
  run(phase, false, 0, 0, drain_ns);
}

void HttpClient::run_closed(ClientPhase& phase, std::size_t window,
                            std::int64_t end_ns, std::int64_t drain_ns) {
  run(phase, true, window, end_ns, drain_ns);
}

void HttpClient::enqueue(ClientPhase& phase, std::size_t idx) {
  ClientOp& op = phase.ops[idx];
  Conn& c = *conns_[op.conn];
  const std::uint64_t id = (phase_id_ << kIdBits) | (idx + 1);
  const auto& body = payloads_[op.payload];
  if (traced_) {
    const std::int64_t t0 = now_ns();
    evmp::net::encode_http_request(c.out, id, body);
    phase.encode_ns.push_back(static_cast<double>(now_ns() - t0));
  } else {
    evmp::net::encode_http_request(c.out, id, body);
  }
  ++c.outstanding;
}

void HttpClient::flush(Conn& c) {
  while (!c.dead && c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    c.dead = true;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
}

// Reads until EAGAIN and settles every complete response. Returns the
// number of requests settled.
std::size_t HttpClient::read_ready(ClientPhase& phase, Conn& c) {
  std::size_t settled = 0;
  while (!c.dead) {
    if (c.in.size() - c.in_len < kReadChunk) c.in.resize(c.in.size() * 2);
    const ssize_t n =
        ::read(c.fd, c.in.data() + c.in_len, c.in.size() - c.in_len);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      c.dead = true;  // EOF or reset: what is still owed becomes kLost
      break;
    }
    const std::int64_t t_read = now_ns();
    c.in_len += static_cast<std::size_t>(n);
    std::size_t off = 0;
    for (;;) {
      evmp::net::HttpResponse resp;
      std::size_t consumed = 0;
      const auto in = std::span<const std::uint8_t>(c.in.data() + off,
                                                    c.in_len - off);
      const std::int64_t t0 = traced_ ? now_ns() : 0;
      const auto st = evmp::net::parse_http_response(in, &consumed, &resp);
      if (st == evmp::net::ParseStatus::kNeedMore) break;
      if (st == evmp::net::ParseStatus::kError) {
        c.dead = true;
        break;
      }
      if (traced_) phase.parse_ns.push_back(static_cast<double>(now_ns() - t0));
      const std::uint64_t idx1 = resp.id & kIdMask;
      if ((resp.id >> kIdBits) != phase_id_) {
        // Answer to a request an earlier phase already gave up on (and
        // counted as lost there).
        ++phase.stale;
        off += consumed;
        continue;
      }
      if (idx1 == 0 || idx1 > phase.ops.size() ||
          phase.ops[idx1 - 1].outcome != Outcome::kPending) {
        ++phase.wrong;  // an id this phase never sent, or a second answer
        off += consumed;
        continue;
      }
      ClientOp& op = phase.ops[idx1 - 1];
      op.done = t_read;
      if (resp.status == evmp::net::kStatusShed) {
        op.outcome = Outcome::kShed;
        ++phase.shed;
      } else {
        const auto& body = payloads_[op.payload];
        const bool ok =
            resp.status == evmp::net::kStatusOk &&
            resp.checksum == checksums_[op.payload] &&
            (!echo_body_ ||
             (resp.body.size() == body.size() &&
              std::equal(body.begin(), body.end(), resp.body.begin())));
        op.outcome = ok ? Outcome::kOk : Outcome::kWrong;
        ++(ok ? phase.ok : phase.wrong);
      }
      --conns_[op.conn]->outstanding;
      ++settled;
      off += consumed;
    }
    if (off > 0) {
      std::memmove(c.in.data(), c.in.data() + off, c.in_len - off);
      c.in_len -= off;
    }
  }
  return settled;
}

void HttpClient::run(ClientPhase& phase, bool closed, std::size_t window,
                     std::int64_t end_ns, std::int64_t drain_ns) {
  tighten_timer_slack();
  ++phase_id_;
  std::size_t next = 0;     // open loop: next op to send
  std::size_t settled = 0;  // requests with an outcome
  std::size_t payload_rr = 0;
  std::vector<std::size_t> fresh;  // ops enqueued this iteration
  fresh.reserve(1024);
  epoll_event events[16];
  const std::int64_t send_end =
      closed ? end_ns : (phase.ops.empty() ? now_ns() : phase.ops.back().due);
  const std::int64_t drain_deadline = send_end + drain_ns;
  std::size_t total = phase.ops.size();

  for (;;) {
    std::int64_t now = now_ns();
    fresh.clear();
    if (!closed) {
      while (next < total && phase.ops[next].due <= now) {
        if (conns_[phase.ops[next].conn]->dead) {
          ++next;  // settled as kLost at the end
          continue;
        }
        enqueue(phase, next);
        fresh.push_back(next++);
      }
    } else if (now < end_ns) {
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
        Conn& c = *conns_[ci];
        while (!c.dead && c.outstanding < window &&
               phase.ops.size() < phase.ops.capacity()) {
          ClientOp op;
          op.due = now;
          op.conn = static_cast<std::uint32_t>(ci);
          op.payload = static_cast<std::uint32_t>(payload_rr++ %
                                                  payloads_.size());
          phase.ops.push_back(op);
          enqueue(phase, phase.ops.size() - 1);
          fresh.push_back(phase.ops.size() - 1);
        }
      }
      total = phase.ops.size();
    }
    if (!fresh.empty()) {
      for (auto& c : conns_) flush(*c);
      const std::int64_t t_sent = now_ns();
      for (const std::size_t i : fresh) phase.ops[i].sent = t_sent;
    }

    const bool sending_done = closed ? now >= end_ns : next == total;
    if (sending_done && settled == total) break;
    now = now_ns();
    if (sending_done && now >= drain_deadline) break;
    bool all_dead = true;
    for (auto& c : conns_) all_dead = all_dead && c->dead;
    if (all_dead) break;

    std::int64_t wake = drain_deadline;
    if (!sending_done) wake = closed ? end_ns : phase.ops[next].due;
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait % 1'000'000'000);
    const int n = ::epoll_pwait2(epoll_, events, 16, &ts, nullptr);
    for (int e = 0; e < n; ++e) {
      Conn& c = *conns_[events[e].data.u64];
      if ((events[e].events & EPOLLOUT) != 0) flush(c);
      if ((events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        settled += read_ready(phase, c);
      }
    }
  }
  for (auto& op : phase.ops) {
    if (op.outcome == Outcome::kPending) {
      op.outcome = Outcome::kLost;
      ++phase.lost;
    }
  }
  // A lost request's late answer arrives in a later phase, which tells it
  // apart by its phase id.
  for (auto& c : conns_) c->outstanding = 0;
}

}  // namespace perfbench
