#pragma once
// Loopback HTTP front end: the Figure 9 service over real sockets.
//
// A net::Server owns one Reactor, a listening socket, and the connection
// table. Socket readiness becomes work in the paper's model, not around
// it: every complete HTTP request is dispatched onto a named virtual
// target with `name_as` (so the server can drain with wait(tag)), the
// handler runs on the worker target exactly like a simulated-connector
// request, and its completion posts the encoded response back to the
// reactor — which is itself registered as a virtual target, so the
// continuation-in-place style survives the hop onto real I/O.
//
// Admission control is a two-level hysteresis state machine keyed on the
// server-wide in-flight count:
//
//            inflight >= high_watermark
//   ADMIT ───────────────────────────────▶ SHED
//     ▲                                     │
//     └─────────────────────────────────────┘
//            inflight <= low_watermark
//
// In SHED, a request parsed off a socket is answered 503 immediately from
// the reactor thread — before it occupies a worker-queue slot — and the
// accept gate closes (the listener leaves the epoll set, so the kernel
// backlog absorbs new connections instead of the connection table).
// Dropping back through the low watermark re-admits and re-opens the
// gate. A secondary depth bound on the target's injection queue sheds
// individual requests without a state change. All shed and transition
// counts are published through common::Tracer.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/counters.hpp"
#include "core/runtime.hpp"
#include "httpsim/request.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"

namespace evmp::net {

struct Connection;  // per-socket state; reactor-thread only (server.cpp)

/// Counter snapshot (relaxed; monotone while running). stop() publishes
/// each field as "<name>.<field>".
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t requests_received = 0;  ///< complete requests parsed
  std::uint64_t requests_admitted = 0;  ///< dispatched to the target
  std::uint64_t requests_shed = 0;      ///< rejected with a 503
  std::uint64_t responses_sent = 0;     ///< handler responses queued
  std::uint64_t responses_dropped = 0;  ///< connection gone at completion
  std::uint64_t protocol_errors = 0;    ///< malformed input (closes conn)
  std::uint64_t handler_errors = 0;     ///< handler threw (answered 500)
  std::uint64_t idle_closed = 0;        ///< closed by the idle timer
  std::uint64_t shed_entries = 0;       ///< ADMIT -> SHED transitions
  std::uint64_t accept_gate_closes = 0;  ///< times the gate shut
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;

  static constexpr common::CounterField<ServerStats> kFields[] = {
      {"connections_accepted", &ServerStats::connections_accepted},
      {"connections_closed", &ServerStats::connections_closed},
      {"requests_received", &ServerStats::requests_received},
      {"requests_admitted", &ServerStats::requests_admitted},
      {"requests_shed", &ServerStats::requests_shed},
      {"responses_sent", &ServerStats::responses_sent},
      {"responses_dropped", &ServerStats::responses_dropped},
      {"protocol_errors", &ServerStats::protocol_errors},
      {"handler_errors", &ServerStats::handler_errors},
      {"idle_closed", &ServerStats::idle_closed},
      {"shed_entries", &ServerStats::shed_entries},
      {"accept_gate_closes", &ServerStats::accept_gate_closes},
      {"bytes_received", &ServerStats::bytes_received},
      {"bytes_sent", &ServerStats::bytes_sent},
  };
};

/// The loopback request/response server.
class Server {
 public:
  enum class Mode : std::uint8_t {
    kEcho,     ///< checksum + echo the payload back (I/O-bound)
    kHandler,  ///< run Config::handler, e.g. EncryptionService (CPU-bound)
  };

  struct Config {
    std::uint16_t port = 0;  ///< 0 = ephemeral; see Server::port()
    Mode mode = Mode::kEcho;
    /// Virtual target handling request bodies. Must be registered with
    /// the runtime before start() (the server does not own it).
    std::string target = "worker";
    /// Handler for Mode::kHandler (e.g. http::EncryptionService::handler).
    http::RequestHandler handler;
    /// Watermarks on admitted-but-unanswered requests. Crossing the high
    /// mark enters SHED (503s + accept gate); dropping to the low mark
    /// leaves it. low must be < high; 0 high disables the state machine.
    std::size_t high_watermark = 4096;
    std::size_t low_watermark = 3072;
    /// Bound on the target executor's queued-task depth at admission time
    /// (0 = off), read from Executor::pending(): depth beyond the bound
    /// sheds instead of queueing.
    std::size_t max_target_depth = 0;
    /// Connection-table bound (0 = off). At the bound the accept gate
    /// closes until a connection dies.
    std::size_t max_connections = 0;
    /// Close connections with no traffic for this long (0 = off). Checked
    /// by a per-connection reactor timer that re-arms itself, so activity
    /// costs no timer bookkeeping.
    common::Nanos idle_timeout{0};
    /// Counter prefix, reactor name, and the virtual-target name the
    /// reactor is registered under.
    std::string name = "net";
  };

  Server(Runtime& rt, Config cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, register the reactor as a virtual target, start the loop.
  /// Throws std::system_error when the listener cannot be created.
  void start();

  /// Stop accepting, drain in-flight handlers (wait(tag)-style join),
  /// flush and close connections, join the reactor, publish counters.
  /// Idempotent.
  void stop();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] ServerStats stats() const noexcept {
    return stats_.snapshot();
  }
  [[nodiscard]] Reactor& reactor() noexcept { return reactor_; }
  [[nodiscard]] bool shedding() const noexcept {
    return shedding_.load(std::memory_order_relaxed);
  }

 private:
  friend struct Connection;
  class Acceptor;

  // Reactor-thread only.
  void on_request(Connection& conn, std::uint64_t id, bool keep_alive,
                  std::vector<std::uint8_t> payload);
  void handle_on_worker(std::uint64_t cid, std::uint64_t id,
                        std::vector<std::uint8_t> payload,
                        common::TimePoint arrived);
  void complete(std::uint64_t cid, std::vector<std::uint8_t> wire);
  void defer_destroy(std::uint64_t cid);
  void update_admission_on_admit();
  void update_admission_on_complete();
  void close_accept_gate();
  void maybe_open_accept_gate();
  void arm_idle_timer(Connection& conn);

  Runtime& rt_;
  Config cfg_;
  Reactor reactor_;
  Fd listen_;
  std::uint16_t port_ = 0;
  std::unique_ptr<Acceptor> acceptor_;
  std::string drain_tag_;
  bool started_ = false;
  bool stopped_ = false;

  // Reactor-thread state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_cid_ = 1;
  exec::Executor* target_exec_ = nullptr;  ///< resolved at start()
  bool accept_gated_ = false;
  bool accepting_ = false;  ///< listener is in the epoll set

  // Written on the reactor thread, read anywhere (observability).
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<bool> shedding_{false};

  common::Counters<ServerStats> stats_;
};

}  // namespace evmp::net
