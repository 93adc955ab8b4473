#pragma once
// The benchmark's own HTTP load client for net::Server.
//
// It exists because net::LoadClient cannot time a sub-millisecond service:
// its epoll_wait timeout rounds every send up to whole milliseconds. This
// client
//   * waits with nanosecond resolution (epoll_pwait2, timer slack 1 ns);
//   * sets TCP_NODELAY on every connection;
//   * times every request from when it was *due*, so a stall delays the
//     requests behind it in the measurement too (coordinated omission);
//   * records how late it sent each request, so a run in which the
//     generator, not the server, fell behind can be flagged;
//   * checks every response: status, request id, checksum against a
//     reference computed by the benchmark, and for echo the body itself.
// One thread drives every connection. Requests and responses use the
// program's HTTP codec (net::encode_http_request / parse_http_response),
// whose cost the traced run reports as a layer of its own.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace perfbench {

/// What became of one request.
enum class Outcome : std::uint8_t { kPending, kOk, kShed, kWrong, kLost };

/// One request; times are origin-relative nanoseconds (probes.hpp).
struct ClientOp {
  std::int64_t due = 0;   ///< when it was scheduled to be sent
  std::int64_t sent = 0;  ///< when the client handed it to the socket
  std::int64_t done = 0;  ///< when its response was read
  std::uint32_t payload = 0;  ///< index into the client's payload set
  std::uint32_t conn = 0;
  Outcome outcome = Outcome::kPending;
};

/// One load phase: its requests plus outcome counts.
struct ClientPhase {
  std::vector<ClientOp> ops;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t lost = 0;
  std::uint64_t stale = 0;  ///< late answers to an earlier phase's requests
  /// Traced runs: duration of each encode / parse call into net::http.
  std::vector<double> encode_ns;
  std::vector<double> parse_ns;

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return shed + wrong + lost;
  }
};

class HttpClient {
 public:
  /// `payloads[i]` is the body of a request with payload index i;
  /// `checksums[i]` the X-Checksum its response must carry. With
  /// `echo_body` the response body must equal the request body.
  HttpClient(std::uint16_t port, std::size_t conns,
             std::vector<std::vector<std::uint8_t>> payloads,
             std::vector<std::uint64_t> checksums, bool echo_body,
             bool traced);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connect every socket (blocking connect on loopback, then
  /// non-blocking + TCP_NODELAY). False if any connect failed.
  bool connect_all();

  /// Open loop: send `phase.ops` (due, payload and conn filled in, in due
  /// order) on schedule, whatever the server does, then wait up to
  /// `drain_ns` past the last due time for the responses. Requests still
  /// unanswered then are kLost.
  void run_open(ClientPhase& phase, std::int64_t drain_ns);

  /// Closed loop: keep `window` requests outstanding on every connection
  /// until `end_ns` (origin-relative), each due when its slot freed; then
  /// drain as run_open. Payloads cycle through the set.
  void run_closed(ClientPhase& phase, std::size_t window, std::int64_t end_ns,
                  std::int64_t drain_ns);

 private:
  struct Conn;

  void run(ClientPhase& phase, bool closed, std::size_t window,
           std::int64_t end_ns, std::int64_t drain_ns);
  void enqueue(ClientPhase& phase, std::size_t idx);
  void flush(Conn& c);
  std::size_t read_ready(ClientPhase& phase, Conn& c);

  std::uint16_t port_;
  int epoll_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<std::uint64_t> checksums_;
  bool echo_body_;
  bool traced_;
  std::uint64_t phase_id_ = 0;
};

}  // namespace perfbench
