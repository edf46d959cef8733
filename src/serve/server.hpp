// Minimal TCP JSON-lines front end for GenerationService (DESIGN.md
// §10).
//
// The socket side is one net::LineServer: it accepts, gives each live
// connection its own handler thread, and hands this class one request
// line at a time. Each line is submitted to the service and answered
// with the response items followed by a terminator line (see
// serve/protocol.hpp). Connections are served request-at-a-time — the
// concurrency story lives in the service queue, not in the socket layer.
//
// Shutdown: stop() (or SIGTERM observed by run()) closes the listener,
// drains the service (completing all admitted requests), then shuts
// down the remaining connections and joins their handlers.
//
// Robustness: SIGPIPE is ignored process-wide (net::ignore_sigpipe), all
// socket writes absorb EINTR/EAGAIN and partial writes (net::send_all),
// and a connection that sends no line for idle_ms is closed so a
// stalled client cannot pin a handler thread forever.
//
// Fault sites (EVA_FAULT, util/fault.hpp): `serve_accept` drops a
// freshly accepted connection; `serve_slow_client` trickles a response
// out in tiny chunks; `serve_conn_drop` hangs up after reading a
// request without answering; `serve_partial_write` emits a truncated
// response line then hangs up; `serve_stall` sits on a request for
// EVA_SERVE_STALL_FAULT_MS before answering; `replica_crash` kills the
// whole process (_Exit — what a SIGKILL looks like to peers). The last
// four exist so the router's failover/retry/hedging paths are exercised
// deterministically in tests and in the chaos gate.
#pragma once

#include <string>

#include "serve/net.hpp"
#include "serve/service.hpp"

namespace eva::serve {

struct ServerConfig {
  std::string bind_addr = "127.0.0.1";
  int port = 7077;  // 0 = ephemeral (bound port returned by listen_and_start)
  /// Per-connection idle read timeout: a connection that delivers no
  /// line for this long is closed (serve.idle_timeouts counter). 0
  /// disables.
  double idle_ms = 0.0;
};

class JsonLineServer {
 public:
  /// The service must outlive the server.
  JsonLineServer(GenerationService& service, ServerConfig cfg = {});
  ~JsonLineServer();

  JsonLineServer(const JsonLineServer&) = delete;
  JsonLineServer& operator=(const JsonLineServer&) = delete;

  /// Bind + listen + start accepting. Returns the bound port.
  /// Throws eva::ConfigError when the socket cannot be bound.
  int listen_and_start();

  /// Block until a stop is requested (SIGTERM/SIGINT via train/signal,
  /// or stop() from another thread), then shut down gracefully.
  void run();

  /// Programmatic shutdown: stop accepting, drain the service, join all
  /// threads. Idempotent and thread-safe.
  void stop();

  [[nodiscard]] int port() const { return bound_port_; }

 private:
  /// One request line of connection `fd`; false closes the connection.
  [[nodiscard]] bool handle_line(int fd, const std::string& line, bool slow);

  GenerationService* service_;
  ServerConfig cfg_;
  int bound_port_ = 0;
  net::LineServer lines_;
};

}  // namespace eva::serve
