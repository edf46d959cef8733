// Shared socket plumbing for the serving fleet (server, router, cache
// sidecar): hardened write/read helpers, deadline-aware client connects,
// and the one TCP listener all three serve their lines through
// (LineServer). Everything here is robust against the failure modes the
// chaos gate injects — partial writes, EINTR/EAGAIN, peers that vanish
// mid-line (EPIPE/ECONNRESET), and peers that stall forever.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace eva::serve::net {

using Clock = std::chrono::steady_clock;

/// Ignore SIGPIPE process-wide. A write to a half-closed socket must
/// surface as EPIPE from send(), never as a process-killing signal —
/// every serving binary calls this before touching a socket. Idempotent.
void ignore_sigpipe();

/// Fractional milliseconds from environment variable `name`; unset,
/// malformed or negative -> `fallback`.
[[nodiscard]] double env_ms(const char* name, double fallback);

/// EVA_SERVE_IDLE_MS, the per-connection idle read timeout every serving
/// main hands its listener (unset/invalid -> `fallback`).
[[nodiscard]] double idle_ms_from_env(double fallback);

/// Write all of `data`, absorbing EINTR and short writes; on
/// EAGAIN/EWOULDBLOCK waits for writability (bounded by `timeout_ms`
/// per poll, -1 = wait forever). Returns false when the peer is gone
/// (EPIPE/ECONNRESET/...) or the wait timed out.
[[nodiscard]] bool send_all(int fd, std::string_view data,
                            int timeout_ms = -1);

/// send_all of `line` + '\n'.
[[nodiscard]] bool send_line(int fd, std::string_view line,
                             int timeout_ms = -1);

/// Connect to host:port with a bounded wait (non-blocking connect +
/// poll). Returns the connected fd (blocking mode restored) or -1.
[[nodiscard]] int connect_with_deadline(const std::string& host, int port,
                                        double timeout_ms);

/// Buffered '\n'-framed line reader over one fd with an absolute
/// deadline per read_line call. A line longer than `max_line` bytes is
/// treated as a protocol error (the connection is unusable after it).
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_line = 1 << 20)
      : fd_(fd), max_line_(max_line) {}

  enum class Result { kLine, kEof, kTimeout, kError, kTooLong };

  /// Block until one full line is available (stripped of '\n'/"\r\n"),
  /// EOF, an error, or `deadline` passes.
  [[nodiscard]] Result read_line(std::string& line, Clock::time_point deadline);

  /// Bytes buffered past the last returned line (diagnostics).
  [[nodiscard]] std::size_t buffered() const { return buf_.size(); }

 private:
  int fd_;
  std::size_t max_line_;
  std::string buf_;
};

/// The TCP listener of replica, router and cache sidecar: bind, an
/// accept loop, and one handler thread per *live* connection reading
/// '\n'-framed lines (LineReader, 1 MiB cap) with `idle_ms` as the read
/// deadline. A handler that finishes is joined by the accept loop, so
/// threads and their mapped stacks scale with open connections, never
/// with connections ever accepted.
class LineServer {
 public:
  /// Serves one line of a connection (stripped of "\n"/"\r\n", never
  /// empty). Returning false closes the connection.
  using LineHandler = std::function<bool(const std::string& line)>;
  /// Called on the accept thread for each new connection `fd`; the
  /// handler it returns runs on that connection's own thread. An empty
  /// handler refuses the connection (it is closed at once).
  using ConnectionFactory = std::function<LineHandler(int fd)>;

  /// `name` prefixes the counters (<name>.connections,
  /// <name>.idle_timeouts), log events and errors. `drain` runs inside
  /// stop() after the listener has closed and before open connections
  /// are shut down, so admitted work can finish on live sockets.
  LineServer(std::string name, ConnectionFactory factory,
             std::function<void()> drain = {});
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Bind + listen on bind_addr:port (0 = ephemeral) and start the accept
  /// loop. Returns the bound port; throws eva::ConfigError when the
  /// socket cannot be bound. `idle_ms` <= 0 disables the idle timeout.
  int start(const std::string& bind_addr, int port, double idle_ms);

  /// Block until stop() is called or SIGTERM/SIGINT (train/signal) is
  /// observed. Does not stop the server itself.
  void run() const;

  /// Stop accepting, run `drain`, shut down every open connection and
  /// join all handlers. Idempotent and thread-safe.
  void stop();

  [[nodiscard]] bool stopping() const { return stopping_.load(); }

 private:
  struct Connection {
    int fd;
    std::thread thread;
  };

  void accept_loop();
  void serve(std::list<Connection>::iterator conn, int fd,
             const LineHandler& on_line);
  void reap();

  std::string name_;
  ConnectionFactory factory_;
  std::function<void()> drain_;
  obs::Counter& connections_;
  obs::Counter& idle_timeouts_;
  double idle_ms_ = 0.0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;
  std::condition_variable closed_cv_;
  std::list<Connection> live_;          // one entry per open connection
  std::vector<std::thread> finished_;   // returned handlers, awaiting join
  std::once_flag stop_once_;
  std::thread acceptor_;
};

}  // namespace eva::serve::net
