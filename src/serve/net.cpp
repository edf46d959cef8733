#include "serve/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <system_error>

#include "obs/log.hpp"
#include "train/signal.hpp"
#include "util/error.hpp"

namespace eva::serve::net {

namespace {

constexpr int kPollMs = 100;  // stop-flag observation granularity

}  // namespace

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

double env_ms(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const double ms = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(ms >= 0.0)) return fallback;
  return ms;
}

double idle_ms_from_env(double fallback) {
  return env_ms("EVA_SERVE_IDLE_MS", fallback);
}

bool send_all(int fd, std::string_view data, int timeout_ms) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc > 0) continue;
      if (rc < 0 && errno == EINTR) continue;
      return false;  // timed out waiting for writability
    }
    return false;  // EPIPE / ECONNRESET / anything else: peer is gone
  }
  return true;
}

bool send_line(int fd, std::string_view line, int timeout_ms) {
  std::string out(line);
  out += '\n';
  return send_all(fd, out, timeout_ms);
}

int connect_with_deadline(const std::string& host, int port,
                          double timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking
  return fd;
}

LineReader::Result LineReader::read_line(std::string& line,
                                         Clock::time_point deadline) {
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return Result::kLine;
    }
    if (buf_.size() > max_line_) return Result::kTooLong;
    const auto now = Clock::now();
    if (now >= deadline) return Result::kTimeout;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(
                                       std::min<long long>(left + 1, 1000)));
    if (rc < 0 && errno != EINTR) return Result::kError;
    if (rc <= 0) continue;  // poll slice elapsed; re-check the deadline
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Result::kEof;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Result::kError;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

LineServer::LineServer(std::string name, ConnectionFactory factory,
                       std::function<void()> drain)
    : name_(std::move(name)),
      factory_(std::move(factory)),
      drain_(std::move(drain)),
      connections_(obs::counter(name_ + ".connections")),
      idle_timeouts_(obs::counter(name_ + ".idle_timeouts")) {}

LineServer::~LineServer() { stop(); }

int LineServer::start(const std::string& bind_addr, int port,
                      double idle_ms) {
  ignore_sigpipe();
  idle_ms_ = idle_ms;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ConfigError(name_ + ": socket() failed: " + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  std::string why;
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    why = "bad bind address: " + bind_addr;
  } else if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) < 0 ||
             ::listen(listen_fd_, 64) < 0) {
    why = "cannot listen on " + bind_addr + ":" + std::to_string(port) +
          ": " + std::strerror(errno);
  }
  if (!why.empty()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError(name_ + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  acceptor_ = std::thread([this] { accept_loop(); });
  return ntohs(bound.sin_port);
}

void LineServer::run() const {
  while (!stopping_.load() && !train::stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
  }
}

void LineServer::stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true);
    if (acceptor_.joinable()) acceptor_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (drain_) drain_();
    {
      // Shut the remaining connections so their handlers read EOF, then
      // wait for every handler to retire itself.
      std::unique_lock<std::mutex> lk(mu_);
      for (const Connection& c : live_) ::shutdown(c.fd, SHUT_RDWR);
      closed_cv_.wait(lk, [this] { return live_.empty(); });
    }
    reap();
    obs::log_info(name_ + ".stopped");
  });
}

void LineServer::accept_loop() {
  while (!stopping_.load() && !train::stop_requested()) {
    reap();
    pollfd pfd{listen_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, kPollMs) <= 0) continue;  // timeout or EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    LineHandler on_line = factory_(fd);
    if (!on_line) {
      ::close(fd);
      continue;
    }
    // The handler retires itself under mu_, so it cannot run ahead of
    // its own registration.
    std::lock_guard<std::mutex> lk(mu_);
    const auto conn = live_.insert(live_.end(), Connection{fd, {}});
    try {
      conn->thread = std::thread(
          [this, conn, fd, h = std::move(on_line)] { serve(conn, fd, h); });
    } catch (const std::system_error&) {
      // Out of threads: refuse this connection instead of terminating.
      ::close(fd);
      live_.erase(conn);
      continue;
    }
    connections_.add();
  }
}

void LineServer::serve(std::list<Connection>::iterator conn, int fd,
                       const LineHandler& on_line) {
  LineReader reader(fd);
  std::string line;
  for (;;) {
    // A stalled client must not pin this thread forever: no complete
    // line within idle_ms closes the connection.
    const auto deadline =
        idle_ms_ > 0.0
            ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     idle_ms_))
            : Clock::time_point::max();
    const auto rc = reader.read_line(line, deadline);
    if (rc == LineReader::Result::kTimeout) {
      idle_timeouts_.add();
      obs::log_every_n(obs::LogLevel::kWarn, name_ + ".idle_timeout", 10,
                       {{"idle_ms", idle_ms_}});
      break;
    }
    // EOF, a socket error or a pathological line: hang up.
    if (rc != LineReader::Result::kLine) break;
    if (line.empty()) continue;
    try {
      if (!on_line(line)) break;
    } catch (const std::exception& e) {
      // A failing handler costs its connection, never the process.
      obs::log_error(name_ + ".handler_error", {{"what", e.what()}});
      break;
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  ::close(fd);
  finished_.push_back(std::move(conn->thread));
  live_.erase(conn);
  closed_cv_.notify_all();
}

void LineServer::reap() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lk(mu_);
    done.swap(finished_);
  }
  for (auto& t : done) t.join();
}

}  // namespace eva::serve::net
