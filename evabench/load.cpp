// evabench_load: the benchmark's load generator, a client process of its
// own that talks to the fleet's router over loopback TCP.
//
// The request list of a workload is a pure function of the workload seed:
// request i of phase p is derived by hashing (seed, p, i), and the
// open-loop arrival times are drawn up front from exponential gaps. The
// fleet only ever sees the generated request lines.
//
// Phases, run back to back:
//   0  warm-up, not measured: a few fresh requests and, for fleet_repeat,
//      every pool entry once, sent back to back by kConns workers;
//   1  open loop: Poisson arrivals at --rate for --open-seconds, served by
//      kConns worker threads; each request is timed from its due time;
//   2  closed loop: kConns workers send back to back for --closed-seconds.
//
// Workloads:
//   fleet_fresh   every request has a unique seed; one persistent
//                 connection per worker;
//   fleet_repeat  23 of every 25 requests (92%) are drawn from a small
//                 Zipf pool of seeded requests, the rest are fresh; every
//                 request opens a new connection.
//
// Output (--out): one "P" line per phase (window and elapsed seconds), "S"
// lines carrying the router's {"cmd":"stats"} answer before and after each
// measured phase, and one "R" record per request followed by its raw
// response lines:
//   R <phase> <index> <due_us> <pick_us> <start_us> <connect_us|-1>
//     <done_us> <ok> <nlines> <request json>
// Times are microseconds since the phase started: pick is when a free
// worker took the request, start is when it left the generator (after
// waiting for its due time, before any connect); connect is the connect
// call's duration when the request opened a connection. ok is 1 when a
// terminator line arrived.
//
// Usage:
//   evabench_load --workload W --seed S --port P --rate R
//                 --open-seconds A --closed-seconds B --out FILE
//   evabench_load --workload W --seed S --rate R --open-seconds A --dump N
//     prints the first N requests of each phase and exits (no fleet).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kConns = 4;            // open connections (and threads) at most
constexpr int kWarmupRequests = 8;
constexpr double kResponseTimeoutMs = 60000.0;
constexpr int kNumTypes = 11;
constexpr const char* kTypeNames[kNumTypes] = {
    "Op-Amp", "LDO", "Bandgap", "Comparator", "PLL", "LNA",
    "PA", "Mixer", "VCO", "PowerConverter", "SC-Sampler"};
// Topologies per request, and the cumulative share of each size: the
// median request asks for 4 and the slowest quarter for 8, so neither
// percentile sits on a boundary between sizes.
constexpr int kSizes[4] = {1, 2, 4, 8};
constexpr double kSizeCdf[4] = {0.2, 0.4, 0.75, 1.0};
constexpr const char* kPriorities[3] = {"high", "normal", "low"};
constexpr double kPriorityCdf[3] = {0.15, 0.85, 1.0};
// Sizes and priorities of fresh requests are dealt in blocks of kMixBlock
// consecutive fresh requests, each block holding every share exactly in a
// seed-drawn order; the fresh/pool choice of fleet_repeat likewise, in
// blocks of kRepeatBlock. In fleet_repeat a fresh request costs about 600
// router cache hits, so when coin flips drew the fresh share and the sizes,
// closed-loop capacity differed between seeds by up to 35%.
constexpr int kMixBlock = 20;
constexpr int kRepeatBlock = 25;

// --- deterministic request list ------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Index of the share that slot `slot` of a block of `block` falls in.
template <std::size_t N>
int share_of(int slot, int block, const double (&cdf)[N]) {
  int k = 0;
  while (k + 1 < static_cast<int>(N) &&
         slot >= static_cast<int>(std::lround(cdf[k] * block))) {
    ++k;
  }
  return k;
}

// fleet_repeat draws from the seeded pool and opens a connection per
// request; fleet_fresh does neither.
struct Workload {
  bool repeat = false;
  int pool = 48;                // pool entries
  int fresh_per_block = 2;      // of kRepeatBlock: 92% from the pool
  double zipf_s = 1.1;          // pool popularity exponent
};

struct Req {
  int type = 0;
  int n = 1;
  int priority = 1;
  std::uint64_t seed = 1;
};

std::string to_line(const Req& r) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"type\": \"%s\", \"n\": %d, \"temperature\": 1, "
                "\"priority\": \"%s\", \"seed\": %llu}",
                kTypeNames[r.type], r.n, kPriorities[r.priority],
                static_cast<unsigned long long>(r.seed));
  return buf;
}

class RequestStream {
 public:
  RequestStream(const Workload& w, std::uint64_t seed)
      : w_(w), seed_(seed & ((1ULL << 30) - 1)) {
    double total = 0.0;
    for (int k = 1; k <= w_.pool; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), w_.zipf_s);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    for (int j = 0; j < w_.pool; ++j) {
      Req r;
      const std::uint64_t h = mix64(key(3, static_cast<std::uint64_t>(j)) ^
                                    0xA5A5A5A5ULL);
      r.type = static_cast<int>((static_cast<std::uint64_t>(j) + seed_) %
                                kNumTypes);
      r.n = kSizes[share_of(static_cast<int>(h % kMixBlock), kMixBlock,
                            kSizeCdf)];
      r.seed = nonzero(mix64(key(3, static_cast<std::uint64_t>(j))));
      pool_.push_back(r);
    }
  }

  // Request i of phase p (0 warm-up, 1 open, 2 closed).
  [[nodiscard]] Req at(int phase, std::uint64_t i) const {
    std::uint64_t f = i;  // ordinal among the phase's fresh requests
    if (w_.repeat && phase != 0) {
      const int s = slot(phase, i, 0x1111ULL, kRepeatBlock);
      if (s >= w_.fresh_per_block) {
        const double u = unit(mix64(key(phase, i) ^ 0x2222ULL));
        const auto it =
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
        Req r = pool_[static_cast<std::size_t>(
            std::min<std::ptrdiff_t>(it - zipf_cdf_.begin(), w_.pool - 1))];
        r.priority = share_of(slot(phase, i, 0x3333ULL, kMixBlock), kMixBlock,
                              kPriorityCdf);
        return r;
      }
      f = i / kRepeatBlock * static_cast<std::uint64_t>(w_.fresh_per_block) +
          static_cast<std::uint64_t>(s);
    }
    Req r;
    // mix64 is a bijection, so distinct keys give distinct seeds.
    r.seed = nonzero(mix64(key(phase, i)));
    r.type = static_cast<int>((f + seed_) % kNumTypes);
    r.n = kSizes[share_of(slot(phase, f, 0x4444ULL, kMixBlock), kMixBlock,
                          kSizeCdf)];
    r.priority = share_of(slot(phase, f, 0x5555ULL, kMixBlock), kMixBlock,
                          kPriorityCdf);
    return r;
  }

  // The unmeasured warm-up list: `fresh` fresh requests and, for the
  // repeat workload, every pool entry once, so the measured phases see a
  // warm cache.
  [[nodiscard]] std::vector<Req> warmup(int fresh) const {
    std::vector<Req> out;
    for (int i = 0; i < fresh; ++i) {
      out.push_back(at(0, static_cast<std::uint64_t>(i)));
    }
    if (w_.repeat) out.insert(out.end(), pool_.begin(), pool_.end());
    return out;
  }

  // Open-loop due times (seconds from phase start) up to `seconds`.
  [[nodiscard]] std::vector<double> arrivals(double rate,
                                             double seconds) const {
    std::vector<double> due;
    double t = 0.0;
    for (std::uint64_t i = 0;; ++i) {
      const double u = unit(mix64(key(1, i) ^ 0x6666ULL));
      t += -std::log1p(-u) / rate;
      if (t >= seconds) break;
      due.push_back(t);
    }
    return due;
  }

 private:
  // Where index i lands in a seed-drawn shuffle of its block of `block`
  // consecutive indices.
  [[nodiscard]] int slot(int phase, std::uint64_t i, std::uint64_t salt,
                         int block) const {
    std::vector<int> perm(static_cast<std::size_t>(block));
    for (int k = 0; k < block; ++k) perm[static_cast<std::size_t>(k)] = k;
    const auto b = static_cast<std::uint64_t>(block);
    std::uint64_t h = mix64(key(phase, i / b) ^ salt);
    for (std::uint64_t k = b; k > 1; --k) {
      h = mix64(h);
      std::swap(perm[k - 1], perm[h % k]);
    }
    return perm[i % b];
  }

  [[nodiscard]] std::uint64_t key(int phase, std::uint64_t i) const {
    return (seed_ << 34) | (static_cast<std::uint64_t>(phase) << 32) |
           (i & 0xFFFFFFFFULL);
  }
  static std::uint64_t nonzero(std::uint64_t s) { return s == 0 ? 1 : s; }

  Workload w_;
  std::uint64_t seed_;
  std::vector<double> zipf_cdf_;
  std::vector<Req> pool_;
};

// --- loopback client -----------------------------------------------------

class Conn {
 public:
  Conn() = default;
  ~Conn() { close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool connect(int port) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close();
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t w =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  bool read_line(std::string& out, Clock::time_point deadline) {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        out.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return false;
      pollfd p{fd_, POLLIN, 0};
      const int pr = ::poll(&p, 1, static_cast<int>(left));
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) return false;
      char chunk[16384];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

bool is_terminator(const std::string& line) {
  return line.rfind("{\"done\"", 0) == 0;
}

// --- one request ----------------------------------------------------------

struct Record {
  int phase = 0;
  std::uint64_t index = 0;
  double due_us = 0.0;
  double pick_us = 0.0;
  double start_us = 0.0;
  double connect_us = -1.0;
  double done_us = 0.0;
  bool ok = false;
  std::string request;
  std::vector<std::string> lines;
};

double us_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - t0).count();
}

// Send one request (connecting first when needed) and read its response
// up to and including the terminator. On any transport failure the
// connection is dropped so the next request reconnects.
void exchange(Conn& conn, int port, bool conn_per_request,
              Clock::time_point t0, Record& rec) {
  const auto start = Clock::now();
  rec.start_us = us_since(t0, start);
  if (!conn.is_open()) {
    const bool connected = conn.connect(port);
    rec.connect_us = us_since(start, Clock::now());
    if (!connected) {
      rec.done_us = us_since(t0, Clock::now());
      return;
    }
  }
  if (conn.send_line(rec.request)) {
    const auto deadline =
        Clock::now() + std::chrono::microseconds(
                           static_cast<long>(kResponseTimeoutMs * 1000.0));
    std::string line;
    while (conn.read_line(line, deadline)) {
      rec.lines.push_back(line);
      if (is_terminator(line)) {
        rec.ok = true;
        break;
      }
    }
  }
  rec.done_us = us_since(t0, Clock::now());
  if (!rec.ok || conn_per_request) conn.close();
}

std::string router_stats(int port) {
  Conn c;
  std::string line;
  if (!c.connect(port) || !c.send_line("{\"cmd\": \"stats\"}") ||
      !c.read_line(line, Clock::now() + std::chrono::seconds(10))) {
    return "{}";
  }
  return line;
}

// --- CLI -------------------------------------------------------------------

struct Args {
  std::string workload = "fleet_fresh";
  std::uint64_t seed = 1;
  int port = 0;
  double rate = 10.0;
  double open_seconds = 1.0;
  double closed_seconds = 1.0;
  std::string out;
  int dump = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--port") a.port = std::atoi(v);
    else if (k == "--rate") a.rate = std::atof(v);
    else if (k == "--open-seconds") a.open_seconds = std::atof(v);
    else if (k == "--closed-seconds") a.closed_seconds = std::atof(v);
    else if (k == "--out") a.out = v;
    else if (k == "--dump") a.dump = std::atoi(v);
    else return false;
  }
  return a.rate > 0.0 && a.open_seconds > 0.0 &&
         (a.workload == "fleet_fresh" || a.workload == "fleet_repeat");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: evabench_load --workload fleet_fresh|fleet_repeat "
                 "--seed S --port P --rate R --open-seconds A "
                 "--closed-seconds B --out FILE | --dump N\n");
    return 2;
  }
  Workload w;
  w.repeat = args.workload == "fleet_repeat";
  const RequestStream stream(w, args.seed);
  const std::vector<double> due = stream.arrivals(args.rate, args.open_seconds);

  const std::vector<Req> warm = stream.warmup(kWarmupRequests);
  if (args.dump > 0) {
    for (int phase = 0; phase <= 2; ++phase) {
      for (int i = 0; i < args.dump; ++i) {
        const auto idx = static_cast<std::uint64_t>(i);
        double t = 0.0;
        if (phase == 0 && idx >= warm.size()) break;
        if (phase == 1) {
          if (idx >= due.size()) break;
          t = due[idx];
        }
        std::printf("%d %d %.9f %s\n", phase, i, t,
                    to_line(phase == 0 ? warm[idx] : stream.at(phase, idx))
                        .c_str());
      }
    }
    return 0;
  }
  if (args.port <= 0 || args.out.empty() || args.closed_seconds <= 0.0) {
    std::fprintf(stderr, "evabench_load: --port, --out and "
                         "--closed-seconds are required\n");
    return 2;
  }

  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "evabench_load: cannot write %s\n",
                 args.out.c_str());
    return 2;
  }
  std::vector<Record> all;

  for (int phase = 0; phase <= 2; ++phase) {
    if (phase > 0) {
      std::fprintf(out, "S %d before %s\n", phase,
                   router_stats(args.port).c_str());
    }
    std::atomic<std::uint64_t> next{0};
    std::vector<std::vector<Record>> per_worker(kConns);
    const double window_s = phase == 1 ? args.open_seconds : args.closed_seconds;
    const auto t0 = Clock::now();
    const auto end =
        t0 + std::chrono::microseconds(static_cast<long>(window_s * 1e6));
    // The calling thread is worker 0, so the process never runs more
    // than kConns threads.
    const auto work = [&](int c) {
      Conn conn;
      for (;;) {
        const std::uint64_t i = next.fetch_add(1);
        Record rec;
        rec.phase = phase;
        rec.index = i;
        rec.pick_us = us_since(t0, Clock::now());
        if (phase == 0) {
          if (i >= warm.size()) break;
          rec.due_us = rec.pick_us;
        } else if (phase == 1) {
          if (i >= due.size()) break;
          rec.due_us = due[i] * 1e6;
          std::this_thread::sleep_until(
              t0 + std::chrono::microseconds(
                       static_cast<long>(rec.due_us)));
        } else {
          if (Clock::now() >= end) break;
          rec.due_us = rec.pick_us;
        }
        rec.request = to_line(phase == 0 ? warm[i] : stream.at(phase, i));
        exchange(conn, args.port, w.repeat, t0, rec);
        per_worker[static_cast<std::size_t>(c)].push_back(std::move(rec));
      }
    };
    std::vector<std::thread> workers;
    for (int c = 1; c < kConns; ++c) workers.emplace_back(work, c);
    work(0);
    for (auto& t : workers) t.join();
    if (phase > 0) {
      const double elapsed = us_since(t0, Clock::now()) / 1e6;
      std::fprintf(out, "S %d after %s\n", phase,
                   router_stats(args.port).c_str());
      std::fprintf(out, "P %d %.6f %.6f\n", phase, window_s, elapsed);
    }
    for (auto& v : per_worker) {
      for (auto& r : v) all.push_back(std::move(r));
    }
  }

  for (const Record& r : all) {
    std::fprintf(out, "R %d %llu %.1f %.1f %.1f %.1f %.1f %d %zu %s\n",
                 r.phase, static_cast<unsigned long long>(r.index), r.due_us,
                 r.pick_us, r.start_us, r.connect_us, r.done_us, r.ok ? 1 : 0,
                 r.lines.size(), r.request.c_str());
    for (const auto& l : r.lines) {
      std::fputs(l.c_str(), out);
      std::fputc('\n', out);
    }
  }
  const bool write_ok = std::fflush(out) == 0;
  std::fclose(out);
  return write_ok ? 0 : 1;
}
