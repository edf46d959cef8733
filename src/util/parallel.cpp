#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace eva {

namespace {

std::atomic<std::size_t> g_override{0};

// Upper bound on pool size; matches the historical clamp on
// hardware_concurrency so set_num_threads(huge) cannot fork-bomb.
constexpr std::size_t kMaxPoolThreads = 16;

// Read once per process: glibc's hardware_concurrency() re-reads the
// online-CPU list from sysfs (a syscall) on every call, and every
// parallel call consults the count before deciding to run inline.
std::size_t hardware_threads() {
  static const std::size_t n = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hc == 0 ? 1 : hc, 1, kMaxPoolThreads);
  }();
  return n;
}

// True while this thread is executing chunks of some parallel region
// (worker or caller). Nested parallel calls check it and run inline.
thread_local bool t_in_parallel = false;

/// One parallel region: a chunked [begin,end) range executed
/// cooperatively by pool workers and the submitting thread.
struct Region {
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  // Execution tickets: only `tickets` threads actually process chunks,
  // so set_num_threads bounds parallelism even when more workers are
  // alive in the pool.
  std::atomic<int> tickets{0};
  std::exception_ptr error;
  std::mutex error_mu;

  void run() noexcept {
    const bool prev = t_in_parallel;
    t_in_parallel = true;
    for (;;) {
      const std::size_t b = next.fetch_add(chunk, std::memory_order_relaxed);
      if (b >= end) break;
      const std::size_t e = std::min(end, b + chunk);
      try {
        (*fn)(b, e);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(error_mu);
          if (!error) error = std::current_exception();
        }
        // Abandon undispatched chunks: the caller is going to throw.
        next.store(end, std::memory_order_relaxed);
      }
    }
    t_in_parallel = prev;
  }
};

/// Lazily-started persistent worker pool (singleton). Workers block on a
/// condition variable between regions; a generation counter hands the
/// current region to every worker, and a completion count releases the
/// submitter once all workers have checked back in (which also
/// guarantees no worker still holds a pointer to the stack-allocated
/// Region). One region is in flight at a time; concurrent submitters
/// from distinct threads serialize on submit_mu_.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::size_t begin, std::size_t end,
           const std::function<void(std::size_t, std::size_t)>& fn,
           std::size_t chunk, std::size_t want_threads) {
    Region region;
    region.fn = &fn;
    region.end = end;
    region.chunk = std::max<std::size_t>(chunk, 1);
    region.next.store(begin, std::memory_order_relaxed);

    std::unique_lock<std::mutex> submit(submit_mu_);
    if (shutting_down_.load(std::memory_order_acquire)) {
      submit.unlock();
      region.run();
      if (region.error) std::rethrow_exception(region.error);
      return;
    }
    ensure_workers(want_threads - 1);
    region.tickets.store(static_cast<int>(want_threads) - 1,
                         std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      region_ = &region;
      completed_ = 0;
      ++generation_;
    }
    cv_.notify_all();
    region.run();  // the submitting thread is worker #0
    {
      std::unique_lock<std::mutex> lk(mu_);
      done_cv_.wait(lk, [&] { return completed_ == workers_.size(); });
      region_ = nullptr;
    }
    if (region.error) std::rethrow_exception(region.error);
  }

 private:
  Pool() = default;

  ~Pool() {
    shutting_down_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  // Grow the pool to at least `n` workers (capped). Called under
  // submit_mu_, so no region is being handed out concurrently.
  void ensure_workers(std::size_t n) {
    n = std::min(n, kMaxPoolThreads);
    std::lock_guard<std::mutex> lk(mu_);
    while (workers_.size() < n) {
      // Late-spawned workers must not mistake an already-finished
      // generation for fresh work (region_ may be null by then).
      workers_.emplace_back([this, g = generation_] { worker_loop(g); });
    }
  }

  void worker_loop(std::uint64_t seen) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      Region* r = region_;
      lk.unlock();
      // Every live worker checks in (completion barrier), but only
      // ticket holders execute chunks — extras go straight back to bed.
      if (r->tickets.fetch_sub(1, std::memory_order_relaxed) > 0) r->run();
      lk.lock();
      if (++completed_ == workers_.size()) done_cv_.notify_one();
    }
  }

  std::mutex submit_mu_;  // one region in flight at a time

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;       // workers wait for a new generation
  std::condition_variable done_cv_;  // submitter waits for completion
  std::vector<std::thread> workers_;
  Region* region_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t completed_ = 0;
  bool stop_ = false;
  std::atomic<bool> shutting_down_{false};
};

}  // namespace

std::size_t num_threads() {
  const std::size_t o = g_override.load(std::memory_order_relaxed);
  return o == 0 ? hardware_threads() : o;
}

void set_num_threads(std::size_t n) {
  g_override.store(n, std::memory_order_relaxed);
}

void parallel_chunks(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t min_chunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  min_chunk = std::max<std::size_t>(min_chunk, 1);
  const std::size_t workers =
      std::min(num_threads(), (n + min_chunk - 1) / min_chunk);
  if (workers <= 1 || t_in_parallel) {
    fn(begin, end);
    return;
  }
  // Chunk layout depends only on (n, workers): ceil-split so reduction
  // orders are reproducible for a fixed thread setting regardless of
  // which worker executes which chunk.
  const std::size_t chunk = (n + workers - 1) / workers;
  // Span covers submit -> drain of the whole region on the submitting
  // thread (worker-side time shows up as the gaps between regions).
  obs::Span span("parallel_region");
  Pool::instance().run(begin, end, fn, chunk, workers);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_chunks(
      begin, end,
      [&fn](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) fn(i);
      },
      grain);
}

}  // namespace eva
