// Data-parallel helpers used by the tensor engine and the evaluation
// harnesses, backed by a lazily-started persistent thread pool.
//
// The pool spawns its workers on the first parallel call and keeps them
// alive for the process lifetime (hundreds of tensor ops per training
// step would otherwise pay a thread spawn+join each). Dispatch is
// work-sharing: the calling thread and the workers pull fixed-size
// chunks off a shared atomic cursor until the range is exhausted, so
// uneven chunks (e.g. ragged tails, per-circuit evals of varying cost)
// self-balance. Exceptions thrown by any chunk are captured and the
// first one is rethrown on the calling thread after the region drains.
//
// Nested parallel calls (a parallel region issued from inside another
// region, on any thread) run inline on the issuing thread — this keeps
// call sites composable without deadlock and bounds total parallelism.
#pragma once

#include <cstddef>
#include <functional>

namespace eva {

/// Number of worker threads used by parallel_for (hardware_concurrency,
/// clamped to [1, 16], read once per process). Overridable for tests via
/// set_num_threads.
[[nodiscard]] std::size_t num_threads();

/// Override the worker count (0 restores the hardware default).
/// set_num_threads(1) makes every parallel_* call run inline on the
/// caller, giving bitwise-deterministic execution order.
void set_num_threads(std::size_t n);

/// Run fn(i) for i in [begin, end), split into contiguous chunks across
/// pool workers. Runs inline when the range is small or workers == 1.
/// fn must be safe to invoke concurrently for distinct i.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

/// Chunked variant: fn(chunk_begin, chunk_end) per dispatch. Lower
/// overhead for very fine-grained loops (tensor elementwise ops).
/// Chunk boundaries depend only on the range, min_chunk, and the worker
/// count — not on runtime scheduling — so results are reproducible for a
/// fixed set_num_threads value.
void parallel_chunks(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t min_chunk = 1024);

}  // namespace eva
