/**
 * @file
 * Persistent worker pool shared by every parallel fan-out in the tree
 * (BatchEvaluator's evaluation waves, and through it
 * `Mapper::searchWithThreads` and the round-based search strategies).
 *
 * The previous helpers (common/parallel.hh) spawned one `std::thread`
 * per call: a mapper batch of a handful of evaluations paid several
 * thread create/join round-trips — hundreds of microseconds against a
 * few microseconds of useful work. Under that regime, batched
 * throughput *fell* as threads were added (see
 * bench/baselines/BENCH_engine.json history).
 *
 * `ThreadPool` starts its workers once and reuses them:
 *
 *  - **Persistent workers.** `ThreadPool::global()` lazily starts
 *    `hardwareThreads() - 1` helper threads that live for the process,
 *    so repeated batches pay no thread creation or join.
 *  - **Chunked index claiming.** A parallel-for claims contiguous
 *    index ranges via one atomic fetch-add per *chunk* (grain derived
 *    from the item count and participant count), not one per item.
 *  - **Allocation-free submission.** Tasks are passed as non-owning
 *    function references (`IndexBody`) — no `std::function` heap
 *    allocation on the submit path.
 *  - **Caller participation.** The submitting thread is always one of
 *    the participants, so `threads == 1` degenerates to an inline
 *    loop and small counts never context-switch.
 *  - **Graceful fallbacks.** Nested calls (a task body invoking
 *    `parallelFor` again) and calls racing another submitter run
 *    inline on the caller instead of deadlocking or queueing.
 *
 * Participation is capped at the pool's worker count + 1: asking for
 * more threads than the host has cores oversubscribes the scheduler
 * without adding compute, so requests beyond `hardwareThreads()` are
 * satisfied with the hardware's actual parallelism. Results are
 * unaffected — every caller in the tree is bit-identical across
 * thread counts by construction (proven by test_engine_differential
 * and the strategy determinism suites).
 *
 * Exception semantics match the old helpers: after any item throws,
 * participants stop executing new chunks, and the first exception is
 * rethrown on the submitting thread once the region drains (items not
 * yet claimed are skipped — callers must treat the batch as aborted).
 * The pool itself stays usable after a failed region.
 */

#ifndef SPARSELOOP_COMMON_THREAD_POOL_HH
#define SPARSELOOP_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace sparseloop {
namespace parallel {

/**
 * Resolve a requested worker count: 0 (or negative) means
 * hardware_concurrency, the result is at least 1 and never exceeds
 * @p jobs (idle workers are pure overhead).
 */
int resolveThreadCount(int requested, std::int64_t jobs);

/**
 * The host's hardware thread count: `std::thread::hardware_concurrency`
 * with a sysconf fallback, never less than 1. This is the value the
 * perf harness records and the pool sizes itself from.
 */
int hardwareThreads();

/**
 * Non-owning reference to a per-index callable `void(std::size_t)`.
 * Binds to any lambda/functor without allocating; the referenced
 * callable must outlive the parallel region (always true for an
 * argument temporary, which lives until the full call returns).
 */
class IndexBody
{
  public:
    template <typename F,
              typename = typename std::enable_if<!std::is_same<
                  typename std::decay<F>::type, IndexBody>::value>::type>
    IndexBody(const F &fn)  // NOLINT: implicit by design
        : ctx_(&fn), run_([](const void *ctx, std::size_t begin,
                             std::size_t end) {
              const F &f = *static_cast<const F *>(ctx);
              for (std::size_t i = begin; i < end; ++i) {
                  f(i);
              }
          })
    {
    }

    IndexBody() = default;

    /** Run the body for every index in [begin, end). */
    void runRange(std::size_t begin, std::size_t end) const
    {
        run_(ctx_, begin, end);
    }

    explicit operator bool() const { return run_ != nullptr; }

  private:
    const void *ctx_ = nullptr;
    void (*run_)(const void *, std::size_t, std::size_t) = nullptr;
};

/**
 * A persistent pool of helper threads executing chunked parallel-for
 * regions. One region runs at a time; the submitting thread always
 * participates. All members are safe to call from any thread; a
 * second concurrent `parallelFor` (from another thread, or nested
 * from inside a region body) runs inline on its caller.
 *
 * Most code should use the free `parallelFor` helper, which shares
 * the process-wide `global()` pool. Construct a private pool only to
 * control the helper count explicitly (tests do this to exercise real
 * concurrency on single-core hosts).
 */
class ThreadPool
{
  public:
    /** Start @p helpers persistent helper threads (clamped to >= 0;
     *  the submitting caller is always an extra participant). */
    explicit ThreadPool(int helpers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The process-wide pool: `hardwareThreads() - 1` helpers, started
     *  on first use, alive for the process. */
    static ThreadPool &global();

    /** Number of persistent helper threads (participants - 1). */
    int helperCount() const
    {
        return static_cast<int>(workers_.size());
    }

    /**
     * Run body(i) for every i in [0, count) on up to @p threads
     * participants (the caller plus at most threads-1 helpers, capped
     * by `helperCount()`). Indices are claimed in contiguous chunks;
     * each index runs exactly once. The first exception any
     * participant throws is rethrown here after the region drains.
     */
    void parallelFor(int threads, std::size_t count, IndexBody body);

  private:
    void workerMain();
    void chunkLoop();
    void runInline(std::size_t count, const IndexBody &body);
    void recordError();

    // Submission is serialized: one region at a time. A caller that
    // cannot take this lock immediately runs its region inline.
    std::mutex submit_mutex_;

    // Region state, guarded by mutex_ (the non-atomic task fields are
    // only written while no participant is active, and only read by
    // threads that joined the region under mutex_).
    std::mutex mutex_;
    std::condition_variable work_cv_;  ///< new region published
    std::condition_variable done_cv_;  ///< a participant left
    bool shutdown_ = false;
    std::uint64_t generation_ = 0;  ///< bumped per published region
    int joined_ = 0;                ///< helpers admitted to the region
    int max_helpers_ = 0;           ///< helper admission cap
    int active_ = 0;                ///< participants inside chunkLoop
    IndexBody body_;
    std::size_t count_ = 0;
    std::size_t grain_ = 1;

    // Hot-path claim/failure state (lock-free).
    std::atomic<std::size_t> next_{0};
    std::atomic<bool> failed_{false};

    std::mutex error_mutex_;
    std::exception_ptr error_;

    std::vector<std::thread> workers_;
};

/**
 * Dynamic parallel-for over the global pool: run fn(i) for every i in
 * [0, count) on up to @p threads participants. Inline on the caller
 * when threads <= 1, count <= 1, the pool is busy, or the call is
 * nested inside another region. After any item throws, participants
 * stop claiming new chunks; the first exception is rethrown once the
 * region drains (so some items may be skipped on failure — callers
 * must treat the batch as aborted).
 */
void parallelFor(int threads, std::size_t count, IndexBody body);

} // namespace parallel
} // namespace sparseloop

#endif // SPARSELOOP_COMMON_THREAD_POOL_HH
