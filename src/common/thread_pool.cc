/**
 * @file
 * Persistent worker-pool implementation.
 *
 * Lifecycle of one parallel region:
 *
 *   submitter                         helper workers
 *   ---------                         --------------
 *   try_lock(submit_mutex_) ok
 *   lock(mutex_)
 *     wait until active_ == 0         (stale joiners drain)
 *     publish body/count/grain,
 *     joined_ = 0, active_ = 1,
 *     ++generation_
 *   unlock, notify work_cv_   ---->   wake: generation_ changed
 *                                     if joined_ < max_helpers_:
 *                                       ++joined_, ++active_, unlock
 *   chunkLoop()                       chunkLoop()
 *     claim [next_, next_+grain_)       ... same ...
 *     run body on the chunk
 *   lock(mutex_), --active_           lock(mutex_), --active_
 *   wait done_cv_ until active_==0    notify done_cv_ if 0, re-wait
 *   rethrow first error, return       work_cv_ for the next region
 *
 * The non-atomic region fields (body_, count_, grain_) are written
 * only while `active_ == 0` under mutex_, and read only by threads
 * that joined the region under mutex_ after the publish — every
 * access is ordered by the mutex, so the unlocked reads inside
 * chunkLoop are race-free (and ThreadSanitizer-provable).
 *
 * A worker that oversleeps a region entirely is harmless: when it
 * finally wakes it joins whatever region is current (or an already
 * finished one), finds `next_ >= count_`, and immediately leaves —
 * the publish-side wait for `active_ == 0` keeps such stragglers from
 * overlapping the next region's field writes.
 */

#include "common/thread_pool.hh"

#include <algorithm>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace sparseloop {
namespace parallel {

namespace {

/** Depth of pool regions on this thread (workers and participating
 *  submitters); nested parallelFor calls run inline. */
thread_local int tls_region_depth = 0;

/** Chunk size: ~4 chunks per participant keeps the claim traffic one
 *  atomic per chunk while leaving enough chunks to rebalance a slow
 *  participant's tail. */
std::size_t
grainFor(std::size_t count, int participants)
{
    std::size_t chunks = static_cast<std::size_t>(participants) * 4;
    std::size_t grain = count / chunks;
    return grain > 0 ? grain : 1;
}

} // namespace

int
resolveThreadCount(int requested, std::int64_t jobs)
{
    int threads = requested;
    if (threads <= 0) {
        threads = hardwareThreads();
    }
    threads = std::max(threads, 1);
    return static_cast<int>(
        std::min<std::int64_t>(threads, std::max<std::int64_t>(jobs, 1)));
}

int
hardwareThreads()
{
    unsigned hc = std::thread::hardware_concurrency();
#if defined(_SC_NPROCESSORS_ONLN)
    if (hc == 0) {
        long n = ::sysconf(_SC_NPROCESSORS_ONLN);
        if (n > 0) {
            hc = static_cast<unsigned>(n);
        }
    }
#endif
    return hc > 0 ? static_cast<int>(hc) : 1;
}

ThreadPool::ThreadPool(int helpers)
{
    helpers = std::max(helpers, 0);
    workers_.reserve(static_cast<std::size_t>(helpers));
    for (int i = 0; i < helpers; ++i) {
        workers_.emplace_back([this] { workerMain(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &worker : workers_) {
        worker.join();
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(hardwareThreads() - 1);
    return pool;
}

void
ThreadPool::runInline(std::size_t count, const IndexBody &body)
{
    ++tls_region_depth;
    try {
        body.runRange(0, count);
    } catch (...) {
        --tls_region_depth;
        throw;
    }
    --tls_region_depth;
}

void
ThreadPool::recordError()
{
    failed_.store(true, std::memory_order_relaxed);
    // Short-circuit the remaining claims so participants drain fast.
    next_.store(count_, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) {
        error_ = std::current_exception();
    }
}

void
ThreadPool::chunkLoop()
{
    ++tls_region_depth;
    for (;;) {
        std::size_t begin =
            next_.fetch_add(grain_, std::memory_order_relaxed);
        if (begin >= count_) {
            break;
        }
        std::size_t end = std::min(begin + grain_, count_);
        if (failed_.load(std::memory_order_relaxed)) {
            continue;  // drain the claims without executing
        }
        try {
            body_.runRange(begin, end);
        } catch (...) {
            recordError();
        }
    }
    --tls_region_depth;
}

void
ThreadPool::workerMain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::uint64_t seen = 0;
    for (;;) {
        work_cv_.wait(lock,
                      [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) {
            return;
        }
        seen = generation_;
        if (joined_ >= max_helpers_) {
            continue;  // region already has its full complement
        }
        ++joined_;
        ++active_;
        lock.unlock();
        chunkLoop();
        lock.lock();
        --active_;
        if (active_ == 0) {
            done_cv_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(int threads, std::size_t count, IndexBody body)
{
    if (count == 0 || !body) {
        return;
    }
    int participants = std::min(threads, helperCount() + 1);
    if (participants <= 1 || count <= 1 || tls_region_depth > 0) {
        runInline(count, body);
        return;
    }
    std::unique_lock<std::mutex> submit(submit_mutex_, std::try_to_lock);
    if (!submit.owns_lock()) {
        // Another thread owns the pool; don't queue behind it.
        runInline(count, body);
        return;
    }

    {
        std::unique_lock<std::mutex> lock(mutex_);
        // Wait out stragglers from the previous region before
        // overwriting its fields (they leave immediately: all its
        // chunks are claimed).
        done_cv_.wait(lock, [&] { return active_ == 0; });
        body_ = body;
        count_ = count;
        grain_ = grainFor(count, participants);
        next_.store(0, std::memory_order_relaxed);
        failed_.store(false, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> err_lock(error_mutex_);
            error_ = nullptr;
        }
        joined_ = 0;
        max_helpers_ = participants - 1;
        active_ = 1;  // the submitter
        ++generation_;
    }
    work_cv_.notify_all();

    chunkLoop();

    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        --active_;
        done_cv_.wait(lock, [&] { return active_ == 0; });
        std::lock_guard<std::mutex> err_lock(error_mutex_);
        err = error_;
        error_ = nullptr;
    }
    if (err) {
        std::rethrow_exception(err);
    }
}

void
parallelFor(int threads, std::size_t count, IndexBody body)
{
    ThreadPool::global().parallelFor(threads, count, body);
}

} // namespace parallel
} // namespace sparseloop
