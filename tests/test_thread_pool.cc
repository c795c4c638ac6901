/**
 * @file
 * Tests for the persistent worker pool: every index of a region must
 * run exactly once at every (count, participant) shape — including
 * counts smaller than the participant cap and chunk-boundary sizes —
 * exceptions must propagate to the submitter and leave the pool
 * usable, nested and concurrent submissions must fall back inline
 * instead of deadlocking, and an idle pool must tear down cleanly.
 *
 * Tests construct explicit `ThreadPool(N)` pools rather than relying
 * on `ThreadPool::global()`, so real multi-worker execution is
 * exercised even on single-core CI hosts (where the global pool has
 * zero helpers and every region runs inline).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace sparseloop {
namespace parallel {
namespace {

/** Run one region and assert each index executed exactly once. */
void
expectExactlyOnce(ThreadPool &pool, int threads, std::size_t count)
{
    std::vector<std::atomic<int>> hits(count);
    for (auto &h : hits) {
        h.store(0);
    }
    pool.parallelFor(threads, count,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << count
                                     << " at " << threads << " threads";
    }
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.helperCount(), 3);
    for (int threads : {1, 2, 4, 8}) {
        // Chunk-boundary shapes: empty, single, count < participants,
        // count == participants, prime, grain-divisible, large.
        for (std::size_t count : {std::size_t(0), std::size_t(1),
                                  std::size_t(2), std::size_t(4),
                                  std::size_t(7), std::size_t(64),
                                  std::size_t(1000)}) {
            expectExactlyOnce(pool, threads, count);
        }
    }
}

TEST(ThreadPool, CountSmallerThanParticipants)
{
    // 4 participants, 2 items: the extra participants must claim
    // nothing and the region must still terminate.
    ThreadPool pool(3);
    expectExactlyOnce(pool, 4, 2);
    expectExactlyOnce(pool, 4, 3);
}

TEST(ThreadPool, RequestsBeyondHelperCountAreCapped)
{
    ThreadPool pool(2);
    expectExactlyOnce(pool, 64, 100);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable)
{
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallelFor(4, 100,
                         [&](std::size_t i) {
                             ran.fetch_add(1);
                             if (i == 37) {
                                 throw std::runtime_error("item 37");
                             }
                         }),
        std::runtime_error);
    // Failure short-circuits: unclaimed items are skipped, never more
    // than the full count runs.
    EXPECT_LE(ran.load(), 100);
    // The pool must accept and complete fresh regions afterwards.
    expectExactlyOnce(pool, 4, 128);
}

TEST(ThreadPool, ThrownExceptionIsOneOfTheBodies)
{
    // Every item throws a distinct message; exactly one of them must
    // surface on the submitter (the pool keeps the first and drops
    // the rest, but "first" is a race — any item's error is valid).
    ThreadPool pool(2);
    try {
        pool.parallelFor(3, 16, [](std::size_t i) {
            throw std::runtime_error("item " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &err) {
        EXPECT_EQ(std::string(err.what()).rfind("item ", 0), 0u)
            << "unexpected message: " << err.what();
    }
    expectExactlyOnce(pool, 3, 16);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(3);
    constexpr std::size_t kOuter = 8;
    constexpr std::size_t kInner = 32;
    std::vector<std::atomic<int>> inner_hits(kOuter * kInner);
    for (auto &h : inner_hits) {
        h.store(0);
    }
    pool.parallelFor(4, kOuter, [&](std::size_t o) {
        // The nested region must run inline on this participant (no
        // deadlock on the one-region-at-a-time pool) and still cover
        // its own indices exactly once.
        pool.parallelFor(4, kInner, [&](std::size_t i) {
            inner_hits[o * kInner + i].fetch_add(1);
        });
    });
    for (std::size_t i = 0; i < inner_hits.size(); ++i) {
        EXPECT_EQ(inner_hits[i].load(), 1) << "nested index " << i;
    }
}

TEST(ThreadPool, ConcurrentSubmittersAllComplete)
{
    // Several OS threads race regions onto one pool; losers of the
    // submission race must fall back inline, and every submitter's
    // region must cover its indices exactly once.
    ThreadPool pool(3);
    constexpr int kSubmitters = 4;
    constexpr std::size_t kCount = 500;
    std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
    for (auto &v : hits) {
        std::vector<std::atomic<int>> fresh(kCount);
        for (auto &h : fresh) {
            h.store(0);
        }
        v = std::move(fresh);
    }
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s] {
            for (int round = 0; round < 20; ++round) {
                pool.parallelFor(4, kCount, [&, s](std::size_t i) {
                    hits[s][i].fetch_add(1);
                });
            }
        });
    }
    for (auto &t : submitters) {
        t.join();
    }
    for (int s = 0; s < kSubmitters; ++s) {
        for (std::size_t i = 0; i < kCount; ++i) {
            EXPECT_EQ(hits[s][i].load(), 20)
                << "submitter " << s << " index " << i;
        }
    }
}

TEST(ThreadPool, TeardownWhileIdle)
{
    // Construct-and-destroy without ever submitting: workers parked on
    // the condition variable must wake and join promptly.
    for (int i = 0; i < 8; ++i) {
        ThreadPool pool(4);
    }
    // And immediately after a region, while helpers may still be
    // draining out of it.
    for (int i = 0; i < 8; ++i) {
        ThreadPool pool(4);
        std::atomic<int> n{0};
        pool.parallelFor(5, 64, [&](std::size_t) { n.fetch_add(1); });
        EXPECT_EQ(n.load(), 64);
    }
}

TEST(ThreadPool, ZeroHelperPoolRunsInline)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.helperCount(), 0);
    expectExactlyOnce(pool, 8, 100);
}

TEST(ThreadPool, ResolveThreadCount)
{
    // 0 / negative = hardware concurrency; capped by the job count;
    // never below 1.
    EXPECT_EQ(resolveThreadCount(4, 100), 4);
    EXPECT_EQ(resolveThreadCount(4, 2), 2);
    EXPECT_EQ(resolveThreadCount(4, 0), 1);
    EXPECT_EQ(resolveThreadCount(1, 100), 1);
    EXPECT_EQ(resolveThreadCount(0, 100), hardwareThreads());
    EXPECT_EQ(resolveThreadCount(-3, 100), hardwareThreads());
    EXPECT_GE(resolveThreadCount(0, 1), 1);
    EXPECT_GE(hardwareThreads(), 1);
}

} // namespace
} // namespace parallel
} // namespace sparseloop
