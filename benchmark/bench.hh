/**
 * @file
 * Shared pieces of the end-to-end benchmark program: run options, the
 * result every workload fills in, and small statistics helpers.
 *
 * A run has three phases. Set-up builds the workload's inputs from the
 * seed (several times; `setup_s` is the fastest). The timed phase runs
 * operations closed loop. In-process workloads run whole passes over
 * their operation list, at least `kMinPasses` and then as many as bring
 * the phase closest to `Options::seconds` (see `anotherPass`). Every
 * pass repeats the same operations with the same seeds, so every run
 * measures the same mix of operations whatever the host's speed,
 * seed-deterministic outputs such as `best_edp_ratio` always cover the
 * same operations, and an operation's latency can be its fastest pass
 * (see `recordFastestPasses`). The check phase, untimed, checks the
 * outputs against the engine.
 */

#ifndef SPARSELOOP_BENCHMARK_BENCH_HH
#define SPARSELOOP_BENCHMARK_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mapper/mapspace.hh"

namespace slbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

/** Command-line settings of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed phase. */
    double seconds = 10.0;
    /** Traced run: report the per-layer metrics instead of the
     *  end-to-end ones. */
    bool trace = false;
    /** Shrink every input, keeping the code paths and checks. */
    bool smoke = false;
    /** Directory for the span file and the daemon's port file. */
    std::string work_dir = ".";
};

/** Everything one run measured. Workloads fill the half that matches
 *  `Options::trace`. */
struct RunResult
{
    /** Operations whose outputs were checked. */
    std::int64_t attempted = 0;
    /** Operations that failed or whose outputs did not check. */
    std::int64_t failed = 0;
    /** The first few check failures, for the error stream. */
    std::vector<std::string> errors;

    /** Evaluations per second of op time: one rate for the in-process
     *  workloads (see `recordFastestPasses`), one per tenth of the
     *  phase for daemon-replay; `evals_per_s` is their median. */
    std::vector<double> rates;
    /** Latency of every operation (in-process workloads: of each
     *  operation of a pass, its fastest pass). */
    std::vector<double> op_ms;
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
    double best_edp_ratio = 0.0;

    /** Per-layer metrics by name; a layer the workload does not pass
     *  through reads 0. */
    std::map<std::string, double> layers;

    /** Record one failed operation. */
    void fail(const std::string &why);
    /** Record a failed run-level check; no operation is counted. */
    void reject(const std::string &why);
    /** No operation failed and every check passed. */
    bool correct() const { return failed == 0 && errors.empty(); }
};

/** @p num / @p den, or 0 when @p den is not positive. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Whether a phase that has run @p passes whole passes in @p elapsed_s
 * should run another: it runs at least one, and then as many as bring
 * its length closest to @p target_s.
 */
inline bool
anotherPass(std::int64_t passes, double elapsed_s, double target_s)
{
    return passes == 0 ||
           elapsed_s * (1.0 + 0.5 / static_cast<double>(passes)) < target_s;
}

/** Passes an untraced in-process run times at least, so that every
 *  operation's latency is the fastest of two or more timings. */
constexpr std::int64_t kMinPasses = 2;

/**
 * Record an untraced in-process phase in @p result. @p seconds holds
 * the timings of whole passes over the same @p ops operations
 * (operation k of pass p at p * ops + k), and one pass does
 * @p pass_evals evaluations. Every pass repeats the same work, so an
 * operation's latency is its fastest pass: other tenants of a shared
 * host only ever add time, in stretches of seconds that rarely cover
 * an operation in every pass. `evals_per_s` is one pass's evaluations
 * over the sum of those latencies.
 */
void recordFastestPasses(const std::vector<double> &seconds, std::size_t ops,
                         double pass_evals, RunResult &result);

/** Linear-interpolation quantile (@p q in [0, 1]) of @p values. */
double quantile(std::vector<double> values, double q);

/** Geometric mean of positive values (0 for none). */
double geomean(const std::vector<double> &values);

/**
 * A mapping pool's near-best EDP: the 10th percentile of @p edps, the
 * EDPs of its valid points (0 when there are none). The pool's single
 * best point swings by orders of magnitude with the seed that drew the
 * pool, and its 1st percentile by up to 5%; the 10th percentile moves
 * by about 1%.
 */
inline double
nearBestEdp(const std::vector<double> &edps)
{
    return quantile(edps, 0.1);
}

/** splitmix64: decorrelates derived seeds. */
std::uint64_t mixSeed(std::uint64_t x);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/**
 * @p count distinct mappings of @p space, in a seeded order: a
 * systematic sample of the enumerated space from a seeded offset. An
 * even spread makes the pool's best point far less seed-dependent than
 * independent draws would. Throws when the space does not enumerate
 * that many points.
 */
std::vector<sparseloop::Mapping> drawPool(const sparseloop::MapSpace &space,
                                          std::uint64_t seed,
                                          std::size_t count);

/**
 * Run `body(t)` for every t in [0, @p threads), each on its own thread,
 * and join them all. The first exception a thread threw is rethrown
 * once every thread has ended.
 */
template <typename Body>
void
onThreads(int threads, Body body)
{
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    auto joinAll = [&] {
        for (std::thread &w : workers) {
            w.join();
        }
    };
    try {
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                try {
                    body(t);
                } catch (...) {
                    errors[static_cast<std::size_t>(t)] =
                        std::current_exception();
                }
            });
        }
    } catch (...) {
        joinAll();
        throw;
    }
    joinAll();
    for (const std::exception_ptr &e : errors) {
        if (e) {
            std::rethrow_exception(e);
        }
    }
}

/**
 * Build a workload's inputs several times and keep the last build;
 * @p fastest_s receives the fastest build's time. Builds repeat at
 * least 3 times and until they total a second, so a millisecond set-up
 * is timed a thousand times. A smoke run builds once. Earlier builds
 * are destroyed before the next starts, outside the timing.
 *
 * The fastest build, not the median, because a shared host switches
 * the benchmark between two speeds about 1.6x apart for 50-300 ms at a
 * time: the median of a short set-up reads whichever speed held for
 * most of the second, while most seconds hold some fast builds.
 */
template <typename Make>
auto
timedSetups(bool smoke, Make make, double &fastest_s) -> decltype(make())
{
    double total_s = 0.0;
    int builds = 0;
    decltype(make()) state;
    while (builds == 0 || (!smoke && (builds < 3 || total_s < 1.0))) {
        state.reset();
        const Clock::time_point t0 = Clock::now();
        state = make();
        const double seconds = secondsSince(t0);
        fastest_s = builds == 0 ? seconds : std::min(fastest_s, seconds);
        total_s += seconds;
        ++builds;
    }
    return state;
}

RunResult runSearchDnn(const Options &opt);
RunResult runSearchCodesign(const Options &opt);
RunResult runBatchCodesign(const Options &opt);
RunResult runDaemonReplay(const Options &opt);

} // namespace slbench

#endif // SPARSELOOP_BENCHMARK_BENCH_HH
