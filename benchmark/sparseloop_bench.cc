/**
 * @file
 * sparseloop_bench: one end-to-end benchmark run of one workload.
 *
 *   sparseloop_bench --workload NAME [--seed N] [--seconds S]
 *                    [--trace 0|1] [--smoke] [--work-dir DIR]
 *
 * Workloads: search-dnn, search-codesign, batch-codesign,
 * daemon-replay (benchmark/README.md says what each stresses). An
 * untraced run prints the end-to-end metrics, a traced run the
 * per-layer ones, as one JSON object on the last line of stdout:
 *
 *   {"correct": true, "attempted": 130, "failed": 0, "ops": 118,
 *    "errors": [], "metrics": {"evals_per_s": {"value": ..,
 *    "unit": "evals/s"}, ...}}
 *
 * Exit status: 0 when every output checked, 1 when a check failed,
 * 2 on a usage error. benchmark/run.py builds and drives this program.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <random>
#include <stdexcept>

#include "bench.hh"

namespace slbench {

void
RunResult::fail(const std::string &why)
{
    ++failed;
    reject(why);
}

void
RunResult::reject(const std::string &why)
{
    if (errors.size() < 8) {
        errors.push_back(why);
    }
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (double v : values) {
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

void
recordFastestPasses(const std::vector<double> &seconds, std::size_t ops,
                    double pass_evals, RunResult &result)
{
    std::vector<double> fastest(seconds.begin(),
                                seconds.begin() +
                                    static_cast<std::ptrdiff_t>(ops));
    for (std::size_t i = ops; i < seconds.size(); ++i) {
        fastest[i % ops] = std::min(fastest[i % ops], seconds[i]);
    }
    double total_s = 0.0;
    for (double s : fastest) {
        result.op_ms.push_back(1e3 * s);
        total_s += s;
    }
    result.rates.push_back(pass_evals / total_s);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<sparseloop::Mapping>
drawPool(const sparseloop::MapSpace &space, std::uint64_t seed,
         std::size_t count)
{
    const std::int64_t size = space.size().enumerable;
    const auto n = static_cast<std::int64_t>(count);
    if (n <= 0 || size < n) {
        throw std::runtime_error("mapspace enumerates " +
                                 std::to_string(size) +
                                 " points, fewer than a pool of " +
                                 std::to_string(count));
    }
    const std::int64_t stride = size / n;
    std::mt19937_64 rng(mixSeed(seed));
    const auto offset = static_cast<std::int64_t>(
        rng() % static_cast<std::uint64_t>(stride));
    std::vector<sparseloop::Mapping> pool;
    pool.reserve(count);
    for (std::int64_t k = 0; k < n; ++k) {
        pool.push_back(space.mappingAt(offset + k * stride));
    }
    std::shuffle(pool.begin(), pool.end(), rng);
    return pool;
}

} // namespace slbench

namespace {

using namespace slbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, measured on untraced runs. */
const MetricSpec kEndToEnd[] = {
    {"evals_per_s", "evals/s"}, {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},        {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},     {"best_edp_ratio", "ratio"},
};

/** Per-layer metrics, measured on traced runs; named after the src/
 *  module whose public calls the spans surround. */
const MetricSpec kLayers[] = {
    {"mapper.mapspace.build_ms", "ms"},
    {"mapper.strategy.propose_us", "us"},
    {"mapper.strategy.observe_us", "us"},
    {"mapper.objective_us", "us"},
    {"mapper.driver.self_frac", "fraction"},
    {"mapper.valid_frac", "fraction"},
    {"mapper.best_at_frac", "fraction"},
    {"mapper.warm_start_seeds", "count"},
    {"model.batch.us_per_point", "us"},
    {"model.batch.bookkeeping_us", "us"},
    {"model.batch.unique_frac", "fraction"},
    {"model.batch.dense_groups_frac", "fraction"},
    {"model.key_us", "us"},
    {"model.cache.probe_us", "us"},
    {"model.cache.result_hit_rate", "fraction"},
    {"model.cache.dense_hit_rate", "fraction"},
    {"dataflow.step1_us", "us"},
    {"sparse.step2_us", "us"},
    {"microarch.step3_us", "us"},
    {"common.pool.speedup_4t", "ratio"},
    {"service.rtt_us_p50", "us"},
    {"service.rtt_us_p99", "us"},
    {"service.dispatch_us", "us"},
    {"service.wire_us", "us"},
    {"service.transport_us", "us"},
    {"service.bytes_per_request", "bytes"},
    {"service.bytes_per_reply", "bytes"},
    {"service.inprocess_frac", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "fraction"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: sparseloop_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] "
                 "[--work-dir DIR]\n"
                 "workloads: search-dnn search-codesign batch-codesign "
                 "daemon-replay\n");
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
printResult(const Options &opt, const RunResult &r)
{
    std::map<std::string, double> values;
    if (opt.trace) {
        values = r.layers;
    } else {
        values["evals_per_s"] = quantile(r.rates, 0.5);
        values["op_p50_ms"] = quantile(r.op_ms, 0.5);
        values["op_p90_ms"] = quantile(r.op_ms, 0.9);
        values["setup_s"] = r.setup_s;
        values["peak_rss_mb"] = r.peak_rss_mb;
        values["best_edp_ratio"] = r.best_edp_ratio;
    }
    std::string metrics;
    auto emit = [&](const MetricSpec &m) {
        auto it = values.find(m.name);
        const double v = it == values.end() ? 0.0 : it->second;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(v) ? v : 0.0);
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" +
                   m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                   m.unit + "\"}";
    };
    if (opt.trace) {
        for (const MetricSpec &m : kLayers) {
            emit(m);
        }
    } else {
        for (const MetricSpec &m : kEndToEnd) {
            emit(m);
        }
    }
    std::string errors;
    for (const std::string &e : r.errors) {
        errors += (errors.empty() ? "" : ", ") + jsonString(e);
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"ops\": %zu, \"errors\": [%s], \"metrics\": {%s}}\n",
                r.correct() ? "true" : "false",
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed), r.op_ms.size(),
                errors.c_str(), metrics.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc) {
            return usage();
        }
        const char *value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::atof(value);
        } else if (flag == "--trace") {
            opt.trace = std::strcmp(value, "0") != 0;
        } else if (flag == "--work-dir") {
            opt.work_dir = value;
        } else {
            return usage();
        }
    }
    const std::map<std::string, std::function<RunResult(const Options &)>>
        workloads{{"search-dnn", runSearchDnn},
                  {"search-codesign", runSearchCodesign},
                  {"batch-codesign", runBatchCodesign},
                  {"daemon-replay", runDaemonReplay}};
    auto it = workloads.find(opt.workload);
    if (it == workloads.end() || !(opt.seconds > 0.0)) {
        return usage();
    }
    try {
        RunResult result = it->second(opt);
        for (const std::string &e : result.errors) {
            std::fprintf(stderr, "sparseloop_bench: %s: %s\n",
                         opt.workload.c_str(), e.c_str());
        }
        std::fflush(stderr);
        printResult(opt, result);
        return result.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sparseloop_bench: %s: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
}
