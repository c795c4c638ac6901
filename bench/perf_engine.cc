/**
 * @file
 * The engine hot-path microbenchmark harness: a repeatable measurement
 * of evaluations/second for the paths a mapping search actually pays
 * for, emitted as machine-readable JSON (`BENCH_engine.json`) so the
 * committed baseline under bench/baselines/ can gate regressions
 * (scripts/check_bench_regression.py) and document the speed
 * campaign's trajectory.
 *
 * Measured per workload:
 *  - cold: the full three-step `Engine::evaluate` (dataflow -> sparse
 *    -> micro-architecture), the dominant cost of uncached search;
 *    alongside it the frozen naive reference path
 *    (`refmodel::referenceEvaluate`), whose ratio IS the speed
 *    campaign's before/after trajectory — the reference is a verbatim
 *    transcription of the engine before the optimization passes, and
 *    the differential suite proves the two still agree bit for bit;
 *  - cached: the EvalCache full-result hit path (signature hash +
 *    lookup + EvalResult copy);
 *  - batch: the thread-scaling section — BatchEvaluator fan-out over
 *    a pool of distinct mappings at 1, 4, and 8 worker threads,
 *    uncached, each row reporting its speedup over the 1-thread row.
 *    Rows asking for more threads than the host has are marked
 *    `advisory` (the regression gate skips them: a single-core host
 *    cannot measure scaling, only overhead).
 *
 * Every rate is the median of 5 timed repetitions of a calibrated
 * iteration count (each repetition lasts at least 0.2 s).
 *
 * Usage: perf_engine [output.json]   (stdout when omitted)
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/thread_pool.hh"
#include "density/hypergeometric.hh"
#include "format/tensor_format.hh"
#include "apps/designs.hh"
#include "model/batch_evaluator.hh"
#include "model/engine.hh"
#include "model/eval_cache.hh"
#include "reference/reference_engine.hh"

using namespace sparseloop;

namespace {

/** One benchmark scenario: a fixed (workload, arch, SAFs) and a pool
 *  of valid mappings to spread batch work over. */
struct Scenario
{
    std::string name;
    Workload workload;
    Architecture arch;
    SafSpec safs;
    std::vector<Mapping> mappings;  ///< front() is the cold-path mapping
};

Architecture
twoLevelArch()
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = 1 << 22;
    buf.bandwidth_words_per_cycle = 16.0;
    buf.fanout = 4;
    return Architecture("perf2", {dram, buf}, ComputeSpec{});
}

Architecture
threeLevelArch()
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.block_size_words = 4;
    StorageLevelSpec glb;
    glb.name = "GLB";
    glb.capacity_words = 1 << 22;
    glb.bandwidth_words_per_cycle = 16.0;
    glb.fanout = 4;
    glb.block_size_words = 2;
    StorageLevelSpec pe;
    pe.name = "PeBuffer";
    pe.capacity_words = 1 << 16;
    pe.bandwidth_words_per_cycle = 4.0;
    return Architecture("perf3", {dram, glb, pe}, ComputeSpec{});
}

/**
 * Mapping variants over the M/K/N splits so batch points are
 * distinct. The first mapping (the cold-path one) keeps the
 * historical (min(m,8), 1, min(n,8)) shape; the rest spread the
 * thread-scaling batch over enough unique work to occupy 8 workers.
 */
std::vector<Mapping>
matmulMappings(const Workload &w, const Architecture &arch,
               std::int64_t m, std::int64_t k, std::int64_t n,
               std::size_t max_mappings = 48)
{
    std::vector<Mapping> out;
    const int inner = arch.levelCount() - 1;
    const std::int64_t m0 = std::min<std::int64_t>(m, 8);
    const std::int64_t n0 = std::min<std::int64_t>(n, 8);
    auto add = [&](std::int64_t mm, std::int64_t kk, std::int64_t nn) {
        MappingBuilder b(w, arch);
        b.temporal(inner, "M", mm);
        b.temporal(inner, "K", kk);
        b.temporal(inner, "N", nn);
        out.push_back(b.buildComplete());
    };
    add(m0, 1, n0);
    for (std::int64_t mm = 1; mm <= m0 && m % mm == 0; mm *= 2) {
        for (std::int64_t kk = 1; kk <= k && k % kk == 0; kk *= 2) {
            for (std::int64_t nn = 1; nn <= n0 && n % nn == 0;
                 nn *= 2) {
                if (out.size() >= max_mappings) {
                    return out;
                }
                if (mm == m0 && kk == 1 && nn == n0) {
                    continue;  // already the cold-path mapping
                }
                add(mm, kk, nn);
            }
        }
    }
    return out;
}

/**
 * SCNN-style conv mapping variants over the per-PE C/K tile splits,
 * mirroring apps::buildScnn's planar structure; @p base (the design's
 * own mapping) stays first as the cold-path point.
 */
std::vector<Mapping>
convMappings(const Workload &w, const Architecture &arch,
             const Mapping &base, std::size_t max_mappings = 24)
{
    std::vector<Mapping> out;
    out.push_back(base);
    // Largest divisor of bound that is <= target (apps::buildScnn's
    // tile-picking rule; P/Q = 28 are not power-of-two friendly).
    auto pick_tile = [](std::int64_t bound, std::int64_t target) {
        std::int64_t best = 1;
        for (std::int64_t d = 1; d <= bound && d <= target; ++d) {
            if (bound % d == 0) {
                best = d;
            }
        }
        return best;
    };
    const std::int64_t c_bound = w.dims()[w.dimIndex("C")].bound;
    const std::int64_t k_bound = w.dims()[w.dimIndex("K")].bound;
    for (std::int64_t cc = 1; cc <= 32 && c_bound % cc == 0; cc *= 2) {
        for (std::int64_t kk = 16; kk <= k_bound && k_bound % kk == 0;
             kk *= 2) {
            if (out.size() >= max_mappings) {
                return out;
            }
            MappingBuilder b(w, arch);
            b.spatial(1, "P",
                      pick_tile(w.dims()[w.dimIndex("P")].bound, 8));
            b.spatial(1, "Q",
                      pick_tile(w.dims()[w.dimIndex("Q")].bound, 8));
            b.temporal(1, "C", cc);
            b.temporal(1, "R", w.dims()[w.dimIndex("R")].bound);
            b.temporal(1, "S", w.dims()[w.dimIndex("S")].bound);
            b.temporal(1, "K", kk);
            Mapping variant = b.buildComplete();
            if (variant == base) {
                continue;
            }
            out.push_back(std::move(variant));
        }
    }
    return out;
}

Scenario
smallMatmulScenario()
{
    Workload w = makeMatmul(16, 16, 16);
    bindUniformDensities(w, {{"A", 0.4}, {"B", 0.7}});
    Architecture arch = twoLevelArch();
    SafSpec safs;
    safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")})
        .addComputeSaf(SafKind::Skip);
    auto mappings = matmulMappings(w, arch, 16, 16, 16);
    return Scenario{"matmul16-2level-skip", std::move(w),
                    std::move(arch), std::move(safs),
                    std::move(mappings)};
}

Scenario
formattedMatmulScenario()
{
    Workload w = makeMatmul(64, 64, 64);
    bindUniformDensities(w, {{"A", 0.25}, {"B", 0.5}});
    Architecture arch = threeLevelArch();
    int A = w.tensorIndex("A");
    int B = w.tensorIndex("B");
    int Z = w.tensorIndex("Z");
    SafSpec safs;
    safs.addFormat(1, A, makeCsr())
        .addFormat(1, B, makeBitmask(2))
        .addSkip(2, B, {A})
        .addSkip(2, Z, {A, B})
        .addComputeSaf(SafKind::Skip);
    auto mappings = matmulMappings(w, arch, 64, 64, 64);
    return Scenario{"matmul64-3level-formats", std::move(w),
                    std::move(arch), std::move(safs),
                    std::move(mappings)};
}

Scenario
scnnConvScenario()
{
    ConvLayerShape layer;
    layer.name = "fig11";
    layer.k = 128;
    layer.c = 96;
    layer.p = 28;
    layer.q = 28;
    layer.r = 3;
    layer.s = 3;
    layer.weight_density = 0.4;
    layer.input_density = 0.35;
    Workload w = makeConv(layer);
    apps::DesignPoint d = apps::buildScnn(w);
    auto mappings = convMappings(w, d.arch, d.mapping);
    return Scenario{"conv-scnn-fig11", std::move(w), std::move(d.arch),
                    std::move(d.safs), std::move(mappings)};
}

/** Timed repetitions behind every reported rate. */
constexpr int kRepetitions = 5;

/** Calibrated evals/sec: double the iteration count until one run
 *  lasts at least @p min_seconds, then time `kRepetitions` runs of
 *  that many iterations and report the median rate (robust to a
 *  transient stall in any one repetition). */
template <typename F>
double
evalsPerSec(F &&one_eval, double min_seconds = 0.2)
{
    auto timeIters = [&](int iters) {
        return bench::timeSeconds([&] {
            for (int i = 0; i < iters; ++i) {
                one_eval(i);
            }
        });
    };
    int iters = 1;
    while (timeIters(iters) < min_seconds) {
        iters *= 2;
    }
    std::array<double, kRepetitions> rates;
    for (double &rate : rates) {
        rate = static_cast<double>(iters) / timeIters(iters);
    }
    auto mid = rates.begin() + kRepetitions / 2;
    std::nth_element(rates.begin(), mid, rates.end());
    return *mid;
}

struct BatchRate
{
    int threads;
    double evals_per_sec;
    /** True when the row asked for more threads than the host has:
     *  it measures oversubscription overhead, not scaling, and the
     *  regression gate skips it. */
    bool advisory;
};

struct ScenarioResult
{
    std::string name;
    double cold_engine;
    double cold_reference;
    double cached;
    std::size_t batch_points;
    std::vector<BatchRate> batch;
};

ScenarioResult
runScenario(const Scenario &s)
{
    ScenarioResult r;
    r.name = s.name;

    Engine engine(s.arch);
    const Mapping &m0 = s.mappings.front();

    // The cold rates feed the gated engine/reference ratio; each side
    // is a median over repetitions, so one disturbed repetition moves
    // neither side of the ratio.
    auto cold_one = [&](int) {
        EvalResult res = engine.evaluate(s.workload, m0, s.safs);
        if (!res.valid && res.cycles < 0) {
            std::abort();  // keep the result observable
        }
    };
    auto ref_one = [&](int) {
        EvalResult res = refmodel::referenceEvaluate(
            s.workload, s.arch, m0, s.safs);
        if (!res.valid && res.cycles < 0) {
            std::abort();
        }
    };
    r.cold_engine = evalsPerSec(cold_one);
    r.cold_reference = evalsPerSec(ref_one);

    EvalCache cache;
    (void)evaluateCached(engine, cache, s.workload, m0, s.safs);
    r.cached = evalsPerSec([&](int) {
        EvalResult res =
            evaluateCached(engine, cache, s.workload, m0, s.safs);
        if (!res.valid && res.cycles < 0) {
            std::abort();
        }
    });

    std::vector<EvalPoint> points;
    for (const Mapping &m : s.mappings) {
        points.push_back({&s.workload, &m, &s.safs});
    }
    r.batch_points = points.size();
    const int host_threads = parallel::hardwareThreads();
    for (int threads : {1, 4, 8}) {
        BatchEvaluatorOptions opts;
        opts.num_threads = threads;
        double rate = evalsPerSec([&](int) {
            // Fresh evaluator per iteration: uncached fan-out (the
            // persistent pool carries across iterations, as it does
            // across mapper batches).
            BatchEvaluator evaluator(engine, nullptr, opts);
            auto results = evaluator.evaluateBatch(points);
            if (results.size() != points.size()) {
                std::abort();
            }
        });
        r.batch.push_back({threads,
                           rate * static_cast<double>(points.size()),
                           threads > host_threads});
    }
    return r;
}

void
emitJson(std::FILE *out, const std::vector<ScenarioResult> &results)
{
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema\": \"sparseloop-bench-engine/v2\",\n");
    std::fprintf(out, "  \"host_ghz\": %.3f,\n", bench::kHostGhz);
    // hardware_concurrency with a sysconf fallback: a plain 0 from a
    // restricted libc must not be recorded as a thread count.
    std::fprintf(out, "  \"hardware_threads\": %d,\n",
                 parallel::hardwareThreads());
#ifdef NDEBUG
    std::fprintf(out, "  \"assertions\": false,\n");
#else
    std::fprintf(out, "  \"assertions\": true,\n");
#endif
    std::fprintf(out, "  \"workloads\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        std::fprintf(out, "    {\n");
        std::fprintf(out, "      \"name\": \"%s\",\n", r.name.c_str());
        std::fprintf(out, "      \"cold\": {\n");
        std::fprintf(out,
                     "        \"engine_evals_per_sec\": %.1f,\n",
                     r.cold_engine);
        std::fprintf(out,
                     "        \"reference_evals_per_sec\": %.1f,\n",
                     r.cold_reference);
        std::fprintf(out,
                     "        \"speedup_vs_reference\": %.3f\n",
                     r.cold_engine / r.cold_reference);
        std::fprintf(out, "      },\n");
        std::fprintf(out,
                     "      \"cached\": { \"evals_per_sec\": %.1f },\n",
                     r.cached);
        std::fprintf(out, "      \"batch_points\": %zu,\n",
                     r.batch_points);
        std::fprintf(out, "      \"batch\": [\n");
        const double one_thread =
            r.batch.empty() ? 0.0 : r.batch.front().evals_per_sec;
        for (std::size_t b = 0; b < r.batch.size(); ++b) {
            const BatchRate &row = r.batch[b];
            std::fprintf(
                out,
                "        { \"threads\": %d, \"evals_per_sec\": %.1f, "
                "\"speedup_vs_1thread\": %.3f, \"advisory\": %s }%s\n",
                row.threads, row.evals_per_sec,
                one_thread > 0.0 ? row.evals_per_sec / one_thread : 0.0,
                row.advisory ? "true" : "false",
                b + 1 < r.batch.size() ? "," : "");
        }
        std::fprintf(out, "      ]\n");
        std::fprintf(out, "    }%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n");
    std::fprintf(out, "}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<Scenario> scenarios;
    scenarios.push_back(smallMatmulScenario());
    scenarios.push_back(formattedMatmulScenario());
    scenarios.push_back(scnnConvScenario());

    std::vector<ScenarioResult> results;
    for (const Scenario &s : scenarios) {
        std::fprintf(stderr, "[perf_engine] running %s ...\n",
                     s.name.c_str());
        results.push_back(runScenario(s));
        const ScenarioResult &r = results.back();
        std::fprintf(stderr,
                     "[perf_engine]   cold %.0f/s (ref %.0f/s, x%.2f) "
                     "cached %.0f/s\n",
                     r.cold_engine, r.cold_reference,
                     r.cold_engine / r.cold_reference, r.cached);
        for (const BatchRate &row : r.batch) {
            std::fprintf(stderr,
                         "[perf_engine]   batch @%dt %.0f/s "
                         "(x%.2f vs 1t%s)\n",
                         row.threads, row.evals_per_sec,
                         row.evals_per_sec /
                             r.batch.front().evals_per_sec,
                         row.advisory ? ", advisory" : "");
        }
    }

    std::FILE *out = stdout;
    if (argc > 1 && std::strcmp(argv[1], "-") != 0) {
        out = std::fopen(argv[1], "w");
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
    }
    emitJson(out, results);
    if (out != stdout) {
        std::fclose(out);
        std::fprintf(stderr, "[perf_engine] wrote %s\n", argv[1]);
    }
    return 0;
}
