/**
 * @file
 * batch-codesign: cold `BatchEvaluator::evaluateBatch` at 4 threads,
 * with no mapper. Each Fig. 17 cell (spMspM size x density x dataflow)
 * gets a seeded pool of distinct mappings drawn from its MapSpace. One
 * operation evaluates half of a cell's pool under both SAF variants, so
 * each Step-1 analysis serves two points, with a fresh evaluator, so
 * every batch is cold. Halving the pools makes a pass 112 operations,
 * enough for a p90 with ten beyond it. The thread pool and Steps 2-3
 * dominate and the search driver is absent; this is the workload that
 * shows thread scaling.
 */

#include <deque>
#include <random>

#include "apps/designs.hh"
#include "bench.hh"
#include "mapper/mapspace.hh"
#include "trace.hh"

namespace slbench {
namespace {

using namespace sparseloop;

constexpr int kThreads = 4;
constexpr int kSafVariants = 2;
constexpr std::size_t kBatchesPerCell = 2;

/** What one operation evaluates: half of a Fig. 17 cell's pool of
 *  mappings, under both SAF variants. */
struct Cell
{
    const Workload *workload = nullptr;
    /** InnermostSkip and HierarchicalSkip designs of one dataflow; they
     *  share the architecture. */
    const apps::DesignPoint *designs[kSafVariants] = {nullptr, nullptr};
    std::vector<Mapping> pool;
    /** The pool under each SAF variant; points into `pool`. */
    std::vector<EvalPoint> points;
    /** Per SAF variant: EDP of the design zoo's mapping (0: invalid). */
    double zoo_edp[kSafVariants] = {0.0, 0.0};
};

struct BatchSetup
{
    std::deque<Workload> workloads;
    std::deque<apps::DesignPoint> designs;
    /** The batches of Fig. 17 cell c are kBatchesPerCell * c on. */
    std::deque<Cell> cells;
    /** MapSpace construction time summed over Fig. 17 cells. */
    double mapspace_s = 0.0;
};

std::unique_ptr<BatchSetup>
makeSetup(const Options &opt)
{
    using DF = apps::CoDesignDataflow;
    using SF = apps::CoDesignSafs;
    std::vector<std::int64_t> sizes{256, 512, 1024, 2048};
    std::vector<double> densities{1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3, 0.5};
    std::size_t pool_size = 4096;
    if (opt.smoke) {
        sizes = {256};
        densities = {1e-3, 0.3};
        pool_size = 256;
    }
    auto s = std::make_unique<BatchSetup>();
    for (std::int64_t n : sizes) {
        for (double density : densities) {
            Workload &w = s->workloads.emplace_back(makeMatmul(n, n, n));
            bindUniformDensities(w, {{"A", density}, {"B", density}});
            for (DF df : {DF::ReuseABZ, DF::ReuseAZ}) {
                Cell cell;
                cell.workload = &w;
                int v = 0;
                for (SF sf : {SF::InnermostSkip, SF::HierarchicalSkip}) {
                    const apps::DesignPoint &d = s->designs.emplace_back(
                        apps::buildCoDesign(w, df, sf));
                    cell.designs[v] = &d;
                    const EvalResult zoo =
                        Engine(d.arch).evaluate(w, d.mapping, d.safs);
                    cell.zoo_edp[v++] = zoo.valid ? zoo.edp() : 0.0;
                }
                for (std::size_t b = 0; b < kBatchesPerCell; ++b) {
                    s->cells.push_back(cell);
                }
            }
        }
    }

    // Pools are independent per Fig. 17 cell: draw them on the
    // workload's four threads, and split each between its batches.
    const std::size_t fig17_cells = s->cells.size() / kBatchesPerCell;
    const std::size_t batch_size = pool_size / kBatchesPerCell;
    std::vector<double> mapspace_s(kThreads, 0.0);
    onThreads(kThreads, [&](int t) {
        for (std::size_t c = static_cast<std::size_t>(t); c < fig17_cells;
             c += kThreads) {
            Cell &first = s->cells[c * kBatchesPerCell];
            const Clock::time_point t0 = Clock::now();
            MapSpace space(*first.workload, first.designs[0]->arch);
            mapspace_s[static_cast<std::size_t>(t)] += secondsSince(t0);
            const std::vector<Mapping> pool =
                drawPool(space, opt.seed * 1000003 + c, pool_size);
            for (std::size_t b = 0; b < kBatchesPerCell; ++b) {
                const auto from = pool.begin() +
                                  static_cast<std::ptrdiff_t>(b * batch_size);
                s->cells[c * kBatchesPerCell + b].pool.assign(
                    from, from + static_cast<std::ptrdiff_t>(batch_size));
            }
        }
    });
    for (double t : mapspace_s) {
        s->mapspace_s += t;
    }
    for (Cell &cell : s->cells) {
        for (const apps::DesignPoint *d : cell.designs) {
            for (const Mapping &m : cell.pool) {
                cell.points.push_back({cell.workload, &m, &d->safs});
            }
        }
    }
    return s;
}

std::unique_ptr<BatchEvaluator>
makeEvaluator(const Cell &cell, int threads)
{
    BatchEvaluatorOptions options;
    options.num_threads = threads;
    return std::make_unique<BatchEvaluator>(Engine(cell.designs[0]->arch),
                                            nullptr, options);
}

/** Checks a seeded 1-in-64 sample of each batch's results against
 *  `Engine::evaluate`, outside the timed interval. */
class ResultSampler
{
  public:
    explicit ResultSampler(std::uint64_t seed) : rng_(mixSeed(seed)) {}

    void check(const Cell &cell, const std::vector<EvalResult> &results,
               RunResult &result)
    {
        const Engine engine(cell.designs[0]->arch);
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (rng_() % 64 != 0) {
                continue;
            }
            const EvalPoint &p = cell.points[i];
            if (!bitIdentical(results[i], engine.evaluate(*p.workload,
                                                          *p.mapping,
                                                          *p.safs))) {
                result.fail("batch result differs from Engine::evaluate");
            }
        }
    }

  private:
    std::mt19937_64 rng_;
};

/**
 * Near-best valid EDP of each Fig. 17 cell's pool per SAF variant over
 * the zoo's. Batches arrive in order; a cell's ratios are taken once
 * its last batch has been added.
 */
class BestRatios
{
  public:
    void add(std::size_t batch, const Cell &cell,
             const std::vector<EvalResult> &results)
    {
        const std::size_t n = cell.pool.size();
        for (int v = 0; v < kSafVariants; ++v) {
            for (std::size_t i = 0; i < n; ++i) {
                const EvalResult &r =
                    results[static_cast<std::size_t>(v) * n + i];
                if (r.valid) {
                    edps_[v].push_back(r.edp());
                }
            }
        }
        if (batch % kBatchesPerCell != kBatchesPerCell - 1) {
            return;
        }
        for (int v = 0; v < kSafVariants; ++v) {
            const double best = nearBestEdp(edps_[v]);
            if (best > 0.0 && cell.zoo_edp[v] > 0.0) {
                ratios_.push_back(best / cell.zoo_edp[v]);
            }
            edps_[v].clear();
        }
    }

    double geomean() const { return slbench::geomean(ratios_); }

  private:
    std::vector<double> edps_[kSafVariants];
    std::vector<double> ratios_;
};

RunResult
timedBatches(const Options &opt, const BatchSetup &setup, RunResult result)
{
    const auto cells = static_cast<std::int64_t>(setup.cells.size());
    ResultSampler sampler(opt.seed);
    BestRatios best;
    std::vector<double> seconds;
    double pass_points = 0.0;
    const Clock::time_point start = Clock::now();
    std::int64_t i = 0;
    while (i / cells < kMinPasses ||
           anotherPass(i / cells, secondsSince(start), opt.seconds)) {
        for (const std::int64_t end = i + cells; i < end; ++i) {
            const Cell &cell =
                setup.cells[static_cast<std::size_t>(i % cells)];
            const Clock::time_point t0 = Clock::now();
            auto evaluator = makeEvaluator(cell, kThreads);
            const std::vector<EvalResult> results =
                evaluator->evaluateBatch(cell.points);
            seconds.push_back(secondsSince(t0));
            sampler.check(cell, results, result);
            if (i < cells) {
                pass_points += static_cast<double>(cell.points.size());
                best.add(static_cast<std::size_t>(i), cell, results);
            }
        }
    }
    recordFastestPasses(seconds, static_cast<std::size_t>(cells),
                        pass_points, result);
    result.peak_rss_mb = peakRssMb();
    result.attempted = i;
    result.best_edp_ratio = best.geomean();
    return result;
}

RunResult
tracedBatches(const Options &opt, const BatchSetup &setup, RunResult result)
{
    const auto cells = static_cast<std::int64_t>(setup.cells.size());
    auto cellOf = [&](std::int64_t i) -> const Cell & {
        return setup.cells[static_cast<std::size_t>(i % cells)];
    };
    ResultSampler sampler(opt.seed);

    // First half untraced: the reference for trace.overhead_frac.
    double untraced_s = 0.0;
    std::int64_t n = 0;
    for (const Clock::time_point start = Clock::now();
         n % cells != 0 ||
         anotherPass(n / cells, secondsSince(start), opt.seconds / 2);
         ++n) {
        const Cell &cell = cellOf(n);
        const Clock::time_point t0 = Clock::now();
        auto evaluator = makeEvaluator(cell, kThreads);
        const std::vector<EvalResult> results =
            evaluator->evaluateBatch(cell.points);
        untraced_s += secondsSince(t0);
        sampler.check(cell, results, result);
    }
    const std::int64_t untraced_ops = n;

    // Second half traced. The sampled batches are replayed after the
    // phase: replaying them in between would change the heap the
    // traced batches allocate from, and with it their speed.
    Tracer tr;
    StepReplay replay(opt.seed);
    std::vector<std::int64_t> sampled;
    std::int64_t points = 0, unique = 0, dense_groups = 0, valid = 0;
    std::int64_t result_hits = 0, result_lookups = 0;
    std::int64_t dense_hits = 0, dense_lookups = 0;
    double traced_wall = 0.0;
    for (; n % cells != 0 || anotherPass((n - untraced_ops) / cells,
                                         traced_wall, opt.seconds / 2);
         ++n) {
        const Cell &cell = cellOf(n);
        tr.setOp(static_cast<int>(n));
        const std::size_t first = tr.spans().size();
        const int op = tr.open("op");
        std::unique_ptr<BatchEvaluator> evaluator;
        {
            ScopedSpan span(tr, "model.evaluator.make");
            evaluator = makeEvaluator(cell, kThreads);
        }
        BatchStats stats;
        std::vector<EvalResult> results;
        {
            ScopedSpan span(tr, "model.batch");
            results = evaluator->evaluateBatch(cell.points, &stats);
        }
        tr.close(op);
        traced_wall += tr.opWall(first);

        const EvalCacheStats cs = evaluator->cache().stats();
        result_hits += cs.result_hits;
        result_lookups += cs.result_hits + cs.result_misses;
        dense_hits += cs.dense_hits;
        dense_lookups += cs.dense_hits + cs.dense_misses;
        points += stats.points;
        unique += stats.unique_points;
        dense_groups += stats.dense_groups;
        for (const EvalResult &r : results) {
            valid += r.valid ? 1 : 0;
        }
        sampler.check(cell, results, result);
        if (replay.sampleNext()) {
            sampled.push_back(n);
        }
    }
    result.attempted = n;

    // Each sampled batch again, cold, at 4 threads with step replay and
    // at 1 thread: the pool's scaling and the replay's 1-thread scale.
    double one_thread_s = 0.0, four_thread_s = 0.0;
    for (std::int64_t i : sampled) {
        const Cell &cell = cellOf(i);
        auto evaluator = makeEvaluator(cell, kThreads);
        const StepReplay::Plan plan = replay.plan(*evaluator, cell.points);
        Clock::time_point t0 = Clock::now();
        const std::vector<EvalResult> results =
            evaluator->evaluateBatch(cell.points);
        const double t4 = secondsSince(t0);
        t0 = Clock::now();
        makeEvaluator(cell, 1)->evaluateBatch(cell.points);
        const double t1 = secondsSince(t0);
        one_thread_s += t1;
        four_thread_s += t4;
        replay.replay(*evaluator, cell.points, results, plan, t4, t1);
    }

    auto &l = result.layers;
    l["mapper.mapspace.build_ms"] =
        ratio(1e3 * setup.mapspace_s,
              static_cast<double>(setup.cells.size() / kBatchesPerCell));
    l["mapper.valid_frac"] = ratio(valid, points);
    l["model.batch.unique_frac"] = ratio(unique, points);
    l["model.batch.dense_groups_frac"] = ratio(dense_groups, unique);
    l["model.cache.result_hit_rate"] = ratio(result_hits, result_lookups);
    l["model.cache.dense_hit_rate"] = ratio(dense_hits, dense_lookups);
    l["common.pool.speedup_4t"] = ratio(one_thread_s, four_thread_s);
    const double batch_s = tr.total("model.batch");
    const double op_wall = tr.opWall();
    const double covered = fillModelLayers(replay.totals(), batch_s, points,
                                           result) +
                           tr.total("model.evaluator.make");
    recordCoverage(covered, op_wall, result);
    const auto traced_ops = static_cast<double>(n - untraced_ops);
    l["trace.overhead_frac"] =
        ratio(op_wall / traced_ops,
              untraced_s / static_cast<double>(untraced_ops)) -
        1.0;
    writeSpans(opt, tr, result);
    return result;
}

} // namespace

RunResult
runBatchCodesign(const Options &opt)
{
    RunResult result;
    auto setup = timedSetups(
        opt.smoke, [&] { return makeSetup(opt); }, result.setup_s);
    return opt.trace ? tracedBatches(opt, *setup, std::move(result))
                     : timedBatches(opt, *setup, std::move(result));
}

} // namespace slbench
