/**
 * @file
 * Ablation: Pareto-front quality per search strategy at equal
 * budgets.
 *
 * Every `Mapper` search maintains a bounded archive of non-dominated
 * candidates (`MapperResult::pareto_front`) alongside the scalar
 * incumbent. This bench measures how good a cycles-vs-energy front
 * each strategy discovers on the tight-budget three-level spMspM
 * space (the same setup as `ablation_search_strategies`' quality
 * table): front size and exact 2-D hypervolume w.r.t. a shared
 * reference point (componentwise max over every strategy's front,
 * padded 5%), so the hypervolumes are directly comparable. Larger is
 * better.
 *
 * The bench also asserts (exit code) the archive's determinism
 * contract: re-running a search, and running it through
 * `Mapper::searchWithThreads(4)`, must reproduce the front
 * bit-identically — entry by entry, metric by metric.
 */

#include <cstdio>
#include <limits>
#include <vector>

#include "bench/bench_util.hh"
#include "mapper/mapper.hh"

using namespace sparseloop;

namespace {

/** Bitwise front equality: same entries, metrics, and identities. */
bool
identicalFronts(const std::vector<ParetoEntry> &a,
                const std::vector<ParetoEntry> &b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].index != b[i].index || a[i].metrics != b[i].metrics ||
            !(a[i].mapping == b[i].mapping)) {
            return false;
        }
    }
    return true;
}

} // namespace

int
main()
{
    bench::header("Ablation: Pareto-front quality per strategy "
                  "(three-level 128^3 spMspM, equal budgets)");

    Workload w = makeMatmul(128, 128, 128);
    bindUniformDensities(w, {{"A", 0.05}, {"B", 0.05}});

    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = 16.0;
    dram.fanout = 4;
    StorageLevelSpec l2;
    l2.name = "L2";
    l2.capacity_words = 65536;
    l2.bandwidth_words_per_cycle = 32.0;
    l2.fanout = 16;
    StorageLevelSpec l1;
    l1.name = "L1";
    l1.capacity_words = 1024;
    l1.bandwidth_words_per_cycle = 8.0;
    Architecture arch("pareto-ablation", {dram, l2, l1}, ComputeSpec{});
    SafSpec safs;
    safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});

    const int budget = 400;
    const std::uint64_t seed = 0xC0FFEE;
    const std::vector<Metric> axes{Metric::Cycles, Metric::Energy};

    struct Run
    {
        std::string name;
        MapperResult result;
        double seconds = 0.0;
    };
    std::vector<Run> runs;
    bool ok = true;

    for (SearchStrategyKind kind :
         {SearchStrategyKind::Random, SearchStrategyKind::Hybrid,
          SearchStrategyKind::Annealing, SearchStrategyKind::Genetic,
          SearchStrategyKind::Hierarchical}) {
        MapperOptions opts;
        opts.samples = budget;
        opts.seed = seed;
        opts.strategy = kind;
        // EDP drives every strategy; the archive tracks the
        // cycles-vs-energy trade-off it passes through.
        opts.objective =
            ObjectiveSpec::single(Metric::Edp).withFrontMetrics(axes);
        Mapper mapper(w, arch, safs, opts);
        Run run;
        run.seconds = bench::timeSeconds(
            [&] { run.result = mapper.search(); });
        run.name = run.result.strategy;
        if (!run.result.found || run.result.pareto_front.empty()) {
            std::printf("FAIL: %s produced no front\n",
                        run.name.c_str());
            ok = false;
        }

        // Determinism: a repeat run and a 4-thread run must reproduce
        // the front bit-identically.
        MapperResult again = Mapper(w, arch, safs, opts).search();
        MapperResult parallel = mapper.searchWithThreads(4);
        if (!identicalFronts(run.result.pareto_front,
                             again.pareto_front) ||
            !identicalFronts(run.result.pareto_front,
                             parallel.pareto_front)) {
            std::printf("FAIL: %s front is not deterministic across "
                        "runs/threads\n",
                        run.name.c_str());
            ok = false;
        }
        runs.push_back(std::move(run));
    }

    // Shared reference point: componentwise max over every front,
    // padded so boundary points contribute area.
    MetricVector reference;
    for (const Run &run : runs) {
        for (const ParetoEntry &p : run.result.pareto_front) {
            for (Metric m : axes) {
                if (p.metrics.at(m) > reference.at(m)) {
                    reference.at(m) = p.metrics.at(m);
                }
            }
        }
    }
    for (Metric m : axes) {
        reference.at(m) *= 1.05;
    }

    std::printf("%-12s %-10s %-7s %-14s %-12s %-8s\n", "strategy",
                "evaluated", "front", "hypervolume", "best-EDP",
                "seconds");
    double best_hv = 0.0;
    for (const Run &run : runs) {
        const double hv =
            hypervolume2d(run.result.pareto_front, axes, reference);
        best_hv = std::max(best_hv, hv);
        std::printf("%-12s %-10lld %-7zu %-14.4e %-12.4g %-8.3f\n",
                    run.name.c_str(),
                    static_cast<long long>(
                        run.result.candidates_evaluated),
                    run.result.pareto_front.size(), hv,
                    run.result.found
                        ? run.result.eval.edp()
                        : std::numeric_limits<double>::infinity(),
                    run.seconds);
        if (!(hv > 0.0)) {
            std::printf("FAIL: %s hypervolume is not positive\n",
                        run.name.c_str());
            ok = false;
        }
    }

    std::printf("\n(equal budgets of %d candidates per strategy, "
                "objective EDP, front over cycles x energy; "
                "hypervolume w.r.t. the shared padded-max reference "
                "point — larger dominates more of the trade-off "
                "plane. Fronts are asserted bit-identical across "
                "repeat runs and 1-vs-4 evaluation threads.)\n",
                budget);
    return ok ? 0 : 1;
}
