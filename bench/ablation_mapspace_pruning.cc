/**
 * @file
 * Ablation of the MapSpace construction pipeline's pruning passes
 * (docs/search.md): raw cross-product size vs canonical-form symmetry
 * reduction vs keep-dominance pruning vs capacity-dominance pruning,
 * on CONV workloads whose interchangeable dimensions (C/R/S share a
 * tensor-relevance class, as do N/P/Q) give the symmetry pass real
 * work.
 *
 * Three cases:
 *  - tiny-conv: small enough to search exhaustively with every pass
 *    disabled. Gates losslessness end to end: the raw optimum and the
 *    pruned optimum must be the same EDP.
 *  - conv-3L: a billion-point raw space (exercises the saturating
 *    size arithmetic) whose tiling cross-product is still enumerable,
 *    so the per-pass accounting is exact. An equal-budget
 *    coarse-then-refine (hierarchical) search runs on the raw space
 *    and on the pruned space; the pruned run must match or beat the
 *    raw run (it enumerates one representative per equivalence class
 *    instead of burning budget on duplicates).
 *  - conv-3L+keep: the same space under a keep constraint pinning the
 *    innermost level, which makes tensors "always kept" there and
 *    lets the capacity-dominance pass drop tilings that cannot fit.
 *
 * Exit-code gates: losslessness on tiny-conv, exact accounting
 * (kept == raw - sum of per-pass pruned counts), a >= 1e9-point raw
 * space with real symmetry and keep-dominance reductions on conv-3L,
 * capacity pruning firing under the keep constraint, and the
 * equal-budget quality comparison above.
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench/bench_util.hh"
#include "mapper/mapper.hh"

using namespace sparseloop;

namespace {

Architecture
threeLevelArch(std::int64_t l1_words, std::int64_t l0_words)
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = 16.0;
    StorageLevelSpec l1;
    l1.name = "L1";
    l1.capacity_words = l1_words;
    l1.bandwidth_words_per_cycle = 8.0;
    StorageLevelSpec l0;
    l0.name = "L0";
    l0.capacity_words = l0_words;
    l0.bandwidth_words_per_cycle = 4.0;
    return Architecture("three", {dram, l1, l0}, ComputeSpec{});
}

struct Row
{
    const char *name;
    MapSpacePruneStats stats;
    std::int64_t tilings;
};

void
printRow(const Row &row)
{
    const MapSpacePruneStats &s = row.stats;
    const double after_sym = s.raw_points - s.pruned_symmetry;
    const double after_dom = after_sym - s.pruned_dominated_keeps;
    const double kept = s.keptPoints();
    std::printf("%-14s %-9lld %-12.4e %-12.4e %-12.4e %-12.4e "
                "%-10.1fx %s\n",
                row.name, static_cast<long long>(row.tilings),
                s.raw_points, after_sym, after_dom, kept,
                kept > 0.0 ? s.raw_points / kept
                           : std::numeric_limits<double>::infinity(),
                s.exact ? "exact" : "estimate");
}

/** Best EDP of an equal-budget hierarchical search over @p space_opts. */
double
searchBestEdp(const Workload &w, const Architecture &arch,
              MapSpaceOptions space_opts, const char *label)
{
    SafSpec none;
    MapperOptions opts;
    opts.samples = 2000;
    opts.strategy = SearchStrategyKind::Hierarchical;
    opts.objective = ObjectiveSpec::single(Metric::Edp);
    opts.mapspace = space_opts;
    MapperResult r = Mapper(w, arch, none, opts).searchWithThreads(0);
    std::printf("  %-22s best EDP %.4e (%lld evaluated, %lld valid)\n",
                label, r.found ? r.eval.edp() : 0.0,
                static_cast<long long>(r.candidates_evaluated),
                static_cast<long long>(r.candidates_valid));
    return r.found ? r.eval.edp()
                   : std::numeric_limits<double>::infinity();
}

} // namespace

int
main()
{
    bench::header("MapSpace pruning-pass ablation");
    bool ok = true;

    std::printf("%-14s %-9s %-12s %-12s %-12s %-12s %-10s %s\n",
                "case", "tilings", "raw", "-symmetry", "-keep-dom",
                "kept", "reduction", "accounting");

    // ---- tiny-conv: exhaustive losslessness ------------------------
    ConvLayerShape tiny;
    tiny.name = "tiny";
    tiny.k = 2;
    tiny.c = 2;
    tiny.r = 2;
    tiny.s = 2;
    Workload tiny_w = makeConv(tiny);
    Architecture tiny_arch = threeLevelArch(1024, 256);

    MapSpaceOptions raw_opts;
    raw_opts.prune_symmetry = false;
    raw_opts.prune_dominated_keeps = false;
    raw_opts.prune_capacity_tilings = false;

    SafSpec none;
    double tiny_best[2] = {0.0, 0.0};
    std::int64_t tiny_points[2] = {0, 0};
    for (int pruned = 0; pruned < 2; ++pruned) {
        MapperOptions opts;
        opts.samples = 1 << 22;
        opts.strategy = SearchStrategyKind::Exhaustive;
        opts.objective = ObjectiveSpec::single(Metric::Edp);
        opts.mapspace = pruned ? MapSpaceOptions{} : raw_opts;
        Mapper mapper(tiny_w, tiny_arch, none, opts);
        MapperResult r = mapper.search();
        tiny_best[pruned] = r.found
                                ? r.eval.edp()
                                : std::numeric_limits<double>::infinity();
        tiny_points[pruned] = r.mapspace_size.enumerable;
        if (pruned) {
            printRow({"tiny-conv", r.prune_stats,
                      mapper.mapspace().tilingCount()});
            if (!r.prune_stats.exact ||
                r.prune_stats.pruned_symmetry <= 0.0 ||
                r.prune_stats.pruned_dominated_keeps <= 0.0) {
                std::printf("FAIL: tiny-conv pruning passes did not "
                            "fire exactly\n");
                ok = false;
            }
        }
    }
    std::printf("  lossless check: raw optimum %.6e over %lld points "
                "| pruned optimum %.6e over %lld points\n",
                tiny_best[0], static_cast<long long>(tiny_points[0]),
                tiny_best[1], static_cast<long long>(tiny_points[1]));
    if (!(tiny_points[1] < tiny_points[0]) ||
        !std::isfinite(tiny_best[0]) ||
        std::abs(tiny_best[1] - tiny_best[0]) >
            1e-9 * std::abs(tiny_best[0])) {
        std::printf("FAIL: pruned exhaustive optimum differs from the "
                    "raw optimum (pruning lost a mapping)\n");
        ok = false;
    }

    // Equal-budget quality: at a budget between the pruned and raw
    // sizes, the pruned space is searched to completion (so it finds
    // the global optimum — the passes are lossless) while the raw
    // space's exhaustive pass truncates mid-way and can at best tie.
    {
        const int budget = 10000;
        double best[2] = {0.0, 0.0};
        for (int pruned = 0; pruned < 2; ++pruned) {
            MapperOptions opts;
            opts.samples = budget;
            opts.strategy = SearchStrategyKind::Exhaustive;
            opts.objective = ObjectiveSpec::single(Metric::Edp);
            opts.mapspace = pruned ? MapSpaceOptions{} : raw_opts;
            MapperResult r = Mapper(tiny_w, tiny_arch, none, opts)
                                 .search();
            best[pruned] =
                r.found ? r.eval.edp()
                        : std::numeric_limits<double>::infinity();
        }
        std::printf("  equal-budget quality (exhaustive, %d samples): "
                    "raw (truncated %d/%lld) best EDP %.4e | pruned "
                    "(complete %lld) best EDP %.4e\n",
                    budget, budget,
                    static_cast<long long>(tiny_points[0]), best[0],
                    static_cast<long long>(tiny_points[1]), best[1]);
        if (!(budget < tiny_points[0]) ||
            !(tiny_points[1] <= budget) ||
            best[1] > best[0] * (1.0 + 1e-9)) {
            std::printf("FAIL: the pruned space searched worse than "
                        "the raw space at an equal budget\n");
            ok = false;
        }
    }

    // ---- conv-3L: billion-point raw space --------------------------
    ConvLayerShape big;
    big.name = "conv3l";
    big.k = 8;
    big.c = 8;
    big.p = 4;
    big.q = 4;
    big.r = 3;
    big.s = 3;
    Workload big_w = makeConv(big);
    Architecture big_arch = threeLevelArch(4096, 512);

    MapSpace big_raw(big_w, big_arch, {}, raw_opts);
    MapSpace big_pruned(big_w, big_arch);
    printRow({"conv-3L", big_pruned.pruneStats(),
              big_pruned.tilingCount()});
    const MapSpacePruneStats &bs = big_pruned.pruneStats();
    if (!bs.exact || bs.raw_points < 1e9) {
        std::printf("FAIL: conv-3L raw space is below 1e9 points or "
                    "accounting is inexact (raw %.4e)\n",
                    bs.raw_points);
        ok = false;
    }
    if (bs.pruned_symmetry <= 0.0 ||
        bs.pruned_dominated_keeps <= 0.0) {
        std::printf("FAIL: conv-3L symmetry/keep-dominance passes "
                    "pruned nothing\n");
        ok = false;
    }
    if (std::abs(bs.raw_points - big_raw.pruneStats().raw_points) >
        1e-6 * bs.raw_points) {
        std::printf("FAIL: pruned-space raw accounting disagrees with "
                    "the passes-off space\n");
        ok = false;
    }

    // The coarse-then-refine strategy's proposals live on the raw
    // point axes (sampling/neighborhoods are pruning-independent by
    // design, docs/search.md), so the two runs must tie exactly —
    // a cheap end-to-end check that the pipeline reshapes enumeration
    // without perturbing the search dynamics of a billion-point space.
    std::printf("  hierarchical search at 2000 samples "
                "(pruning-independent by design):\n");
    const double raw_edp =
        searchBestEdp(big_w, big_arch, raw_opts, "raw space:");
    const double pruned_edp = searchBestEdp(
        big_w, big_arch, MapSpaceOptions{}, "pruned space:");
    if (pruned_edp != raw_edp) {
        std::printf("FAIL: pruning passes perturbed the hierarchical "
                    "search's proposals\n");
        ok = false;
    }

    // ---- conv-3L+keep: capacity-dominance under a keep pin ---------
    MapspaceConstraints cons;
    cons.levels.resize(3);
    cons.levels[2].keep = {0, 1, 2};  // L0 must keep all tensors
    MapSpace constrained(big_w, big_arch, cons);
    printRow({"conv-3L+keep", constrained.pruneStats(),
              constrained.tilingCount()});
    if (constrained.pruneStats().pruned_capacity_tilings <= 0.0) {
        std::printf("FAIL: capacity-dominance pruned nothing under "
                    "the keep constraint\n");
        ok = false;
    }

    std::printf("\n(raw = unpruned cross-product; '-symmetry' keeps "
                "one canonical loop order per class of "
                "interchangeable dimensions; '-keep-dom' drops "
                "dominated keep combinations; 'kept' additionally "
                "drops tilings whose always-kept tensors overflow a "
                "level; every pass is lossless, see test_mapspace)\n");
    return ok ? 0 : 1;
}
