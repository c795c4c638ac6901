/**
 * @file
 * Design-space exploration for sparse matrix multiplication: use the
 * mapper to find the best mapping per (dataflow x SAF) design across
 * application density regimes — a compact version of the Sec. 7.2
 * co-design case study, but with automatic mapspace search (sharded
 * across all cores) instead of hand-written mappings.
 *
 * The sweep runs through the cached evaluation path: the four designs
 * of a scenario share one workload and one architecture, so their
 * hand-written mappings are evaluated as a single deduplicated batch,
 * and the four mapper searches share an EvalCache — every candidate
 * mapping's Step-1 dense analysis is computed once and reused across
 * the SAF variants.
 *
 * The searches are also warm-started: the scenario's four design
 * points share a WarmStartPool, so each genetic search after the
 * first seeds its generation 0 with the elite mappings already found
 * for sibling (dataflow x SAF) combinations instead of rediscovering
 * the same loop-nest structure from scratch (docs/search.md explains
 * the mechanism).
 *
 * Besides the scalar EDP winner, each scenario emits its co-design
 * Pareto front: the non-dominated (cycles, energy, on-chip buffer
 * words) points merged across all four designs' searches
 * (`MapperResult::pareto_front` per search, folded into one
 * scenario-level `ParetoArchive`). The front's extremes show the real
 * spread a designer is choosing from — the fastest, the most
 * energy-lean, and the smallest-buffer schedule are different points.
 *
 * Each scenario also measures what opening the bypass axis (the
 * default mapspace) buys over a keep-all search at the same budget:
 * the merged open-axis front must reach an on-chip footprint no
 * larger than the keep-all front's smallest (bypassing can only
 * remove buffer residency), and the example exits non-zero if it
 * does not.
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "apps/designs.hh"
#include "mapper/mapper.hh"
#include "model/batch_evaluator.hh"

using namespace sparseloop;

int
main()
{
    struct Scenario
    {
        const char *domain;
        double density;
    };
    std::vector<Scenario> scenarios{
        {"scientific simulation", 1e-3},
        {"graph analytics", 1e-2},
        {"pruned DNN", 0.2},
        {"dense-ish DNN", 0.5},
    };

    std::printf("%-24s %-9s %-28s %-14s %-12s %-10s %-6s\n", "domain",
                "density", "best design", "EDP(uJ*cyc)", "mappings",
                "dense-hit%", "seeds");
    bool ok = true;
    for (const auto &sc : scenarios) {
        // One workload per scenario: every design point below shares
        // its signature, which is what lets the cache fire across the
        // four (dataflow x SAF) combinations.
        Workload w = makeMatmul(256, 256, 256);
        bindUniformDensities(w, {{"A", sc.density}, {"B", sc.density}});

        std::vector<apps::DesignPoint> designs;
        for (auto df : {apps::CoDesignDataflow::ReuseABZ,
                        apps::CoDesignDataflow::ReuseAZ}) {
            for (auto sf : {apps::CoDesignSafs::InnermostSkip,
                            apps::CoDesignSafs::HierarchicalSkip}) {
                designs.push_back(apps::buildCoDesign(w, df, sf));
            }
        }

        // The co-design grid shares one architecture (names differ);
        // one engine + cache serves the whole scenario.
        auto cache = std::make_shared<EvalCache>();
        BatchEvaluator evaluator(Engine(designs.front().arch), cache);
        std::vector<EvalPoint> points;
        points.reserve(designs.size());
        for (const apps::DesignPoint &d : designs) {
            points.push_back({&w, &d.mapping, &d.safs});
        }
        std::vector<EvalResult> hand = evaluator.evaluateBatch(points);

        double best_edp = 0.0;
        std::string best_name;
        std::int64_t evaluated = 0;
        std::int64_t warm_seeds = 0;
        // Each scenario's four searches share a warm-start pool: a
        // design point's best mapping seeds its siblings' searches.
        auto pool = std::make_shared<WarmStartPool>();
        // Scenario-level co-design front: the non-dominated
        // (cycles, energy, on-chip words) points across every
        // (design, schedule) pair the four searches evaluated.
        const std::vector<Metric> axes{Metric::Cycles, Metric::Energy,
                                       Metric::PeakCapacity};
        ParetoArchive front(axes, 32);
        // Bypass ablation: the same searches with the keep axis
        // closed, merged into their own scenario front. Keep-all
        // schedules stay members of the open space, so they fold into
        // the open front too (union semantics, as in the fig17 bench).
        ParetoArchive keep_front(axes, 32);
        auto keep_pool = std::make_shared<WarmStartPool>();
        for (std::size_t i = 0; i < designs.size(); ++i) {
            double edp = hand[i].valid ? hand[i].edp() : 0.0;

            // Let the mapper search the constrained mapspace too; the
            // shared cache reuses each candidate's dense analysis
            // across the scenario's SAF variants, and the shared pool
            // warm-starts each genetic search's generation 0 with the
            // elites of already-searched sibling designs.
            MapperOptions opts;
            opts.samples = 400;
            opts.objective =
                ObjectiveSpec::single(Metric::Edp).withFrontMetrics(axes);
            opts.strategy = SearchStrategyKind::Genetic;
            opts.cache = cache;
            opts.warm_start = pool;
            MapperResult searched =
                Mapper(w, designs[i].arch, designs[i].safs, opts)
                    .searchWithThreads(0);
            evaluated += searched.candidates_evaluated;
            warm_seeds += searched.warm_start_candidates;
            // Fold this design's front into the scenario's; offsetting
            // the proposal index by the design's position keeps every
            // archived identity unique and the merge deterministic.
            for (const ParetoEntry &p : searched.pareto_front) {
                front.insert(p.mapping, p.metrics,
                             static_cast<std::int64_t>(i) * opts.samples +
                                 p.index);
            }

            // Equal-budget keep-all baseline for the bypass ablation.
            MapperOptions keep_opts = opts;
            keep_opts.mapspace.explore_bypass = false;
            keep_opts.warm_start = keep_pool;
            MapperResult keepall =
                Mapper(w, designs[i].arch, designs[i].safs, keep_opts)
                    .searchWithThreads(0);
            for (const ParetoEntry &p : keepall.pareto_front) {
                const std::int64_t id =
                    static_cast<std::int64_t>(designs.size() + i) *
                        opts.samples +
                    p.index;
                keep_front.insert(p.mapping, p.metrics, id);
                front.insert(p.mapping, p.metrics, id);
            }
            if (searched.found &&
                (edp == 0.0 || searched.eval.edp() < edp)) {
                edp = searched.eval.edp();
            }
            if (edp > 0.0 && (best_name.empty() || edp < best_edp)) {
                best_edp = edp;
                best_name = designs[i].name;
            }
        }
        const EvalCacheStats stats = cache->stats();
        std::printf("%-24s %-9.4f %-28s %-14.3e %-12lld %-10.1f %-6lld\n",
                    sc.domain, sc.density, best_name.c_str(),
                    best_edp / 1e6, static_cast<long long>(evaluated),
                    100.0 * stats.denseHitRate(),
                    static_cast<long long>(warm_seeds));
        // The scenario's trade-off surface, summarized by its
        // extremes (entries() is the full front, sorted by cycles).
        const std::vector<ParetoEntry> &pts = front.entries();
        if (!pts.empty()) {
            auto leanest = std::min_element(
                pts.begin(), pts.end(),
                [](const ParetoEntry &a, const ParetoEntry &b) {
                    return a.metrics.at(Metric::Energy) <
                        b.metrics.at(Metric::Energy);
                });
            auto smallest = std::min_element(
                pts.begin(), pts.end(),
                [](const ParetoEntry &a, const ParetoEntry &b) {
                    return a.metrics.at(Metric::PeakCapacity) <
                        b.metrics.at(Metric::PeakCapacity);
                });
            auto show = [](const char *label, const ParetoEntry &p) {
                std::printf("    %-16s %.0f cyc, %.2f uJ, %.0f words\n",
                            label, p.metrics.at(Metric::Cycles),
                            p.metrics.at(Metric::Energy) / 1e6,
                            p.metrics.at(Metric::PeakCapacity));
            };
            std::printf("  pareto front: %zu non-dominated "
                        "(design, schedule) points\n",
                        pts.size());
            show("fastest:", pts.front());
            show("leanest-energy:", *leanest);
            show("smallest-buffer:", *smallest);
        }

        // Bypass-ablation report and gate: with the keep axis open,
        // the merged front must reach an on-chip footprint no larger
        // than the best the keep-all searches managed.
        auto min_words = [](const std::vector<ParetoEntry> &entries) {
            double words = std::numeric_limits<double>::infinity();
            for (const ParetoEntry &p : entries) {
                words = std::min(words,
                                 p.metrics.at(Metric::PeakCapacity));
            }
            return words;
        };
        const double open_words = min_words(pts);
        const double keep_words = min_words(keep_front.entries());
        std::printf("  bypass ablation: keep-all front %zu "
                    "(>= %.0f words) | open front %zu (>= %.0f "
                    "words)\n",
                    keep_front.entries().size(), keep_words,
                    pts.size(), open_words);
        if (open_words > keep_words) {
            std::printf("FAIL: opening the bypass axis did not reach "
                        "the keep-all footprint floor (%s)\n",
                        sc.domain);
            ok = false;
        }
    }
    std::printf("\nThe winning dataflow x SAF combination flips as the "
                "workload gets denser: co-design of dataflow, SAFs and "
                "sparsity matters (Sec. 7.2). The dense-hit column "
                "shows how often the shared EvalCache skipped Step 1 "
                "for a candidate mapping another design had already "
                "analyzed; the seeds column counts warm-start elites "
                "transferred between sibling searches through the "
                "scenario's WarmStartPool; the per-scenario pareto "
                "block summarizes the merged cycles / energy / "
                "buffer-words trade-off surface across all four "
                "designs' searches; the bypass-ablation line compares "
                "it against equal-budget keep-all searches.\n");
    return ok ? 0 : 1;
}
