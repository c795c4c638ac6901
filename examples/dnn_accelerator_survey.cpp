/**
 * @file
 * Survey the Table 3 DNN accelerators (Eyeriss, Eyeriss V2 PE, SCNN)
 * on a full AlexNet run: per-layer and total energy/latency, exactly
 * the per-layer-then-aggregate methodology of Sec. 6.1.
 *
 * This demonstrates the taxonomy's value: three very different designs
 * (different formats, gating vs skipping, different dataflows) are
 * described and evaluated through one interface.
 *
 * All layers of a design are submitted as one BatchEvaluator batch:
 * each layer is an independent evaluation point, so they fan out
 * across the worker pool. (AlexNet's conv layers all differ in shape
 * or measured density, so no two deduplicate here; a network with
 * truly repeated layers would collapse them to one evaluation.)
 *
 * The closing pruning sweep shows the warm-started search path: the
 * same layer at four weight densities is a line of neighboring design
 * points with one shared mapspace shape, so each density's annealing
 * search seeds its chains from the elites of the previous densities
 * through a WarmStartPool (docs/search.md).
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/designs.hh"
#include "apps/dnn_models.hh"
#include "mapper/mapper.hh"
#include "model/batch_evaluator.hh"

using namespace sparseloop;

namespace {

struct Totals
{
    double cycles = 0.0;
    double energy_uj = 0.0;
};

Totals
runNetwork(const std::string &design)
{
    Totals totals;
    std::printf("\n--- %s on AlexNet ---\n", design.c_str());

    // Materialize every layer's evaluation point first (the batch
    // holds pointers, so workloads and designs must outlive it).
    const std::vector<ConvLayerShape> layers = apps::alexnetConvLayers();
    std::vector<Workload> workloads;
    std::vector<apps::DesignPoint> designs;
    workloads.reserve(layers.size());
    designs.reserve(layers.size());
    for (const auto &layer : layers) {
        workloads.push_back(makeConv(layer));
        const Workload &w = workloads.back();
        designs.push_back(
            design == "eyeriss" ? apps::buildEyeriss(w)
            : design == "eyeriss-v2-pe" ? apps::buildEyerissV2Pe(w)
                                        : apps::buildScnn(w));
    }
    std::vector<EvalPoint> points;
    points.reserve(layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
        points.push_back(
            {&workloads[i], &designs[i].mapping, &designs[i].safs});
    }

    // One engine serves the whole network: a design's architecture
    // does not change across layers.
    BatchEvaluator evaluator(Engine(designs.front().arch));
    BatchStats batch_stats;
    std::vector<EvalResult> results =
        evaluator.evaluateBatch(points, &batch_stats);

    std::printf("%-8s %-14s %-12s %-10s %-10s\n", "layer", "cycles",
                "energy_uJ", "util", "skipped%");
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const EvalResult &r = results[i];
        if (!r.valid) {
            std::printf("%-8s INVALID: %s\n", layers[i].name.c_str(),
                        r.invalid_reason.c_str());
            continue;
        }
        double skipped_pct = 100.0 * r.computes.skipped /
                             r.computes.total();
        std::printf("%-8s %-14.0f %-12.2f %-10.3f %-10.1f\n",
                    layers[i].name.c_str(), r.cycles, r.energy_pj / 1e6,
                    r.computeUtilization(), skipped_pct);
        totals.cycles += r.cycles;
        totals.energy_uj += r.energy_pj / 1e6;
    }
    std::printf("total: %.0f cycles, %.2f uJ (%lld layers -> %lld "
                "unique evaluations)\n",
                totals.cycles, totals.energy_uj,
                static_cast<long long>(batch_stats.points),
                static_cast<long long>(batch_stats.unique_points));
    return totals;
}

} // namespace

int
main()
{
    Totals eyeriss = runNetwork("eyeriss");
    Totals v2 = runNetwork("eyeriss-v2-pe");
    Totals scnn = runNetwork("scnn");

    std::printf("\n--- summary (AlexNet, unpruned weights, measured "
                "activation sparsity) ---\n");
    std::printf("%-16s %-16s %-14s\n", "design", "total cycles",
                "total uJ");
    std::printf("%-16s %-16.0f %-14.2f\n", "eyeriss", eyeriss.cycles,
                eyeriss.energy_uj);
    std::printf("%-16s %-16.0f %-14.2f\n", "eyeriss-v2-pe", v2.cycles,
                v2.energy_uj);
    std::printf("%-16s %-16.0f %-14.2f\n", "scnn", scnn.cycles,
                scnn.energy_uj);
    std::printf("\nEyeriss only gates (energy savings, dense cycles); "
                "Eyeriss V2 and SCNN skip, trading metadata overhead "
                "for cycle savings.\nNote: eyeriss-v2-pe models a "
                "single processing element, so its absolute cycles are "
                "not comparable to the full-chip designs.\n");

    // --- Warm-started pruning sweep -------------------------------
    // AlexNet conv3 on the Eyeriss V2 PE at four pruning levels. The
    // four design points share the workload bounds and architecture,
    // so one WarmStartPool carries each search's best mapping into
    // the next density's annealing chains, and the searched mapping
    // is compared against the design's hand-written one.
    std::printf("\n--- pruning sweep: conv3 on eyeriss-v2-pe, "
                "warm-started mapper search ---\n");
    std::printf("%-16s %-14s %-14s %-10s %-6s\n", "weight density",
                "hand EDP", "searched EDP", "ratio", "seeds");
    auto pool = std::make_shared<WarmStartPool>();
    for (double density : {1.0, 0.5, 0.25, 0.1}) {
        ConvLayerShape shape = apps::alexnetConvLayers()[2];
        shape.weight_density = density;
        Workload w = makeConv(shape);
        apps::DesignPoint design = apps::buildEyerissV2Pe(w);

        BatchEvaluator evaluator(Engine(design.arch));
        EvalResult hand =
            evaluator.evaluate(w, design.mapping, design.safs);

        MapperOptions opts;
        opts.samples = 150;
        opts.objective = ObjectiveSpec::single(Metric::Edp);
        opts.strategy = SearchStrategyKind::Annealing;
        opts.warm_start = pool;
        MapperResult searched =
            Mapper(w, design.arch, design.safs, opts).searchWithThreads(0);
        double hand_edp = hand.valid ? hand.edp() : 0.0;
        double searched_edp =
            searched.found ? searched.eval.edp() : 0.0;
        std::printf("%-16.2f %-14.4g %-14.4g %-10.3f %-6lld\n",
                    density, hand_edp, searched_edp,
                    hand_edp > 0.0 ? searched_edp / hand_edp : 0.0,
                    static_cast<long long>(
                        searched.warm_start_candidates));
    }
    std::printf("\n(ratio < 1: the warm-started search beats the "
                "hand-written mapping; 'seeds' counts elites reused "
                "from the previous pruning levels)\n");
    return 0;
}
