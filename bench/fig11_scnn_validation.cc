/**
 * @file
 * Fig. 11 reproduction: SCNN runtime-activity validation. Sparseloop
 * (uniform density model) vs. the author-style closed-form statistical
 * reference model, per architecture component.
 *
 * Expected shape: < 1% error for every component.
 *
 * Exit-code gate: the binary prints a FAIL line and exits 1 when the
 * worst component error reaches the paper's 1% bound.
 */

#include <cstdio>

#include "apps/designs.hh"
#include "bench/bench_util.hh"
#include "common/mathutil.hh"
#include "model/engine.hh"
#include "refsim/scnn_reference.hh"

using namespace sparseloop;

int
main()
{
    bench::header("Fig. 11: SCNN runtime activity validation");
    ConvLayerShape layer;
    layer.name = "googlenet-like conv";
    layer.k = 128;
    layer.c = 96;
    layer.p = 28;
    layer.q = 28;
    layer.r = 3;
    layer.s = 3;
    layer.weight_density = 0.4;
    layer.input_density = 0.35;

    std::int64_t tp = apps::pickTile(layer.p, 8);
    std::int64_t tq = apps::pickTile(layer.q, 8);
    auto ref = refsim::scnnReferenceActivities(layer, tp, tq);
    Workload w = makeConv(layer);
    apps::DesignPoint scnn = apps::buildScnn(w);
    Engine engine(scnn.arch);
    EvalResult r = engine.evaluate(w, scnn.mapping, scnn.safs);
    if (!r.valid) {
        std::printf("invalid mapping: %s\n", r.invalid_reason.c_str());
        return 1;
    }
    int O = w.tensorIndex("Outputs");
    int I = w.tensorIndex("Inputs");
    int Wt = w.tensorIndex("Weights");

    struct Row
    {
        const char *component;
        double model;
        double reference;
    };
    double pb_updates = r.sparse.at(1, O).updates.actual;
    double dram_w = r.sparse.at(0, Wt).reads.actual;
    double dram_i = r.sparse.at(0, I).reads.actual;
    Row rows[] = {
        {"effectual MACs", r.effectual_computes, ref.macs},
        {"executed computes", r.computes.actual, ref.macs},
        {"accumulator updates", pb_updates, ref.accumulator_updates},
        {"DRAM weight reads", dram_w, ref.dram_weight_reads},
        {"DRAM input reads", dram_i, ref.dram_input_reads},
    };
    std::printf("%-22s %-14s %-14s %-8s\n", "component", "sparseloop",
                "reference", "err%");
    double worst = 0.0;
    for (const auto &row : rows) {
        double err =
            math::relativeError(row.model, row.reference) * 100.0;
        worst = std::max(worst, err);
        std::printf("%-22s %-14.3e %-14.3e %-8.2f\n", row.component,
                    row.model, row.reference, err);
    }
    std::printf("\nworst component error: %.2f%% (paper: < 1%% for all "
                "components)\n", worst);

    constexpr double kMaxComponentErrPct = 1.0;
    if (worst >= kMaxComponentErrPct) {
        std::printf("FAIL: worst component error %.2f%% reaches %.1f%%\n",
                    worst, kMaxComponentErrPct);
        return 1;
    }
    return 0;
}
