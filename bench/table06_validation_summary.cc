/**
 * @file
 * Table 6 reproduction: high-level summary of the performed
 * validations — one row per validated design with the measured average
 * accuracy, mirroring the paper's 0.1% to 8% average-error claim.
 *
 * Each row re-runs the corresponding validation experiment (see
 * fig11/fig12/fig13 benches for the detailed versions).
 *
 * Exit-code gate: every row must land in its paper band (accuracy at
 * least the paper's figure, the Eyeriss gating saving within 43 +- 3
 * percentage points); the binary prints a FAIL line per row that does
 * not and exits 1.
 */

#include <cstdio>
#include <limits>
#include <memory>

#include "apps/designs.hh"
#include "apps/dnn_models.hh"
#include "bench/bench_util.hh"
#include "common/mathutil.hh"
#include "density/actual_data.hh"
#include "density/structured.hh"
#include "format/tensor_format.hh"
#include "density/hypergeometric.hh"
#include "model/engine.hh"
#include "refsim/cycle_spmspm.hh"
#include "refsim/dstc_sim.hh"
#include "refsim/eyeriss_v2_pe.hh"
#include "refsim/scnn_reference.hh"
#include "tensor/generate.hh"

using namespace sparseloop;

namespace {

/** SCNN: runtime activities vs the closed-form reference. */
double
scnnAccuracy()
{
    ConvLayerShape layer;
    layer.k = 128;
    layer.c = 96;
    layer.p = 28;
    layer.q = 28;
    layer.r = 3;
    layer.s = 3;
    layer.weight_density = 0.4;
    layer.input_density = 0.35;
    auto ref = refsim::scnnReferenceActivities(
        layer, apps::pickTile(layer.p, 8), apps::pickTile(layer.q, 8));
    Workload w = makeConv(layer);
    apps::DesignPoint scnn = apps::buildScnn(w);
    EvalResult r =
        Engine(scnn.arch).evaluate(w, scnn.mapping, scnn.safs);
    double err = math::relativeError(r.effectual_computes, ref.macs);
    err = std::max(err, math::relativeError(
        r.sparse.at(0, w.tensorIndex("Weights")).reads.actual,
        ref.dram_weight_reads));
    return (1.0 - err) * 100.0;
}

/** Eyeriss V2 PE: actual-data cycles vs the PE simulator. */
double
eyerissV2Accuracy()
{
    double total_sim = 0.0, total_model = 0.0;
    std::uint64_t seed = 5000;
    for (double di : {0.4, 0.6, 0.8}) {
        auto weights = std::make_shared<SparseTensor>(
            generateUniform({32, 128}, 0.55, seed));
        auto inputs = std::make_shared<SparseTensor>(
            generateUniform({1, 128}, di, seed + 1));
        seed += 2;
        auto sim = refsim::EyerissV2PeSim().run(*weights, *inputs);
        Workload w = makeMatmul(32, 128, 1);
        w.setDensity("A", makeActualDataDensity(weights));
        auto inputs_b = std::make_shared<SparseTensor>(Shape{128, 1});
        for (std::int64_t c = 0; c < 128; ++c) {
            inputs_b->set({c, 0}, inputs->at({0, c}));
        }
        w.setDensity("B", makeActualDataDensity(inputs_b));
        StorageLevelSpec dram;
        dram.name = "DRAM";
        dram.storage_class = StorageClass::DRAM;
        StorageLevelSpec pe;
        pe.name = "PeBuffer";
        pe.capacity_words = 1 << 20;
        Architecture arch("pe", {dram, pe}, ComputeSpec{});
        Mapping m = MappingBuilder(w, arch)
                        .temporal(1, "K", 128)
                        .temporal(1, "M", 32)
                        .buildComplete();
        SafSpec safs;
        safs.addSkip(1, w.tensorIndex("A"), {w.tensorIndex("B")});
        safs.addSkip(1, w.tensorIndex("Z"),
                     {w.tensorIndex("A"), w.tensorIndex("B")});
        EvalResult r = Engine(arch).evaluate(w, m, safs);
        total_sim += static_cast<double>(sim.cycles);
        total_model += r.computes.actual;
    }
    return (1.0 - math::relativeError(total_model, total_sim)) * 100.0;
}

/** Eyeriss: DRAM compression rate vs the published chip numbers. */
double
eyerissAccuracy()
{
    const double paper_rates[] = {1.2, 1.4, 1.7, 1.85, 1.9};
    const double out_density[] = {0.63, 0.54, 0.45, 0.42, 0.40};
    auto layers = apps::alexnetConvLayers();
    TensorFormat rle = makeRunLength(1, 5);
    double total_err = 0.0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const auto &l = layers[i];
        HypergeometricDensity model(l.k * l.p * l.q, out_density[i]);
        auto stats = rle.tileStats(
            model, rle.flattenExtents({l.k, l.p, l.q}));
        total_err += math::relativeError(stats.compressionRate(16),
                                         paper_rates[i]);
    }
    return (1.0 - total_err / 5.0) * 100.0;
}

/** DSTC: normalized latency vs the outer-product simulator. */
double
dstcAccuracy()
{
    const std::int64_t size = 512;
    refsim::DstcSim sim{refsim::DstcSimConfig{}};
    double dense_sim = sim.denseCycles(size, size, size);
    Workload wd = makeMatmul(size, size, size);
    apps::DesignPoint dense_tc = apps::buildDenseTensorCore(wd);
    EvalResult rd = Engine(dense_tc.arch)
                        .evaluate(wd, dense_tc.mapping, dense_tc.safs);
    double total_err = 0.0;
    int count = 0;
    for (double density : {0.3, 0.5, 0.7, 0.9}) {
        auto a = generateUniform({size, size}, density, 301);
        auto b = generateUniform({size, size}, density, 302);
        auto stats = sim.run(a, b);
        Workload w = makeMatmul(size, size, size);
        bindUniformDensities(w, {{"A", density}, {"B", density}});
        apps::DesignPoint dstc = apps::buildDstc(w);
        EvalResult r =
            Engine(dstc.arch).evaluate(w, dstc.mapping, dstc.safs);
        total_err += math::relativeError(
            r.cycles / rd.cycles,
            static_cast<double>(stats.cycles) / dense_sim);
        ++count;
    }
    return (1.0 - total_err / count) * 100.0;
}

/** Eyeriss: max PE-array energy saving from gating (chip: ~45%). */
double
eyerissGatingSaving()
{
    double best = 0.0;
    for (const auto &layer : apps::alexnetConvLayers()) {
        Workload sw = makeConv(layer);
        apps::DesignPoint d = apps::buildEyeriss(sw);
        EvalResult sr = Engine(d.arch).evaluate(sw, d.mapping, d.safs);
        auto dl = layer;
        dl.input_density = 1.0;
        Workload dw = makeConv(dl);
        apps::DesignPoint dd = apps::buildEyeriss(dw);
        EvalResult dr =
            Engine(dd.arch).evaluate(dw, dd.mapping, dd.safs);
        double pe_s = sr.levels.back().energy_pj + sr.compute_energy_pj;
        double pe_d = dr.levels.back().energy_pj + dr.compute_energy_pj;
        best = std::max(best, 1.0 - pe_s / pe_d);
    }
    return best * 100.0;
}

/** STC: structured 2:4 speedup vs the published exact 2x. */
double
stcAccuracy()
{
    Workload dense_w = makeMatmul(256, 768, 256);
    Workload sparse_w = makeMatmul(256, 768, 256);
    sparse_w.setDensity("A", makeStructuredDensity(2, 4));
    apps::DesignPoint stc = apps::buildStc(sparse_w, 2, 4);
    apps::DesignPoint base = apps::buildDenseTensorCore(dense_w);
    EvalResult rs =
        Engine(stc.arch).evaluate(sparse_w, stc.mapping, stc.safs);
    EvalResult rb =
        Engine(base.arch).evaluate(dense_w, base.mapping, base.safs);
    double speedup = rb.cycles / rs.cycles;
    return (1.0 - math::relativeError(speedup, 2.0)) * 100.0;
}

/** One Table 6 row and the band its measurement must land in. */
struct Row
{
    const char *design;
    const char *output;
    double measured;
    const char *paper;
    double lo;
    double hi;
};

} // namespace

int
main()
{
    bench::header("Table 6: validation summary");
    std::printf("%-14s %-26s %-10s %-10s\n", "design", "output",
                "accuracy%", "paper%");
    const double kNone = std::numeric_limits<double>::infinity();
    const Row rows[] = {
        {"SCNN", "runtime activities", scnnAccuracy(), "99.9", 99.9,
         kNone},
        {"EyerissV2 PE", "processing latency", eyerissV2Accuracy(), ">98",
         98.0, kNone},
        {"Eyeriss", "compression rate", eyerissAccuracy(), ">95", 95.0,
         kNone},
        {"Eyeriss", "PE energy saving (max %)", eyerissGatingSaving(),
         "43 (chip 45)", 40.0, 46.0},
        {"DSTC", "processing latency", dstcAccuracy(), "92.4", 92.4,
         kNone},
        {"STC", "processing latency", stcAccuracy(), "100", 99.9, kNone},
    };
    int failures = 0;
    for (const Row &row : rows) {
        std::printf("%-14s %-26s %-10.1f %-10s\n", row.design, row.output,
                    row.measured, row.paper);
    }
    for (const Row &row : rows) {
        if (row.measured < row.lo || row.measured > row.hi) {
            std::printf("FAIL: %s %s = %.2f is outside [%.1f, %.1f]\n",
                        row.design, row.output, row.measured, row.lo,
                        row.hi);
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}
