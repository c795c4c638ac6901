/**
 * @file
 * Fig. 12 reproduction: Eyeriss V2 PE processing-latency validation on
 * MobileNet. Sparseloop with a uniform density model and with an
 * actual-data density model, against the actual-data PE simulator.
 *
 * Expected shape: > 99% total-cycle accuracy; the uniform model shows
 * a few percent error on layers where both operands are sparse and
 * compressed, while the actual-data model closes the gap.
 *
 * Exit-code gate: the binary prints a FAIL line and exits 1 when
 * either model's total-cycle error reaches the paper's 1% bound.
 */

#include <cstdio>
#include <memory>

#include "apps/dnn_models.hh"
#include "bench/bench_util.hh"
#include "common/mathutil.hh"
#include "density/actual_data.hh"
#include "density/hypergeometric.hh"
#include "model/engine.hh"
#include "refsim/eyeriss_v2_pe.hh"
#include "tensor/generate.hh"
#include "workload/builders.hh"

using namespace sparseloop;

namespace {

struct LayerResult
{
    std::string name;
    double sim_cycles;
    double uniform_cycles;
    double actual_cycles;
};

/**
 * Model one PE work unit of a layer: the PE walks the compressed
 * input vector (C_eff inputs) and, per nonzero input, the CSC weight
 * column (K_eff weights).
 */
LayerResult
runLayer(const apps::MobileNetLayer &layer, std::uint64_t seed)
{
    std::int64_t k_eff =
        layer.depthwise ? layer.shape.r * layer.shape.s
                        : std::min<std::int64_t>(layer.shape.k, 32);
    std::int64_t c_eff = std::min<std::int64_t>(layer.shape.c, 128);
    double dw = layer.depthwise ? 0.85 : 0.55;  // pruned pointwise
    double di = layer.shape.input_density;

    auto weights = std::make_shared<SparseTensor>(
        generateUniform({k_eff, c_eff}, dw, seed));
    auto inputs = std::make_shared<SparseTensor>(
        generateUniform({1, c_eff}, di, seed + 1));
    auto sim = refsim::EyerissV2PeSim().run(*weights, *inputs);

    auto evalWith = [&](bool actual) {
        Workload w = makeMatmul(k_eff, c_eff, 1);
        if (actual) {
            w.setDensity("A", makeActualDataDensity(weights));
            auto inputs_b =
                std::make_shared<SparseTensor>(Shape{c_eff, 1});
            for (std::int64_t c = 0; c < c_eff; ++c) {
                inputs_b->set({c, 0}, inputs->at({0, c}));
            }
            w.setDensity("B", makeActualDataDensity(inputs_b));
        } else {
            bindUniformDensities(w, {{"A", dw}, {"B", di}});
        }
        StorageLevelSpec dram;
        dram.name = "DRAM";
        dram.storage_class = StorageClass::DRAM;
        StorageLevelSpec pe;
        pe.name = "PeBuffer";
        pe.capacity_words = 1 << 20;
        Architecture arch("pe", {dram, pe}, ComputeSpec{});
        Mapping m = MappingBuilder(w, arch)
                        .temporal(1, "K", c_eff)
                        .temporal(1, "M", k_eff)
                        .buildComplete();
        SafSpec safs;
        safs.addSkip(1, w.tensorIndex("A"), {w.tensorIndex("B")});
        safs.addSkip(1, w.tensorIndex("Z"),
                     {w.tensorIndex("A"), w.tensorIndex("B")});
        EvalResult r = Engine(arch).evaluate(w, m, safs);
        return r.computes.actual;
    };

    return {layer.shape.name, static_cast<double>(sim.cycles),
            evalWith(false), evalWith(true)};
}

} // namespace

int
main()
{
    bench::header(
        "Fig. 12: Eyeriss V2 PE latency validation on MobileNet");
    auto layers = apps::mobilenetV1Layers();
    double sim_total = 0.0, uni_total = 0.0, act_total = 0.0;
    std::printf("%-8s %-12s %-12s %-12s %-9s %-9s\n", "layer", "sim",
                "uniform", "actual", "uni_err%", "act_err%");
    std::uint64_t seed = 1000;
    for (const auto &layer : layers) {
        LayerResult r = runLayer(layer, seed);
        seed += 7;
        sim_total += r.sim_cycles;
        uni_total += r.uniform_cycles;
        act_total += r.actual_cycles;
        double uni_err =
            math::relativeError(r.uniform_cycles, r.sim_cycles) * 100;
        double act_err =
            math::relativeError(r.actual_cycles, r.sim_cycles) * 100;
        if (uni_err > 1.0) {  // the paper plots layers with > 1% error
            std::printf("%-8s %-12.0f %-12.0f %-12.0f %-9.2f %-9.2f\n",
                        r.name.c_str(), r.sim_cycles, r.uniform_cycles,
                        r.actual_cycles, uni_err, act_err);
        }
    }
    const double uni_total_err =
        math::relativeError(uni_total, sim_total) * 100;
    const double act_total_err =
        math::relativeError(act_total, sim_total) * 100;
    std::printf("\ntotal cycles: sim=%.0f uniform=%.0f (%.2f%% err) "
                "actual-data=%.0f (%.2f%% err)\n",
                sim_total, uni_total, uni_total_err, act_total,
                act_total_err);
    std::printf("(paper: >99%% total accuracy; uniform model up to ~7%% "
                "per-layer error, actual-data model near-exact)\n");

    // The paper's >99% total accuracy: each model's total-cycle error
    // must stay below 1%.
    constexpr double kMaxTotalErrPct = 1.0;
    int failures = 0;
    const struct { const char *model; double err; } totals[] = {
        {"uniform", uni_total_err}, {"actual-data", act_total_err}};
    for (const auto &total : totals) {
        if (total.err >= kMaxTotalErrPct) {
            std::printf("FAIL: %s total-cycle error %.2f%% reaches "
                        "%.1f%%\n",
                        total.model, total.err, kMaxTotalErrPct);
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}
