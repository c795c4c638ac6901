/**
 * @file
 * Fig. 13 reproduction: DSTC processing latency across operand
 * densities, normalized to dense processing latency; Sparseloop
 * (uniform density model) vs. the cycle-approximate outer-product
 * simulator running on actual data.
 *
 * Expected shape: normalized latency grows ~quadratically with
 * density; Sparseloop tracks the simulator with single-digit-percent
 * average error at moderate/high densities, erring optimistic (it
 * ignores MAC-array quantization and bank conflicts, cf. Sec. 6.3.3).
 *
 * Exit-code gate: the binary prints a FAIL line and exits 1 when the
 * average error at density >= 0.3 exceeds the paper's 7.6%.
 */

#include <cstdio>

#include "apps/designs.hh"
#include "bench/bench_util.hh"
#include "common/mathutil.hh"
#include "model/engine.hh"
#include "refsim/dstc_sim.hh"
#include "tensor/generate.hh"

using namespace sparseloop;

int
main()
{
    bench::header("Fig. 13: DSTC normalized latency vs density");
    const std::int64_t size = 512;
    refsim::DstcSim sim{refsim::DstcSimConfig{}};
    double dense_sim = sim.denseCycles(size, size, size);

    Workload wd = makeMatmul(size, size, size);
    apps::DesignPoint dense_tc = apps::buildDenseTensorCore(wd);
    EvalResult rd = Engine(dense_tc.arch)
                        .evaluate(wd, dense_tc.mapping, dense_tc.safs);

    std::printf("%-9s %-14s %-14s %-8s\n", "density", "sim_norm",
                "model_norm", "err%");
    double total_err = 0.0;
    int count = 0;
    for (double density :
         {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
        auto a = generateUniform({size, size}, density, 101);
        auto b = generateUniform({size, size}, density, 202);
        auto stats = sim.run(a, b);
        double sim_norm =
            static_cast<double>(stats.cycles) / dense_sim;

        Workload w = makeMatmul(size, size, size);
        bindUniformDensities(w, {{"A", density}, {"B", density}});
        apps::DesignPoint dstc = apps::buildDstc(w);
        EvalResult r =
            Engine(dstc.arch).evaluate(w, dstc.mapping, dstc.safs);
        double model_norm = r.cycles / rd.cycles;
        double err = math::relativeError(model_norm, sim_norm) * 100;
        if (density >= 0.3) {  // quantization dominates below
            total_err += err;
            ++count;
        }
        std::printf("%-9.1f %-14.4f %-14.4f %-8.2f\n", density,
                    sim_norm, model_norm, err);
    }
    const double avg_err = total_err / count;
    std::printf("\naverage error (density >= 0.3): %.2f%% "
                "(paper: 7.6%% average)\n",
                avg_err);

    constexpr double kPaperAvgErrPct = 7.6;
    if (avg_err > kPaperAvgErrPct) {
        std::printf("FAIL: average error %.2f%% exceeds the paper's "
                    "%.1f%%\n",
                    avg_err, kPaperAvgErrPct);
        return 1;
    }
    return 0;
}
