/**
 * @file
 * Sec. 6.2 headline reproduction: Sparseloop's analytical model vs.
 * the cycle-level spMspM simulator on the same host, reported as
 * modeling speedup and as CPHC (computes simulated per host cycle).
 *
 * Expected shape: the analytical model is thousands of times faster;
 * the paper reports > 2000x against STONNE (CPHC < 0.5).
 *
 * Exit-code gate: the binary prints a FAIL line and exits 1 when the
 * speedup at size 512 is below the paper's 2000x. Only the largest
 * row is gated: the smaller rows sit closer to the floor, so a loaded
 * host could fail them on timing noise alone.
 */

#include <cstdio>

#include "apps/designs.hh"
#include "bench/bench_util.hh"
#include "model/engine.hh"
#include "refsim/cycle_spmspm.hh"
#include "tensor/generate.hh"

using namespace sparseloop;

int
main()
{
    bench::header("Sec. 6.2: modeling speed vs cycle-level simulation");
    std::printf("%-8s %-14s %-14s %-12s %-12s %-10s\n", "size",
                "sim_sec", "model_sec", "sim_CPHC", "model_CPHC",
                "speedup");
    // The speedup of the last (largest) row, the one the gate checks.
    std::int64_t gated_size = 0;
    double gated_speedup = 0.0;
    for (std::int64_t size : {128, 256, 512}) {
        const double density = 0.3;
        auto a = generateUniform({size, size}, density, 7);
        auto b = generateUniform({size, size}, density, 8);
        refsim::CycleSimConfig cfg;
        cfg.skip_on_a = true;
        double sim_seconds = 0.0;
        refsim::CycleSimStats stats;
        sim_seconds = bench::timeSeconds([&] {
            stats = refsim::CycleLevelSpmspmSim(cfg).run(a, b);
        });

        Workload w = makeMatmul(size, size, size);
        bindUniformDensities(w, {{"A", density}, {"B", density}});
        apps::DesignPoint d = apps::buildCoordListDesign(w);
        Engine engine(d.arch);
        // Repeat the analytical evaluation to get a measurable time.
        const int reps = 200;
        double model_seconds = bench::timeSeconds([&] {
            for (int i = 0; i < reps; ++i) {
                EvalResult r = engine.evaluate(w, d.mapping, d.safs);
                (void)r;
            }
        }) / reps;

        double computes = static_cast<double>(size) * size * size;
        double host_hz = bench::kHostGhz * 1e9;
        double sim_cphc = computes / (sim_seconds * host_hz);
        double model_cphc = computes / (model_seconds * host_hz);
        double speedup = sim_seconds / model_seconds;
        gated_size = size;
        gated_speedup = speedup;
        std::printf("%-8lld %-14.4f %-14.6f %-12.3f %-12.1f %-10.0f\n",
                    static_cast<long long>(size), sim_seconds,
                    model_seconds, sim_cphc, model_cphc, speedup);
    }
    std::printf("\n(the paper reports > 2000x vs STONNE; the exact "
                "factor depends on the host and workload size)\n");

    constexpr double kPaperSpeedup = 2000.0;
    if (gated_speedup < kPaperSpeedup) {
        std::printf("FAIL: speedup %.0fx at size %lld is below the "
                    "paper's %.0fx\n",
                    gated_speedup, static_cast<long long>(gated_size),
                    kPaperSpeedup);
        return 1;
    }
    return 0;
}
