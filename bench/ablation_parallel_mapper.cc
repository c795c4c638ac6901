/**
 * @file
 * Ablation: scaling of the multi-threaded mapspace search. Runs the
 * same search budget through `Mapper::search` and through
 * `Mapper::searchWithThreads` at increasing thread counts, reporting
 * wall-clock, speedup, and a bit-identity check of the returned best
 * mapping — the property that makes the threaded path a drop-in
 * replacement in every DSE sweep.
 */

#include <cstdio>
#include <vector>

#include "apps/designs.hh"
#include "bench/bench_util.hh"
#include "mapper/mapper.hh"

using namespace sparseloop;

int
main()
{
    bench::header("Ablation: threaded mapper search scaling (spMspM DSE)");

    Workload w = makeMatmul(128, 128, 128);
    bindUniformDensities(w, {{"A", 0.1}, {"B", 0.1}});
    apps::DesignPoint d = apps::buildCoDesign(
        w, apps::CoDesignDataflow::ReuseAZ,
        apps::CoDesignSafs::HierarchicalSkip);

    MapperOptions opts;
    opts.samples = 4000;
    opts.objective = ObjectiveSpec::single(Metric::Edp);

    Mapper mapper(w, d.arch, d.safs, opts);
    MapperResult seq;
    double seq_seconds =
        bench::timeSeconds([&] { seq = mapper.search(); });
    std::printf("%-10s %-10s %-10s %-10s %-10s\n", "threads",
                "seconds", "speedup", "identical", "valid");
    std::printf("%-10s %-10.3f %-10s %-10s %-10lld\n", "seq",
                seq_seconds, "1.00", "-",
                static_cast<long long>(seq.candidates_valid));

    for (int threads : {1, 2, 4, 8}) {
        MapperResult par;
        double seconds = bench::timeSeconds(
            [&] { par = mapper.searchWithThreads(threads); });
        bool identical = par.found == seq.found &&
            par.candidates_evaluated == seq.candidates_evaluated &&
            par.candidates_valid == seq.candidates_valid &&
            par.eval.cycles == seq.eval.cycles &&
            par.eval.energy_pj == seq.eval.energy_pj;
        std::printf("%-10d %-10.3f %-10.2f %-10s %-10lld\n", threads,
                    seconds, seq_seconds / seconds,
                    identical ? "yes" : "NO",
                    static_cast<long long>(par.candidates_valid));
        if (!identical) {
            std::printf("parallel result diverged from sequential\n");
            return 1;
        }
    }
    return 0;
}
