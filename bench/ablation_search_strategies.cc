/**
 * @file
 * Ablation: the six search strategies over the mapspace IR vs the
 * pre-IR rejection sampler, on a constrained spMspM mapper search —
 * plus a warm-started sweep A/B on sibling co-design points.
 *
 * The pre-IR mapper fused constraint handling into rejection sampling:
 * every candidate whose random tiling put a factor on a constrained-out
 * dimension was thrown away after being drawn, so a constrained search
 * burned most of its budget producing nothing. The IR applies
 * constraints by construction, so every strategy spends the full
 * budget on evaluable candidates (valid-candidate rate ~= 1.0), and
 * the auto-selected exhaustive strategy additionally guarantees the
 * optimum whenever the pruned space fits the budget.
 *
 * Part 1 compares all six strategies (random, hybrid, annealing,
 * genetic, hierarchical, exhaustive) at an equal evaluation budget:
 * candidates proposed / evaluated / valid, the valid-candidate rate,
 * best EDP / cycles / energy, and wall-clock, then gates optimality
 * with an exhaustive walk of the whole pruned space. Part 1b repeats
 * the five stochastic ones at a tight budget on a much larger space.
 * Part 2 replays the `examples/spmspm_design_space.cpp` pattern: two SAF variants of one
 * dataflow searched in sequence, cold vs warm-started through a
 * `WarmStartPool`, asserting the warm search is equal-or-better at
 * the same total budget (its round 0 re-evaluates the neighbor's
 * elite, so the structure transfer is free).
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>

#include "apps/designs.hh"
#include "bench/bench_util.hh"
#include "common/mathutil.hh"
#include "mapper/mapper.hh"
#include "workload/builders.hh"

using namespace sparseloop;

namespace {

/** The pre-IR constrained sampler, verbatim: constraints partially by
 *  construction, loop-order leftovers by rejection. */
std::optional<Mapping>
legacySampleMapping(const Workload &w, const Architecture &arch,
                    const MapspaceConstraints &cons, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    const int S = arch.levelCount();
    const int D = w.dimCount();
    std::vector<std::vector<std::int64_t>> factors(
        S, std::vector<std::int64_t>(D, 1));
    for (int d = 0; d < D; ++d) {
        std::int64_t remaining = w.dims()[d].bound;
        for (int l = S - 1; l >= 1 && remaining > 1; --l) {
            auto divs = math::divisors(remaining);
            std::uniform_int_distribution<std::size_t> pick(
                0, divs.size() - 1);
            std::int64_t f = divs[pick(rng)];
            factors[l][d] = f;
            remaining /= f;
        }
        factors[0][d] = remaining;
    }
    std::vector<LevelNest> nests(S);
    for (int l = 0; l < S; ++l) {
        const LevelConstraint *con =
            cons.levels.empty() ? nullptr : &cons.levels[l];
        std::vector<int> dims;
        for (int d = 0; d < D; ++d) {
            if (factors[l][d] > 1) {
                dims.push_back(d);
            }
        }
        if (con && !con->loop_order.empty()) {
            std::vector<int> ordered;
            for (int d : con->loop_order) {
                if (factors[l][d] > 1) {
                    ordered.push_back(d);
                }
            }
            for (int d : dims) {
                if (std::find(ordered.begin(), ordered.end(), d) ==
                    ordered.end()) {
                    return std::nullopt;  // the budget-burning path
                }
            }
            dims = ordered;
        } else {
            std::shuffle(dims.begin(), dims.end(), rng);
        }
        int spatial_dim = -1;
        if (arch.level(l).fanout > 1) {
            std::vector<int> candidates;
            for (int d : dims) {
                bool allowed = !con || con->spatial_dims.empty() ||
                    std::find(con->spatial_dims.begin(),
                              con->spatial_dims.end(), d) !=
                        con->spatial_dims.end();
                if (allowed && factors[l][d] <= arch.level(l).fanout) {
                    candidates.push_back(d);
                }
            }
            if (!candidates.empty()) {
                std::uniform_int_distribution<std::size_t> pick(
                    0, candidates.size() - 1);
                spatial_dim = candidates[pick(rng)];
            }
        }
        for (int d : dims) {
            nests[l].loops.push_back({d, factors[l][d], d == spatial_dim});
        }
        if (con && !con->keep.empty()) {
            nests[l].keep.assign(w.tensorCount(), false);
            for (int t : con->keep) {
                nests[l].keep[t] = true;
            }
        }
    }
    return Mapping(std::move(nests));
}

struct Row
{
    std::string name;
    std::int64_t proposed = 0;
    std::int64_t evaluated = 0;
    std::int64_t valid = 0;
    double best_edp = std::numeric_limits<double>::infinity();
    double best_cycles = 0.0;
    double best_energy_uj = 0.0;
    double seconds = 0.0;
};

void
printRow(const Row &row)
{
    double rate = row.proposed > 0
        ? static_cast<double>(row.evaluated) /
            static_cast<double>(row.proposed)
        : 0.0;
    std::printf(
        "%-16s %-9lld %-10lld %-9lld %-11.3f %-12.4g %-11.0f %-10.2f %-8.3f\n",
        row.name.c_str(), static_cast<long long>(row.proposed),
        static_cast<long long>(row.evaluated),
        static_cast<long long>(row.valid), rate, row.best_edp,
        row.best_cycles, row.best_energy_uj, row.seconds);
}

} // namespace

int
main()
{
    bench::header("Ablation: mapspace search strategies (constrained "
                  "spMspM)");

    Workload w = makeMatmul(64, 64, 64);
    bindUniformDensities(w, {{"A", 0.1}, {"B", 0.1}});

    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = 16.0;
    dram.fanout = 4;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = 65536;
    buf.bandwidth_words_per_cycle = 8.0;
    Architecture arch("strategy-ablation", {dram, buf}, ComputeSpec{});
    SafSpec safs;
    safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});

    // Constrained mapspace: the buffer level only admits M-then-K
    // loops, the classic "output-stationary-ish" sweep restriction.
    MapspaceConstraints cons;
    cons.levels.resize(2);
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};

    const int budget = 1200;
    const std::uint64_t seed = 0xC0FFEE;

    std::printf("%-16s %-9s %-10s %-9s %-11s %-12s %-11s %-10s %-8s\n",
                "strategy", "proposed", "evaluated", "valid",
                "valid-rate", "best-EDP", "best-cyc", "best-uJ",
                "seconds");

    // Pre-IR baseline: rejection sampling burns budget on draws the
    // constraints then discard.
    Row legacy;
    legacy.name = "legacy-reject";
    legacy.seconds = bench::timeSeconds([&] {
        Engine engine(arch);
        for (int i = 0; i < budget; ++i) {
            ++legacy.proposed;
            auto candidate = legacySampleMapping(w, arch, cons, seed + i);
            if (!candidate) {
                continue;
            }
            ++legacy.evaluated;
            EvalResult eval = engine.evaluate(w, *candidate, safs);
            if (!eval.valid) {
                continue;
            }
            ++legacy.valid;
            if (eval.edp() < legacy.best_edp) {
                legacy.best_edp = eval.edp();
                legacy.best_cycles = eval.cycles;
                legacy.best_energy_uj = eval.energy_pj / 1e6;
            }
        }
    });
    printRow(legacy);

    bool ok = true;
    double overall_best = legacy.best_edp;
    std::int64_t pruned_points = 0;
    for (SearchStrategyKind kind :
         {SearchStrategyKind::Random, SearchStrategyKind::Hybrid,
          SearchStrategyKind::Annealing, SearchStrategyKind::Genetic,
          SearchStrategyKind::Hierarchical,
          SearchStrategyKind::Exhaustive}) {
        MapperOptions opts;
        opts.samples = budget;
        opts.seed = seed;
        opts.strategy = kind;
        opts.cache = std::make_shared<EvalCache>();
        Mapper mapper(w, arch, safs, opts, cons);
        MapperResult r;
        Row row;
        row.seconds = bench::timeSeconds([&] { r = mapper.search(); });
        row.name = "ir-" + r.strategy;
        row.proposed = r.candidates_evaluated;
        row.evaluated = r.candidates_evaluated;
        row.valid = r.candidates_valid;
        if (r.found) {
            row.best_edp = r.eval.edp();
            row.best_cycles = r.eval.cycles;
            row.best_energy_uj = r.eval.energy_pj / 1e6;
        }
        printRow(row);
        overall_best = std::min(overall_best, row.best_edp);
        if (kind == SearchStrategyKind::Exhaustive) {
            pruned_points = r.mapspace_size.enumerable;
            std::printf(
                "  exhaustive walked %lld of the %lld points of the "
                "pruned space (budget %d)\n",
                static_cast<long long>(r.candidates_evaluated),
                static_cast<long long>(r.mapspace_size.enumerable),
                budget);
        }
        // The IR guarantee: constrained searches no longer burn budget
        // on rejected candidates.
        double valid_rate = static_cast<double>(r.candidates_valid) /
            static_cast<double>(r.candidates_evaluated);
        if (!r.found || valid_rate < 0.95) {
            std::printf("FAIL: %s valid-candidate rate %.3f < 0.95\n",
                        row.name.c_str(), valid_rate);
            ok = false;
        }
    }

    double legacy_rate = static_cast<double>(legacy.evaluated) /
        static_cast<double>(legacy.proposed);
    std::printf("\nlegacy rejection sampling reached the engine with "
                "%.0f%% of its budget; the IR strategies with 100%%.\n",
                100.0 * legacy_rate);
    if (legacy_rate > 0.9) {
        std::printf("FAIL: legacy baseline rejected almost nothing; "
                    "the constraint scenario is too weak\n");
        ok = false;
    }
    // The optimality claim needs a walk of the whole pruned space, not
    // the budget-capped row above.
    {
        MapperOptions opts;
        opts.samples = static_cast<int>(pruned_points);
        opts.strategy = SearchStrategyKind::Exhaustive;
        MapperResult full = Mapper(w, arch, safs, opts, cons).search();
        std::printf("full exhaustive walk: %lld of %lld points, "
                    "best-EDP %.4g\n",
                    static_cast<long long>(full.candidates_evaluated),
                    static_cast<long long>(pruned_points),
                    full.found ? full.eval.edp() : 0.0);
        if (full.candidates_evaluated != pruned_points) {
            std::printf("FAIL: the exhaustive walk did not cover the "
                        "whole pruned space\n");
            ok = false;
        }
        if (!full.found || full.eval.edp() > overall_best + 1e-9) {
            std::printf("FAIL: exhaustive missed an optimum another "
                        "strategy found\n");
            ok = false;
        }
    }

    // -----------------------------------------------------------------
    // Part 1b: strategy quality at a tight budget. A much larger
    // unconstrained space where the budget covers a tiny fraction of
    // the points, so the strategies' search behavior (not coverage)
    // decides the outcome. No ordering assertion — the point is the
    // measured comparison at equal budgets.
    // -----------------------------------------------------------------
    std::printf("\n== strategy quality at a tight budget "
                "(three-level 128^3 spMspM, budget 300) ==\n");
    Workload tight_w = makeMatmul(128, 128, 128);
    bindUniformDensities(tight_w, {{"A", 0.05}, {"B", 0.05}});
    StorageLevelSpec l2;
    l2.name = "L2";
    l2.capacity_words = 65536;
    l2.bandwidth_words_per_cycle = 32.0;
    l2.fanout = 16;
    StorageLevelSpec l1;
    l1.name = "L1";
    l1.capacity_words = 1024;
    l1.bandwidth_words_per_cycle = 8.0;
    Architecture tight_arch("tight", {dram, l2, l1}, ComputeSpec{});
    std::printf("%-14s %-12s %-11s %-10s %-8s\n", "strategy",
                "best-EDP", "best-cyc", "best-uJ", "seconds");
    for (SearchStrategyKind kind :
         {SearchStrategyKind::Random, SearchStrategyKind::Hybrid,
          SearchStrategyKind::Annealing, SearchStrategyKind::Genetic,
          SearchStrategyKind::Hierarchical}) {
        MapperOptions opts;
        opts.samples = 300;
        opts.seed = seed;
        opts.strategy = kind;
        Mapper mapper(tight_w, tight_arch, safs, opts);
        MapperResult r;
        double seconds =
            bench::timeSeconds([&] { r = mapper.search(); });
        if (!r.found) {
            std::printf("FAIL: %s found no valid mapping\n",
                        r.strategy.c_str());
            ok = false;
            continue;
        }
        std::printf("%-14s %-12.4g %-11.0f %-10.2f %-8.3f\n",
                    r.strategy.c_str(), r.eval.edp(), r.eval.cycles,
                    r.eval.energy_pj / 1e6, seconds);
    }

    // -----------------------------------------------------------------
    // Part 2: warm-started sweep A/B. Two SAF variants of one co-design
    // dataflow (the examples/spmspm_design_space.cpp sweep structure,
    // Sec. 7.2): search them in sequence, cold vs sharing a
    // WarmStartPool, at the same per-design budget.
    // -----------------------------------------------------------------
    std::printf("\n== warm-started sweep (sibling SAF variants, "
                "annealing, equal budgets) ==\n");
    Workload sweep_w = makeMatmul(256, 256, 256);
    bindUniformDensities(sweep_w, {{"A", 0.01}, {"B", 0.01}});
    apps::DesignPoint first = apps::buildCoDesign(
        sweep_w, apps::CoDesignDataflow::ReuseAZ,
        apps::CoDesignSafs::InnermostSkip);
    apps::DesignPoint second = apps::buildCoDesign(
        sweep_w, apps::CoDesignDataflow::ReuseAZ,
        apps::CoDesignSafs::HierarchicalSkip);

    MapperOptions sweep_opts;
    sweep_opts.samples = 160;
    sweep_opts.seed = seed;
    sweep_opts.strategy = SearchStrategyKind::Annealing;

    MapperResult cold_first =
        Mapper(sweep_w, first.arch, first.safs, sweep_opts).search();
    MapperResult cold_second =
        Mapper(sweep_w, second.arch, second.safs, sweep_opts).search();

    MapperOptions warm_opts = sweep_opts;
    warm_opts.warm_start = std::make_shared<WarmStartPool>();
    MapperResult warm_first =
        Mapper(sweep_w, first.arch, first.safs, warm_opts).search();
    MapperResult warm_second =
        Mapper(sweep_w, second.arch, second.safs, warm_opts).search();

    std::printf("%-28s %-12s %-12s %-6s\n", "design point", "cold-EDP",
                "warm-EDP", "seeds");
    std::printf("%-28s %-12.4g %-12.4g %-6lld\n", first.name.c_str(),
                cold_first.eval.edp(), warm_first.eval.edp(),
                static_cast<long long>(warm_first.warm_start_candidates));
    std::printf("%-28s %-12.4g %-12.4g %-6lld\n", second.name.c_str(),
                cold_second.eval.edp(), warm_second.eval.edp(),
                static_cast<long long>(
                    warm_second.warm_start_candidates));

    // The first search of the warm pipeline sees an empty pool: it
    // must be bit-identical to the cold search.
    if (!warm_first.found ||
        warm_first.eval.edp() != cold_first.eval.edp() ||
        warm_first.warm_start_candidates != 0) {
        std::printf("FAIL: empty-pool warm search diverged from the "
                    "cold search\n");
        ok = false;
    }
    // The warm-started neighbor must be equal-or-better at the same
    // total evaluation budget. Round 0 re-evaluates the recorded
    // elite, so warm_best <= elite-under-design-2 holds by
    // construction; warm <= cold additionally holds at the pinned
    // seed (the comparison is deterministic — chain seeding shifts
    // the sampled trajectory, so it is a measured property, not an
    // invariant for every seed).
    if (!warm_second.found || warm_second.warm_start_candidates < 1 ||
        warm_second.candidates_evaluated !=
            cold_second.candidates_evaluated ||
        warm_second.eval.edp() > cold_second.eval.edp()) {
        std::printf("FAIL: warm-started search did not reach an "
                    "equal-or-better mapping at the same budget\n");
        ok = false;
    }
    return ok ? 0 : 1;
}
