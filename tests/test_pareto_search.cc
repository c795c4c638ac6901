/**
 * @file
 * Tests for the objective layer threaded through the search drivers:
 * with the default EDP spec every strategy's MapperResult is
 * bit-identical to a replica of the pre-refactor scalar driver (at 1,
 * 4, and 8 evaluation threads); Pareto fronts are bit-identical
 * across driver batch sizes 1/7/256 and thread counts 1/4/8; and the
 * warm-start pool re-ranks its elites under the consuming search's
 * spec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "mapper/mapper.hh"
#include "model/engine.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

Architecture
searchArch()
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = 16.0;
    dram.fanout = 4;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = 4096;
    buf.bandwidth_words_per_cycle = 8.0;
    return Architecture("search", {dram, buf}, ComputeSpec{});
}

void
expectIdenticalFronts(const std::vector<ParetoEntry> &a,
                      const std::vector<ParetoEntry> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("front entry " + std::to_string(i));
        EXPECT_EQ(a[i].index, b[i].index);
        // Bitwise metric equality — no tolerance.
        EXPECT_EQ(a[i].metrics, b[i].metrics);
        EXPECT_EQ(a[i].mapping, b[i].mapping);
    }
}

/**
 * A replica of the pre-refactor scalar driver: propose in
 * `batch_size` chunks, evaluate sequentially through the engine,
 * reduce with the historical (EDP, proposal index) scan, feed EDP
 * scalars back to the strategy. Everything the objective layer
 * replaced, spelled out longhand.
 */
MapperResult
scalarEdpReplica(const Workload &w, const Architecture &arch,
                 const SafSpec &safs, const MapperOptions &opts,
                 const MapspaceConstraints &cons)
{
    MapSpace space(w, arch, cons, opts.mapspace);
    SearchTuning tuning;
    tuning.hybrid_warmup = opts.hybrid_warmup;
    tuning.annealing = opts.annealing;
    tuning.genetic = opts.genetic;
    auto strategy = makeSearchStrategy(opts.strategy, space, opts.seed,
                                       opts.samples, tuning);
    Engine engine(arch);
    MapperResult result;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double best_obj = kInf;
    std::int64_t best_index = -1;
    while (result.candidates_evaluated < opts.samples) {
        const int want = static_cast<int>(std::min<std::int64_t>(
            opts.batch_size, opts.samples - result.candidates_evaluated));
        std::vector<SearchCandidate> batch = strategy->propose(want);
        if (batch.empty()) {
            break;
        }
        std::vector<double> objectives(batch.size(), kInf);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            ++result.candidates_evaluated;
            EvalResult eval = engine.evaluate(w, batch[i].mapping, safs);
            if (!eval.valid) {
                continue;
            }
            ++result.candidates_valid;
            const double obj = eval.edp();
            objectives[i] = obj;
            if (!result.found || obj < best_obj ||
                (obj == best_obj && batch[i].index < best_index)) {
                result.found = true;
                result.mapping = batch[i].mapping;
                result.eval = eval;
                best_obj = obj;
                best_index = batch[i].index;
            }
        }
        strategy->observe(batch, objectives);
    }
    return result;
}

TEST(ObjectiveLayer, EdpSpecIsBitIdenticalToTheScalarDriver)
{
    Workload w = makeMatmul(32, 32, 32);
    bindUniformDensities(w, {{"A", 0.1}});
    Architecture arch = searchArch();
    SafSpec safs;
    safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});
    MapspaceConstraints cons;
    cons.levels.resize(2);
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};

    for (SearchStrategyKind kind :
         {SearchStrategyKind::Random, SearchStrategyKind::Exhaustive,
          SearchStrategyKind::Hybrid, SearchStrategyKind::Annealing,
          SearchStrategyKind::Genetic}) {
        MapperOptions opts;
        opts.samples = kind == SearchStrategyKind::Exhaustive ? 2000 : 300;
        opts.strategy = kind;
        opts.objective = ObjectiveSpec::single(Metric::Edp);

        MapperResult replica =
            scalarEdpReplica(w, arch, safs, opts, cons);
        ASSERT_TRUE(replica.found);

        // The refactored driver at 1/4/8 evaluation threads must
        // reproduce the scalar driver's result bit for bit.
        for (int threads : {1, 4, 8}) {
            MapperResult r =
                Mapper(w, arch, safs, opts, cons).searchWithThreads(threads);
            SCOPED_TRACE("strategy=" + r.strategy +
                         " threads=" + std::to_string(threads));
            ASSERT_TRUE(r.found);
            EXPECT_EQ(r.candidates_evaluated,
                      replica.candidates_evaluated);
            EXPECT_EQ(r.candidates_valid, replica.candidates_valid);
            EXPECT_EQ(r.mapping, replica.mapping);
            EXPECT_TRUE(bitIdentical(r.eval, replica.eval));
        }
    }
}

TEST(ObjectiveLayer, ParetoFrontIsBatchSizeIndependent)
{
    Workload w = makeMatmul(32, 32, 32);
    bindUniformDensities(w, {{"A", 0.1}});
    Architecture arch = searchArch();
    SafSpec safs;
    safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});

    for (SearchStrategyKind kind :
         {SearchStrategyKind::Random, SearchStrategyKind::Annealing,
          SearchStrategyKind::Genetic}) {
        MapperOptions opts;
        opts.samples = 300;
        opts.strategy = kind;
        opts.batch_size = 256;
        MapperResult base = Mapper(w, arch, safs, opts).search();
        ASSERT_TRUE(base.found);
        EXPECT_FALSE(base.pareto_front.empty());
        // 7 straddles every round boundary; 1 is the degenerate case.
        for (int batch_size : {1, 7}) {
            opts.batch_size = batch_size;
            MapperResult r = Mapper(w, arch, safs, opts).search();
            SCOPED_TRACE("strategy=" + base.strategy + " batch_size=" +
                         std::to_string(batch_size));
            expectIdenticalFronts(base.pareto_front, r.pareto_front);
        }
    }
}

TEST(ObjectiveLayer, ParetoFrontIsThreadCountIndependent)
{
    Workload w = makeMatmul(32, 32, 32);
    bindUniformDensities(w, {{"A", 0.1}});
    Architecture arch = searchArch();
    SafSpec safs;
    safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});

    for (SearchStrategyKind kind :
         {SearchStrategyKind::Random, SearchStrategyKind::Annealing,
          SearchStrategyKind::Genetic}) {
        MapperOptions opts;
        opts.samples = 300;
        opts.strategy = kind;
        MapperResult seq = Mapper(w, arch, safs, opts).search();
        ASSERT_TRUE(seq.found);
        for (int threads : {1, 4, 8}) {
            MapperResult par =
                Mapper(w, arch, safs, opts).searchWithThreads(threads);
            SCOPED_TRACE("strategy=" + seq.strategy +
                         " threads=" + std::to_string(threads));
            expectIdenticalFronts(seq.pareto_front, par.pareto_front);
        }
    }
}

TEST(ObjectiveLayer, FrontEntriesAreMutuallyNonDominated)
{
    Workload w = makeMatmul(32, 32, 32);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 300;
    opts.strategy = SearchStrategyKind::Random;
    opts.objective = ObjectiveSpec::single(Metric::Edp).withFrontMetrics(
        {Metric::Cycles, Metric::Energy, Metric::PeakCapacity});
    MapperResult r = Mapper(w, arch, none, opts).search();
    ASSERT_TRUE(r.found);
    ASSERT_FALSE(r.pareto_front.empty());
    ParetoArchive probe(opts.objective.frontMetrics(), 1);
    for (std::size_t i = 0; i < r.pareto_front.size(); ++i) {
        for (std::size_t j = 0; j < r.pareto_front.size(); ++j) {
            if (i != j) {
                EXPECT_FALSE(probe.dominates(r.pareto_front[i].metrics,
                                             r.pareto_front[j].metrics));
            }
        }
    }
    // Front entries arrive sorted by the first front metric.
    for (std::size_t i = 1; i < r.pareto_front.size(); ++i) {
        EXPECT_LE(r.pareto_front[i - 1].metrics.at(Metric::Cycles),
                  r.pareto_front[i].metrics.at(Metric::Cycles));
    }
    // The front never exceeds its configured bound.
    EXPECT_LE(r.pareto_front.size(), opts.pareto_capacity);
}

TEST(ObjectiveLayer, ZeroParetoCapacityDisablesFrontTracking)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 100;
    opts.pareto_capacity = 0;
    MapperResult r = Mapper(w, arch, none, opts).search();
    ASSERT_TRUE(r.found);
    EXPECT_TRUE(r.pareto_front.empty());
}

TEST(ObjectiveLayer, WarmStartPoolReRanksUnderTheConsumingSpec)
{
    Workload w = makeMatmul(8, 8, 8);
    Architecture arch = searchArch();
    auto mappingWithTile = [&](std::int64_t m1) {
        return MappingBuilder(w, arch)
            .temporal(1, "M", m1)
            .temporal(1, "N", 8)
            .temporal(1, "K", 8)
            .buildComplete();
    };
    auto metricsFor = [](double cycles, double energy) {
        MetricVector m;
        m.at(Metric::Cycles) = cycles;
        m.at(Metric::Energy) = energy;
        m.at(Metric::Edp) = cycles * energy;
        return m;
    };
    // a: better EDP (200); b: better energy (EDP 300).
    Mapping a = mappingWithTile(2);
    Mapping b = mappingWithTile(4);
    WarmStartPool pool;
    pool.record(a, metricsFor(10.0, 20.0), 200.0);
    pool.record(b, metricsFor(30.0, 10.0), 300.0);

    // Recorded (EDP) ranking: a first.
    std::vector<Mapping> by_edp = pool.elites();
    ASSERT_EQ(by_edp.size(), 2u);
    EXPECT_EQ(by_edp[0], a);

    // An energy-minimizing consumer sees b first.
    std::vector<Mapping> by_energy =
        pool.elites(ObjectiveSpec::single(Metric::Energy));
    EXPECT_EQ(by_energy[0], b);
}

} // namespace
} // namespace sparseloop
