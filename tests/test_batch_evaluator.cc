/**
 * @file
 * Tests for the batch evaluator: batched results must be bit-identical
 * to uncached sequential evaluation at every thread count, duplicates
 * must deduplicate, dense prefixes must group, caches must be shared,
 * and engine errors must stay on their points.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/designs.hh"
#include "common/logging.hh"
#include "density/actual_data.hh"
#include "mapper/mapper.hh"
#include "model/batch_evaluator.hh"
#include "tensor/generate.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

Architecture
batchArch()
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = 16.0;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = 64 * 1024;
    buf.bandwidth_words_per_cycle = 32.0;
    buf.fanout = 16;
    return Architecture("batch-test", {dram, buf}, ComputeSpec{});
}

/** A small (mappings x SAF specs) sweep over one workload. */
struct Sweep
{
    Workload workload;
    std::vector<Mapping> mappings;
    std::vector<SafSpec> safs;
    std::vector<EvalPoint> points;

    explicit Sweep(const Architecture &arch)
        : workload(makeMatmul(32, 32, 32))
    {
        bindUniformDensities(workload, {{"A", 0.2}, {"B", 0.2}});
        for (std::int64_t spatial : {16, 8, 4}) {
            mappings.push_back(MappingBuilder(workload, arch)
                                   .temporal(0, "M", 32)
                                   .spatial(1, "N", spatial)
                                   .temporal(1, "N", 32 / spatial)
                                   .temporal(1, "K", 32)
                                   .buildComplete());
        }
        int A = workload.tensorIndex("A");
        int B = workload.tensorIndex("B");
        for (SafKind kind : {SafKind::Skip, SafKind::Gate}) {
            for (const TensorFormat &fmt : {makeCsr(), makeCoo(2)}) {
                SafSpec spec;
                spec.addFormat(1, A, fmt);
                if (kind == SafKind::Skip) {
                    spec.addSkip(1, B, {A});
                } else {
                    spec.addGate(1, B, {A});
                }
                safs.push_back(std::move(spec));
            }
        }
        for (const Mapping &m : mappings) {
            for (const SafSpec &s : safs) {
                points.push_back({&workload, &m, &s});
            }
        }
    }
};

TEST(BatchEvaluator, MatchesSequentialAcrossThreadCounts)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    Engine engine(arch);
    std::vector<EvalResult> expected;
    for (const EvalPoint &p : sweep.points) {
        expected.push_back(
            engine.evaluate(*p.workload, *p.mapping, *p.safs));
    }
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        BatchEvaluatorOptions opts;
        opts.num_threads = threads;
        BatchEvaluator evaluator(engine, nullptr, opts);
        std::vector<EvalResult> results =
            evaluator.evaluateBatch(sweep.points);
        ASSERT_EQ(results.size(), expected.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_TRUE(bitIdentical(expected[i], results[i]))
                << "point " << i;
        }
    }
}

TEST(BatchEvaluator, DeduplicatesAndGroupsByDensePrefix)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    // Submit the sweep twice over: half the points are duplicates.
    std::vector<EvalPoint> doubled = sweep.points;
    doubled.insert(doubled.end(), sweep.points.begin(),
                   sweep.points.end());

    BatchEvaluator evaluator{Engine(arch)};
    BatchStats stats;
    std::vector<EvalResult> results =
        evaluator.evaluateBatch(doubled, &stats);
    EXPECT_EQ(stats.points,
              static_cast<std::int64_t>(doubled.size()));
    EXPECT_EQ(stats.unique_points,
              static_cast<std::int64_t>(sweep.points.size()));
    // One dense group per distinct mapping: the SAF axis shares Step 1.
    EXPECT_EQ(stats.dense_groups,
              static_cast<std::int64_t>(sweep.mappings.size()));
    // Duplicate inputs receive bit-identical outputs.
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        EXPECT_TRUE(bitIdentical(results[i],
                                 results[i + sweep.points.size()]));
    }
    // The cache only ever computed the unique points.
    EvalCacheStats cs = evaluator.cache().stats();
    EXPECT_EQ(cs.result_entries, sweep.points.size());
    EXPECT_EQ(cs.dense_entries, sweep.mappings.size());
}

TEST(BatchEvaluator, SecondBatchIsServedFromCache)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    BatchEvaluator evaluator{Engine(arch)};
    std::vector<EvalResult> first =
        evaluator.evaluateBatch(sweep.points);
    EvalCacheStats before = evaluator.cache().stats();
    std::vector<EvalResult> second =
        evaluator.evaluateBatch(sweep.points);
    EvalCacheStats after = evaluator.cache().stats();
    EXPECT_EQ(after.result_misses, before.result_misses);
    EXPECT_EQ(after.result_hits - before.result_hits,
              static_cast<std::int64_t>(sweep.points.size()));
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(bitIdentical(first[i], second[i]));
    }
}

TEST(BatchEvaluator, SingleEvaluateSharesTheCache)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    BatchEvaluator evaluator{Engine(arch)};
    EvalResult single = evaluator.evaluate(
        sweep.workload, sweep.mappings[0], sweep.safs[0]);
    // The batch then hits the single-point entry.
    EvalCacheStats before = evaluator.cache().stats();
    std::vector<EvalResult> results =
        evaluator.evaluateBatch(sweep.points);
    EvalCacheStats after = evaluator.cache().stats();
    EXPECT_GT(after.result_hits, before.result_hits);
    EXPECT_TRUE(bitIdentical(single, results[0]));
}

TEST(BatchEvaluator, SharedCacheLinksMapperAndBatch)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    auto cache = std::make_shared<EvalCache>();
    BatchEvaluator evaluator(Engine(arch), cache);
    evaluator.evaluateBatch(sweep.points);

    // A mapper over the same workload/SAFs reuses the shared cache; a
    // batch re-run after the search stays bit-identical.
    MapperOptions opts;
    opts.samples = 50;
    opts.cache = cache;
    Mapper mapper(sweep.workload, arch, sweep.safs[0], opts);
    MapperResult searched = mapper.search();
    ASSERT_TRUE(searched.found);
    MapperResult plain_opts_result =
        Mapper(sweep.workload, arch, sweep.safs[0],
               [&] {
                   MapperOptions p = opts;
                   p.cache = nullptr;
                   return p;
               }())
            .search();
    EXPECT_TRUE(bitIdentical(searched.eval, plain_opts_result.eval));

    std::vector<EvalResult> again =
        evaluator.evaluateBatch(sweep.points);
    Engine engine(arch);
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        const EvalPoint &p = sweep.points[i];
        EXPECT_TRUE(bitIdentical(
            again[i],
            engine.evaluate(*p.workload, *p.mapping, *p.safs)));
    }
}

TEST(BatchEvaluator, NullPointComponentsAreFatal)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    BatchEvaluator evaluator{Engine(arch)};
    std::vector<EvalPoint> points{{&sweep.workload, nullptr, nullptr}};
    EXPECT_THROW(evaluator.evaluateBatch(points), FatalError);
}

TEST(BatchEvaluator, MalformedMappingPropagatesFromWorkers)
{
    Architecture arch = batchArch();
    Sweep sweep(arch);
    // A nest whose loop bounds don't cover the workload dims.
    Mapping broken(std::vector<LevelNest>{
        LevelNest{{Loop{0, 7, false}}, {}}, LevelNest{{}, {}}});
    std::vector<EvalPoint> points = sweep.points;
    points.push_back({&sweep.workload, &broken, &sweep.safs[0]});
    BatchEvaluatorOptions opts;
    opts.num_threads = 4;
    BatchEvaluator evaluator(Engine(arch), nullptr, opts);
    EXPECT_THROW(evaluator.evaluateBatch(points), FatalError);
}

/**
 * Ten points over six sampled mappings: two duplicates, an empty
 * `Mapping()` at index 2 and a one-level mapping last. The engine
 * throws `FatalError` on both malformed mappings.
 */
struct MixedBatch
{
    Architecture arch = batchArch();
    Sweep sweep{arch};
    std::vector<Mapping> sampled;
    Mapping empty;
    Mapping one_level{
        std::vector<LevelNest>{LevelNest{{Loop{0, 32, false}}, {}}}};
    std::vector<const Mapping *> mappings;

    MixedBatch()
    {
        MapSpace space(sweep.workload, arch);
        for (std::uint64_t seed = 1; sampled.size() < 6; ++seed) {
            Mapping m = space.sampleMapping(seed);
            if (std::find(sampled.begin(), sampled.end(), m) ==
                sampled.end()) {
                sampled.push_back(std::move(m));
            }
        }
        const std::vector<Mapping> &s = sampled;
        mappings = {&s[0], &s[1], &empty, &s[2], &s[3],
                    &s[0], &s[4], &s[5], &s[1], &one_level};
    }

    const Workload &workload() const { return sweep.workload; }
    const SafSpec &safs() const { return sweep.safs[0]; }
};

TEST(BatchEvaluator, MalformedMappingIsInvalidWithoutRetry)
{
    MixedBatch batch;
    Engine engine(batch.arch);
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        BatchEvaluatorOptions opts;
        opts.num_threads = threads;
        BatchEvaluator evaluator(engine, nullptr, opts);
        BatchStats stats;
        std::vector<EvalResult> results = evaluator.evaluateMappings(
            batch.workload(), batch.mappings, batch.safs(), &stats);
        ASSERT_EQ(results.size(), batch.mappings.size());
        std::vector<std::size_t> failed;
        for (std::size_t i = 0; i < results.size(); ++i) {
            try {
                EvalResult expected = engine.evaluate(
                    batch.workload(), *batch.mappings[i], batch.safs());
                EXPECT_TRUE(bitIdentical(expected, results[i]))
                    << "point " << i;
            } catch (const FatalError &err) {
                failed.push_back(i);
                EXPECT_FALSE(results[i].valid) << "point " << i;
                EXPECT_EQ(results[i].invalid_reason, err.what())
                    << "point " << i;
            }
        }
        EXPECT_EQ(failed, (std::vector<std::size_t>{2, 9}));
        // One pass over the 8 distinct points: no point-wise retry.
        EXPECT_EQ(stats.points, 10);
        EXPECT_EQ(stats.unique_points, 8);
        EXPECT_EQ(stats.dense_groups, 8);
        EvalCacheStats cs = evaluator.cache().stats();
        EXPECT_EQ(cs.result_hits + cs.result_misses, 8);
    }
}

TEST(BatchEvaluator, OutOfRangeLeaderIsInvalidAtEveryPoint)
{
    // A SAF spec whose leader is outside the tensor list, or whose
    // format has no ranks, fails Step 2 on every mapping; each point
    // carries the engine's message.
    Architecture arch = batchArch();
    Sweep sweep(arch);
    SafSpec bad_leader;
    bad_leader.addSkip(1, sweep.workload.tensorIndex("B"), {7});
    SafSpec rankless;
    rankless.addFormat(0, sweep.workload.tensorIndex("A"),
                       TensorFormat());
    Engine engine(arch);
    std::vector<const Mapping *> mappings;
    for (const Mapping &m : sweep.mappings) {
        mappings.push_back(&m);
    }
    for (const auto &[bad, named] :
         {std::make_pair(bad_leader, std::string("leader tensor 7")),
          std::make_pair(rankless, std::string("has no ranks"))}) {
        SCOPED_TRACE(named);
        std::string expected;
        try {
            engine.evaluate(sweep.workload, sweep.mappings[0], bad);
        } catch (const FatalError &err) {
            expected = err.what();
        }
        ASSERT_NE(expected.find(named), std::string::npos) << expected;
        for (int threads : {1, 4}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            BatchEvaluatorOptions opts;
            opts.num_threads = threads;
            BatchEvaluator evaluator(engine, nullptr, opts);
            std::vector<EvalResult> results =
                evaluator.evaluateMappings(sweep.workload, mappings, bad);
            ASSERT_EQ(results.size(), mappings.size());
            for (std::size_t i = 0; i < results.size(); ++i) {
                EXPECT_FALSE(results[i].valid) << "point " << i;
                EXPECT_EQ(results[i].invalid_reason, expected)
                    << "point " << i;
            }
        }
    }
}

TEST(BatchEvaluator, WrongRankActualDataIsInvalid)
{
    // A rank-3 tensor bound to the rank-2 A: the point comes back
    // invalid with the engine's message instead of aborting the batch.
    Workload w = makeMatmul(16, 16, 16);
    w.setDensity("A", makeActualDataDensity(std::make_shared<SparseTensor>(
                          generateUniform({2, 8, 16}, 0.3, 1))));
    apps::DesignPoint d = apps::buildBitmaskDesign(w);
    Engine engine(d.arch);
    std::string expected;
    try {
        engine.evaluate(w, d.mapping, d.safs);
    } catch (const FatalError &err) {
        expected = err.what();
    }
    ASSERT_NE(expected.find("rank-3"), std::string::npos) << expected;
    std::vector<EvalResult> results =
        BatchEvaluator(engine).evaluateMappings(w, {&d.mapping}, d.safs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].valid);
    EXPECT_EQ(results[0].invalid_reason, expected);
}

TEST(BatchEvaluator, FirstFailureInInputOrderIsThrown)
{
    MixedBatch batch;
    Engine engine(batch.arch);
    std::string expected;
    try {
        engine.evaluate(batch.workload(), batch.empty, batch.safs());
    } catch (const FatalError &err) {
        expected = err.what();
    }
    ASSERT_NE(expected.find("mapping has 0 subnests"), std::string::npos)
        << expected;
    std::vector<EvalPoint> points;
    std::vector<EvalPoint> good;
    for (const Mapping *m : batch.mappings) {
        EvalPoint p{&batch.workload(), m, &batch.safs()};
        points.push_back(p);
        if (m != &batch.empty && m != &batch.one_level) {
            good.push_back(p);
        }
    }
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        BatchEvaluatorOptions opts;
        opts.num_threads = threads;
        BatchEvaluator evaluator(engine, nullptr, opts);
        try {
            evaluator.evaluateBatch(points);
            FAIL() << "expected FatalError";
        } catch (const FatalError &err) {
            EXPECT_EQ(std::string(err.what()), expected);
        }
        // The good points were evaluated and cached before the throw.
        EvalCacheStats before = evaluator.cache().stats();
        evaluator.evaluateBatch(good);
        EvalCacheStats after = evaluator.cache().stats();
        EXPECT_EQ(after.result_misses, before.result_misses);
        EXPECT_EQ(after.result_hits - before.result_hits, 6);
    }
}

TEST(BatchEvaluator, ThreadCountClampsToJobs)
{
    BatchEvaluatorOptions opts;
    opts.num_threads = 16;
    BatchEvaluator evaluator{Engine(batchArch()), nullptr, opts};
    EXPECT_EQ(evaluator.threadCount(3), 3);
    EXPECT_EQ(evaluator.threadCount(100), 16);
    EXPECT_EQ(evaluator.threadCount(0), 1);
}

} // namespace
} // namespace sparseloop
