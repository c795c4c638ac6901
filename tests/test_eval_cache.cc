/**
 * @file
 * Tests for the evaluation-cache subsystem: signature/key semantics
 * (distinct designs get distinct keys, semantically identical designs
 * share them), cache hit/miss bookkeeping, bit-identity of the cached
 * evaluation path, concurrent correctness, and the mapper wiring.
 */

#include <gtest/gtest.h>

#include <thread>

#include "density/structured.hh"
#include "mapper/mapper.hh"
#include "model/eval_cache.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

Architecture
testArch()
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
    return Architecture("cache-test", {dram, buf}, ComputeSpec{});
}

Workload
testWorkload(double density = 0.25)
{
    Workload w = makeMatmul(32, 32, 32);
    bindUniformDensities(w, {{"A", density}});
    return w;
}

Mapping
testMapping(const Workload &w, const Architecture &arch,
            std::int64_t spatial_n = 16)
{
    return MappingBuilder(w, arch)
        .temporal(0, "M", 32)
        .spatial(1, "N", spatial_n)
        .temporal(1, "N", 32 / spatial_n)
        .temporal(1, "K", 32)
        .buildComplete();
}

SafSpec
testSafs(const Workload &w)
{
    SafSpec safs;
    safs.addFormat(1, w.tensorIndex("A"), makeCsr())
        .addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});
    return safs;
}

TEST(Signatures, EqualInputsShareSignatures)
{
    Architecture arch = testArch();
    Workload w1 = testWorkload();
    Workload w2 = testWorkload();
    EXPECT_EQ(w1.signature(), w2.signature());
    EXPECT_EQ(testMapping(w1, arch).signature(),
              testMapping(w2, arch).signature());
    EXPECT_EQ(testSafs(w1).signature(), testSafs(w2).signature());
    Engine engine(arch);
    EXPECT_EQ(EvalKey::of(engine, w1, testMapping(w1, arch), testSafs(w1)),
              EvalKey::of(engine, w2, testMapping(w2, arch),
                          testSafs(w2)));
}

TEST(Signatures, DistinctMappingsGetDistinctKeys)
{
    Architecture arch = testArch();
    Workload w = testWorkload();
    Mapping m16 = testMapping(w, arch, 16);
    Mapping m8 = testMapping(w, arch, 8);
    EXPECT_NE(m16.signature(), m8.signature());
    SafSpec safs = testSafs(w);
    Engine engine(arch);
    EXPECT_NE(EvalKey::of(engine, w, m16, safs),
              EvalKey::of(engine, w, m8, safs));
    // Same loops, different keep mask: also distinct.
    Mapping kept = m16;
    kept.level(1).keep.assign(static_cast<std::size_t>(w.tensorCount()),
                              true);
    kept.level(1).keep[static_cast<std::size_t>(w.tensorIndex("B"))] =
        false;
    EXPECT_NE(m16.signature(), kept.signature());
}

TEST(Signatures, DistinctSafSpecsGetDistinctKeys)
{
    Workload w = testWorkload();
    SafSpec base = testSafs(w);
    SafSpec gate = base;
    gate.intersections[0].kind = SafKind::Gate;
    EXPECT_NE(base.signature(), gate.signature());

    SafSpec coo = base;
    coo.formats[0].format = makeCoo(2);
    EXPECT_NE(base.signature(), coo.signature());

    SafSpec with_compute = base;
    with_compute.addComputeSaf(SafKind::Skip);
    EXPECT_NE(base.signature(), with_compute.signature());

    SafSpec other_level = base;
    other_level.formats[0].level = 0;
    EXPECT_NE(base.signature(), other_level.signature());
}

TEST(Signatures, EngineConfigurationIsPartOfTheKey)
{
    Architecture arch = testArch();
    Workload w = testWorkload();
    Mapping m = testMapping(w, arch);
    SafSpec safs = testSafs(w);

    // Same structure, different decorative name: same engine identity.
    Architecture renamed("other-name", arch.levels(), arch.compute());
    EXPECT_EQ(Engine(arch).signature(), Engine(renamed).signature());

    // Level names are NOT decorative — they surface in EvalResult
    // level records — so renaming a level splits the key.
    Architecture level_renamed = arch;
    level_renamed.level(1).name = "L1";
    EXPECT_NE(Engine(arch).signature(),
              Engine(level_renamed).signature());

    // A structural difference (buffer capacity) changes the key, so a
    // shared cache can never cross-serve the two engines.
    Architecture bigger = arch;
    bigger.level(1).capacity_words = 128 * 1024;
    EXPECT_NE(Engine(arch).signature(), Engine(bigger).signature());
    EXPECT_NE(EvalKey::of(Engine(arch), w, m, safs),
              EvalKey::of(Engine(bigger), w, m, safs));

    // EngineOptions differences split the key too.
    EngineOptions opts;
    opts.check_capacity = false;
    EXPECT_NE(Engine(arch).signature(), Engine(arch, opts).signature());
}

TEST(Signatures, FormatNameIsIgnoredButStructureIsNot)
{
    TensorFormat csr = makeCsr();
    TensorFormat renamed(csr.ranks(), "my-csr");
    EXPECT_EQ(csr.signature(), renamed.signature());
    EXPECT_NE(makeCsr().signature(), makeCoo(2).signature());
    EXPECT_NE(makeBitmask(1).signature(), makeBitmask(2).signature());
}

TEST(Signatures, DensityChangesWorkloadSignature)
{
    Workload sparse = testWorkload(0.25);
    Workload sparser = testWorkload(0.1);
    EXPECT_NE(sparse.signature(), sparser.signature());
    // Same parameters, separately-constructed models: equal again
    // (hypergeometric identity is (N, K), not object identity).
    EXPECT_EQ(testWorkload(0.1).signature(), sparser.signature());
    // Structured overrides hash the (n, m) pattern.
    Workload s24 = makeMatmul(32, 32, 32);
    s24.setDensity("A", makeStructuredDensity(2, 4));
    Workload s14 = makeMatmul(32, 32, 32);
    s14.setDensity("A", makeStructuredDensity(1, 4));
    EXPECT_NE(s24.signature(), s14.signature());
}

TEST(EvalCacheStore, FindStoreAndStats)
{
    EvalCache cache;
    Architecture arch = testArch();
    Workload w = testWorkload();
    Mapping m = testMapping(w, arch);
    SafSpec safs = testSafs(w);
    Engine engine(arch);
    EvalKey key = EvalKey::of(engine, w, m, safs);

    EXPECT_EQ(cache.findResult(key), nullptr);
    auto result = std::make_shared<const EvalResult>(
        engine.evaluate(w, m, safs));
    cache.storeResult(key, result);
    EXPECT_EQ(cache.findResult(key), result);

    DenseKey dkey = key.densePrefix();
    EXPECT_EQ(cache.findDense(dkey), nullptr);
    auto dense = std::make_shared<const DenseTraffic>(
        engine.analyzeDataflow(w, m));
    cache.storeDense(dkey, dense);
    EXPECT_EQ(cache.findDense(dkey), dense);

    EvalCacheStats stats = cache.stats();
    EXPECT_EQ(stats.result_hits, 1);
    EXPECT_EQ(stats.result_misses, 1);
    EXPECT_EQ(stats.dense_hits, 1);
    EXPECT_EQ(stats.dense_misses, 1);
    EXPECT_EQ(stats.result_entries, 1u);
    EXPECT_EQ(stats.dense_entries, 1u);
    EXPECT_DOUBLE_EQ(stats.resultHitRate(), 0.5);

    cache.clear();
    stats = cache.stats();
    EXPECT_EQ(stats.result_hits, 0);
    EXPECT_EQ(stats.result_entries, 0u);
    EXPECT_EQ(cache.findResult(key), nullptr);
}

TEST(EvalCacheStore, EvictionKeepsShardsBounded)
{
    EvalCache cache;
    auto result = std::make_shared<const EvalResult>();
    for (std::uint64_t i = 0; i < 200000; ++i) {
        cache.storeResult({i, i + 1, i + 2}, result);
    }
    // 16 shards of at most 4096 entries each.
    EXPECT_LE(cache.stats().result_entries, 65536u);
}

TEST(EvalCacheStore, CachedEvaluationIsBitIdentical)
{
    Architecture arch = testArch();
    Workload w = testWorkload();
    Mapping m = testMapping(w, arch);
    SafSpec safs = testSafs(w);
    Engine engine(arch);
    EvalCache cache;

    EvalResult uncached = engine.evaluate(w, m, safs);
    EvalResult miss = evaluateCached(engine, cache, w, m, safs);
    EvalResult hit = evaluateCached(engine, cache, w, m, safs);
    EXPECT_TRUE(bitIdentical(uncached, miss));
    EXPECT_TRUE(bitIdentical(uncached, hit));

    EvalCacheStats stats = cache.stats();
    EXPECT_EQ(stats.result_hits, 1);
    EXPECT_EQ(stats.result_misses, 1);

    // A dense-level hit with a fresh SAF spec: result misses, Step 1
    // is served from the cache.
    SafSpec gate = safs;
    gate.intersections[0].kind = SafKind::Gate;
    EvalResult other = evaluateCached(engine, cache, w, m, gate);
    EXPECT_TRUE(bitIdentical(other, engine.evaluate(w, m, gate)));
    stats = cache.stats();
    EXPECT_EQ(stats.result_misses, 2);
    EXPECT_EQ(stats.dense_hits, 1);
    EXPECT_EQ(stats.dense_misses, 1);
}

TEST(EvalCacheStore, BitIdenticalDetectsDivergence)
{
    Architecture arch = testArch();
    Workload w = testWorkload();
    Mapping m = testMapping(w, arch);
    Engine engine(arch);
    EvalResult a = engine.evaluate(w, m, testSafs(w));
    EvalResult b = a;
    EXPECT_TRUE(bitIdentical(a, b));
    b.cycles += 1.0;
    EXPECT_FALSE(bitIdentical(a, b));
    b = a;
    b.sparse.computes.skipped += 1.0;
    EXPECT_FALSE(bitIdentical(a, b));
}

TEST(EvalCacheStore, ConcurrentHitsAndMissesStayCorrect)
{
    Architecture arch = testArch();
    Workload w = testWorkload();
    Engine engine(arch);
    EvalCache cache;

    // Reference results for four distinct designs.
    std::vector<Mapping> mappings{testMapping(w, arch, 16),
                                  testMapping(w, arch, 8),
                                  testMapping(w, arch, 4),
                                  testMapping(w, arch, 2)};
    SafSpec safs = testSafs(w);
    std::vector<EvalResult> expected;
    for (const Mapping &m : mappings) {
        expected.push_back(engine.evaluate(w, m, safs));
    }

    // Hammer the cache from 8 threads, each evaluating all designs
    // repeatedly; every result must stay bit-identical.
    std::vector<int> failures(8, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
        pool.emplace_back([&, t] {
            for (int rep = 0; rep < 25; ++rep) {
                for (std::size_t i = 0; i < mappings.size(); ++i) {
                    EvalResult r = evaluateCached(engine, cache, w,
                                                  mappings[i], safs);
                    if (!bitIdentical(r, expected[i])) {
                        ++failures[t];
                    }
                }
            }
        });
    }
    for (auto &worker : pool) {
        worker.join();
    }
    for (int t = 0; t < 8; ++t) {
        EXPECT_EQ(failures[t], 0) << "thread " << t;
    }
    EvalCacheStats stats = cache.stats();
    EXPECT_EQ(stats.result_hits + stats.result_misses, 8 * 25 * 4);
    EXPECT_GE(stats.result_hits, 8 * 25 * 4 - 4 * 8);
    EXPECT_LE(stats.result_entries, 4u * 8u);
}

TEST(MapperCache, SearchWithCacheIsBitIdentical)
{
    Workload w = testWorkload(0.1);
    Architecture arch = testArch();
    SafSpec safs = testSafs(w);
    MapperOptions plain;
    plain.samples = 200;
    MapperResult reference = Mapper(w, arch, safs, plain).search();
    ASSERT_TRUE(reference.found);

    MapperOptions cached_opts = plain;
    cached_opts.cache = std::make_shared<EvalCache>();
    Mapper cached(w, arch, safs, cached_opts);
    MapperResult first = cached.search();
    ASSERT_TRUE(first.found);
    EXPECT_TRUE(bitIdentical(reference.eval, first.eval));
    EXPECT_EQ(reference.candidates_evaluated,
              first.candidates_evaluated);
    EXPECT_EQ(reference.candidates_valid, first.candidates_valid);
    EXPECT_EQ(reference.mapping.signature(), first.mapping.signature());

    // Restarting the same search hits the cache for every candidate
    // (identical seed -> identical samples) and still returns the
    // same winner.
    EvalCacheStats before = cached_opts.cache->stats();
    MapperResult second = cached.search();
    EvalCacheStats after = cached_opts.cache->stats();
    EXPECT_TRUE(bitIdentical(first.eval, second.eval));
    EXPECT_EQ(after.result_misses, before.result_misses);
    EXPECT_GT(after.result_hits, before.result_hits);
}

TEST(MapperCache, ParallelSearchSharesCacheAcrossThreads)
{
    Workload w = testWorkload(0.1);
    Architecture arch = testArch();
    SafSpec safs = testSafs(w);
    MapperOptions opts;
    opts.samples = 200;
    MapperResult reference = Mapper(w, arch, safs, opts).search();
    ASSERT_TRUE(reference.found);

    opts.cache = std::make_shared<EvalCache>();
    MapperResult par = Mapper(w, arch, safs, opts).searchWithThreads(4);
    ASSERT_TRUE(par.found);
    EXPECT_TRUE(bitIdentical(reference.eval, par.eval));
    EXPECT_EQ(reference.mapping.signature(), par.mapping.signature());

    // A second parallel search over the shared cache is all hits.
    EvalCacheStats before = opts.cache->stats();
    MapperResult again =
        Mapper(w, arch, safs, opts).searchWithThreads(4);
    EvalCacheStats after = opts.cache->stats();
    EXPECT_TRUE(bitIdentical(reference.eval, again.eval));
    EXPECT_EQ(after.result_misses, before.result_misses);
    EXPECT_GT(after.result_hits, before.result_hits);
}

} // namespace
} // namespace sparseloop
