/**
 * @file
 * Tests for the pluggable search strategies and the batched driver:
 * bit-identity of RandomSearch with the pre-IR rejection-sampling
 * mapper, exhaustive optimality on small spaces, constraint honoring
 * under every strategy, per-strategy determinism across repeated runs
 * and 1/4/8 evaluation threads (annealing and genetic included),
 * batch-size independence of the round-streamed strategies, pinned
 * hybrid, annealing and genetic results, the fallback of every
 * round-based strategy to random search on a non-encodable space,
 * warm starts through WarmStartPool, and the distinguishable
 * all-invalid outcome.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "mapper/mapper.hh"
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

/** DRAM over a 16K-word L2 over a 4K-word L1. */
Architecture
deepArch()
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = 16.0;
    StorageLevelSpec l2;
    l2.name = "L2";
    l2.capacity_words = 16384;
    l2.bandwidth_words_per_cycle = 8.0;
    StorageLevelSpec l1;
    l1.name = "L1";
    l1.capacity_words = 4096;
    l1.bandwidth_words_per_cycle = 8.0;
    return Architecture("deep", {dram, l2, l1}, ComputeSpec{});
}

/**
 * The pre-IR candidate derivation, verbatim: divisor peeling from the
 * innermost level up with the residual at level 0, a Fisher-Yates
 * order shuffle, and a uniform spatial pick. RandomSearch must
 * reproduce its unconstrained results bit-identically.
 */
std::optional<Mapping>
legacySampleMapping(const Workload &w, const Architecture &arch,
                    std::uint64_t seed)
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
        std::vector<int> dims;
        for (int d = 0; d < D; ++d) {
            if (factors[l][d] > 1) {
                dims.push_back(d);
            }
        }
        std::shuffle(dims.begin(), dims.end(), rng);
        int spatial_dim = -1;
        if (arch.level(l).fanout > 1) {
            std::vector<int> candidates;
            for (int d : dims) {
                if (factors[l][d] <= arch.level(l).fanout) {
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
    }
    return Mapping(std::move(nests));
}

void
expectIdentical(const MapperResult &a, const MapperResult &b)
{
    ASSERT_EQ(a.found, b.found);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
    EXPECT_EQ(a.candidates_valid, b.candidates_valid);
    if (!a.found) {
        return;
    }
    EXPECT_EQ(a.mapping, b.mapping);
    EXPECT_TRUE(bitIdentical(a.eval, b.eval));
}

TEST(RandomSearch, BitIdenticalToLegacyRejectionSampler)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 300;
    opts.strategy = SearchStrategyKind::Random;
    // The pre-IR sampler predates the bypass axis: close it so the
    // RNG streams line up draw for draw.
    opts.mapspace.explore_bypass = false;

    // Replay the pre-IR search loop: sequential scan keeping the first
    // strictly-better candidate.
    Engine engine(arch);
    MapperResult legacy;
    double best_obj = std::numeric_limits<double>::infinity();
    for (int i = 0; i < opts.samples; ++i) {
        auto candidate = legacySampleMapping(w, arch, opts.seed + i);
        ASSERT_TRUE(candidate.has_value());
        ++legacy.candidates_evaluated;
        EvalResult eval = engine.evaluate(w, *candidate, none);
        if (!eval.valid) {
            continue;
        }
        ++legacy.candidates_valid;
        if (eval.edp() < best_obj) {
            legacy.found = true;
            legacy.mapping = *candidate;
            legacy.eval = eval;
            best_obj = eval.edp();
        }
    }
    ASSERT_TRUE(legacy.found);

    MapperResult r = Mapper(w, arch, none, opts).search();
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.strategy, "random");
    EXPECT_EQ(r.candidates_evaluated, legacy.candidates_evaluated);
    EXPECT_EQ(r.candidates_valid, legacy.candidates_valid);
    EXPECT_EQ(r.mapping, legacy.mapping);
    EXPECT_TRUE(bitIdentical(r.eval, legacy.eval));
}

TEST(RandomSearch, ConstrainedSearchSpendsTheWholeBudget)
{
    Workload w = makeMatmul(64, 64, 64);
    Architecture arch = searchArch();
    SafSpec none;
    MapspaceConstraints cons;
    cons.levels.resize(2);
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    MapperOptions opts;
    opts.samples = 400;
    opts.strategy = SearchStrategyKind::Random;
    MapperResult r = Mapper(w, arch, none, opts, cons).search();
    ASSERT_TRUE(r.found);
    // Pruning by construction: every drawn candidate reaches the
    // engine — none of the budget is burned on rejected draws.
    EXPECT_EQ(r.candidates_evaluated, opts.samples);
    Mapper probe(w, arch, none, opts, cons);
    EXPECT_TRUE(probe.mapspace().satisfies(r.mapping));
}

TEST(ExhaustiveSearch, FindsTheProvableOptimumWhereRandomCanMiss)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    SafSpec none;
    MapspaceConstraints cons;
    cons.levels.resize(2);
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};

    MapperOptions opts;
    // Room for the open bypass axis (x8 keep masks at the buffer):
    // the space must still fit the budget for Auto to go exhaustive.
    opts.samples = 4000;
    MapperResult r = Mapper(w, arch, none, opts, cons).search();
    ASSERT_TRUE(r.found);
    // Auto upgrades to exhaustive: the pruned space fits the budget.
    EXPECT_EQ(r.strategy, "exhaustive");
    ASSERT_GE(r.mapspace_size.enumerable, 0);
    ASSERT_LE(r.mapspace_size.enumerable, opts.samples);
    EXPECT_EQ(r.candidates_evaluated, r.mapspace_size.enumerable);

    // Brute-force reference: the minimum EDP over the whole space.
    Mapper probe(w, arch, none, opts, cons);
    const MapSpace &space = probe.mapspace();
    Engine engine(arch);
    double best = std::numeric_limits<double>::infinity();
    for (std::int64_t i = 0; i < space.size().enumerable; ++i) {
        EvalResult eval = engine.evaluate(w, space.mappingAt(i), none);
        if (eval.valid) {
            best = std::min(best, eval.edp());
        }
    }
    EXPECT_DOUBLE_EQ(r.eval.edp(), best);

    // A random search with the same budget is at best as good — and
    // with a smaller budget it provably can miss the optimum.
    MapperOptions rnd = opts;
    rnd.strategy = SearchStrategyKind::Random;
    MapperResult rr = Mapper(w, arch, none, rnd, cons).search();
    ASSERT_TRUE(rr.found);
    EXPECT_GE(rr.eval.edp(), r.eval.edp());
    bool random_missed = false;
    for (std::uint64_t seed = 0; seed < 8 && !random_missed; ++seed) {
        MapperOptions small = rnd;
        small.samples = 40;
        small.seed = seed * 1000003;
        MapperResult sr = Mapper(w, arch, none, small, cons).search();
        random_missed = !sr.found || sr.eval.edp() > best;
    }
    EXPECT_TRUE(random_missed);
}

TEST(SearchStrategies, ConstraintsHonoredUnderEveryStrategy)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    SafSpec none;
    MapspaceConstraints cons;
    cons.levels.resize(2);
    cons.levels[0].spatial_dims = {w.dimIndex("M")};
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    cons.levels[1].keep = {w.tensorIndex("A"), w.tensorIndex("Z")};

    std::vector<bool> expected_keep(w.tensorCount(), false);
    expected_keep[w.tensorIndex("A")] = true;
    expected_keep[w.tensorIndex("Z")] = true;

    for (SearchStrategyKind kind :
         {SearchStrategyKind::Random, SearchStrategyKind::Exhaustive,
          SearchStrategyKind::Hybrid, SearchStrategyKind::Annealing,
          SearchStrategyKind::Genetic,
          SearchStrategyKind::Hierarchical}) {
        MapperOptions opts;
        opts.samples = 300;
        opts.strategy = kind;
        Mapper mapper(w, arch, none, opts, cons);
        MapperResult r = mapper.search();
        SCOPED_TRACE("strategy=" + r.strategy);
        ASSERT_TRUE(r.found);
        EXPECT_TRUE(mapper.mapspace().satisfies(r.mapping));
        for (const Loop &loop : r.mapping.level(0).loops) {
            if (loop.spatial) {
                EXPECT_EQ(loop.dim, w.dimIndex("M"));
            }
        }
        for (const Loop &loop : r.mapping.level(1).loops) {
            EXPECT_NE(loop.dim, w.dimIndex("N"));
        }
        EXPECT_EQ(r.mapping.level(1).keep, expected_keep);
    }
}

TEST(SearchStrategies, DeterministicAcrossRunsAndThreadsPerStrategy)
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
          SearchStrategyKind::Genetic,
          SearchStrategyKind::Hierarchical}) {
        MapperOptions opts;
        opts.samples = kind == SearchStrategyKind::Exhaustive ? 4000 : 300;
        opts.strategy = kind;
        // One evaluation worker, run twice: same seed -> same result.
        MapperResult seq = Mapper(w, arch, safs, opts, cons).search();
        ASSERT_TRUE(seq.found);
        {
            SCOPED_TRACE("strategy=" + seq.strategy + " repeat-run");
            MapperResult again =
                Mapper(w, arch, safs, opts, cons).search();
            expectIdentical(seq, again);
        }
        // 1 vs 4 vs 8 evaluation workers: bit-identical best mapping.
        for (int threads : {1, 4, 8}) {
            MapperResult par =
                Mapper(w, arch, safs, opts, cons).searchWithThreads(threads);
            SCOPED_TRACE("strategy=" + seq.strategy +
                         " threads=" + std::to_string(threads));
            expectIdentical(seq, par);
        }
    }
}

TEST(SearchStrategies, HybridIsDeterministicAndValid)
{
    Workload w = makeMatmul(32, 32, 32);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 300;
    opts.strategy = SearchStrategyKind::Hybrid;
    MapperResult a = Mapper(w, arch, none, opts).search();
    MapperResult b = Mapper(w, arch, none, opts).search();
    ASSERT_TRUE(a.found);
    EXPECT_EQ(a.strategy, "hybrid");
    expectIdentical(a, b);
    a.mapping.validate(w, arch);
}

TEST(SearchStrategies, HybridResultIsBatchSizeIndependent)
{
    Workload w = makeMatmul(32, 32, 32);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 300;
    opts.strategy = SearchStrategyKind::Hybrid;
    opts.hybrid_warmup = 100;
    opts.batch_size = 256;
    MapperResult big = Mapper(w, arch, none, opts).search();
    opts.batch_size = 17;
    MapperResult small = Mapper(w, arch, none, opts).search();
    ASSERT_TRUE(big.found);
    // batch_size affects wall-clock only: the proposal sequence and
    // the refinement-round boundaries must not depend on it.
    expectIdentical(big, small);
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

TEST(SearchStrategies, HybridResultsArePinned)
{
    // Fixed outcomes of the hybrid proposal sequence (warm points,
    // random windows, neighborhood rounds), so a change to that
    // sequence cannot pass as "still deterministic".
    struct Pinned
    {
        std::uint64_t seed;
        bool warm;
        std::uint64_t signature;
        std::int64_t valid;
        std::uint64_t edp_bits;
    };
    const Pinned pinned[] = {
        {1, false, 0x72d06c835b6b10d2ull, 295, 0x4258180000000000ull},
        {1, true, 0x72d06c835b6b10d2ull, 295, 0x4258180000000000ull},
        {0xC0FFEE, false, 0x1b28b051012aae87ull, 297, 0x4258180000000000ull},
        {0xC0FFEE, true, 0xea00b94fd4c9d2e5ull, 288, 0x425e973333333333ull},
    };
    // 64^3 leaves some candidates over capacity, so the valid count
    // discriminates too.
    Workload w = makeMatmul(64, 64, 64);
    Architecture arch = searchArch();
    SafSpec none;
    for (const Pinned &p : pinned) {
        for (int batch : {1, 256}) {
            MapperOptions opts;
            opts.samples = 300;
            opts.seed = p.seed;
            opts.strategy = SearchStrategyKind::Hybrid;
            opts.batch_size = batch;
            if (p.warm) {
                // Elites of three disjoint random streams.
                auto pool = std::make_shared<WarmStartPool>();
                for (std::uint64_t s : {1000, 2000, 3000}) {
                    MapperOptions fill;
                    fill.samples = 60;
                    fill.seed = s;
                    fill.strategy = SearchStrategyKind::Random;
                    fill.warm_start = pool;
                    Mapper(w, arch, none, fill).search();
                }
                opts.warm_start = pool;
            }
            MapperResult r = Mapper(w, arch, none, opts).search();
            SCOPED_TRACE("seed=" + std::to_string(p.seed) +
                         " warm=" + std::to_string(p.warm) +
                         " batch=" + std::to_string(batch));
            ASSERT_TRUE(r.found);
            EXPECT_EQ(r.warm_start_candidates, p.warm ? 3 : 0);
            EXPECT_EQ(r.mapping.signature(), p.signature);
            EXPECT_EQ(r.candidates_valid, p.valid);
            EXPECT_EQ(doubleBits(r.eval.edp()), p.edp_bits);
        }
    }
}

TEST(SearchStrategies, AnnealingAndGeneticResultsArePinned)
{
    // Fixed outcomes of the annealing chains and the genetic
    // mutations, which both draw through MapSpace::randomNeighbor, so
    // a change to the neighbour order or to the draw cannot pass as
    // "still deterministic". The three spaces between them draw every
    // move family: keep-all (tiling, permutation and spatial moves),
    // bypass open (adds keep moves), and bypass open with the Buffer
    // loop order constrained (constrained levels take no permutation
    // moves and are rebuilt from the constraint by reconcile).
    enum Space { KeepAll, Bypass, ConstrainedOrder };
    constexpr SearchStrategyKind Annealing = SearchStrategyKind::Annealing;
    constexpr SearchStrategyKind Genetic = SearchStrategyKind::Genetic;
    struct Pinned
    {
        SearchStrategyKind kind;
        Space space;
        std::uint64_t seed;
        bool warm;
        std::uint64_t signature;
        std::int64_t valid;
        std::uint64_t edp_bits;
    };
    const Pinned pinned[] = {
        {Annealing, KeepAll, 1, false,
         0x86cafb7509c798cfull, 287, 0x4258999999999999ull},
        {Annealing, KeepAll, 1, true,
         0x28bc12b3462025e9ull, 287, 0x4258999999999999ull},
        {Annealing, KeepAll, 0xC0FFEE, false,
         0x86cafb7509c798cfull, 300, 0x4258999999999999ull},
        {Annealing, KeepAll, 0xC0FFEE, true,
         0x457197ee61d7ca91ull, 287, 0x4258999999999999ull},
        {Annealing, Bypass, 1, false,
         0xf4eeb86b9146824dull, 296, 0x4258180000000000ull},
        {Annealing, Bypass, 1, true,
         0x31ffeb4baa2ecb56ull, 293, 0x4258180000000000ull},
        {Annealing, Bypass, 0xC0FFEE, false,
         0x493903ab52fbb26cull, 300, 0x4258180000000000ull},
        {Annealing, Bypass, 0xC0FFEE, true,
         0xc5993af7323ac240ull, 292, 0x4258673333333333ull},
        {Annealing, ConstrainedOrder, 1, false,
         0x8af69662f5b09a42ull, 299, 0x4258180000000000ull},
        {Annealing, ConstrainedOrder, 1, true,
         0x8af69662f5b09a42ull, 299, 0x4258180000000000ull},
        {Annealing, ConstrainedOrder, 0xC0FFEE, false,
         0xdf07bf670b400238ull, 300, 0x4258673333333333ull},
        {Annealing, ConstrainedOrder, 0xC0FFEE, true,
         0x911adbfa2bda2d7aull, 300, 0x4258180000000000ull},
        {Genetic, KeepAll, 1, false,
         0xfa4e077e2390c433ull, 297, 0x4258999999999999ull},
        {Genetic, KeepAll, 1, true,
         0xfa4e077e2390c433ull, 295, 0x4258999999999999ull},
        {Genetic, KeepAll, 0xC0FFEE, false,
         0xda43e72b49adb3e2ull, 284, 0x4258999999999999ull},
        {Genetic, KeepAll, 0xC0FFEE, true,
         0xda43e72b49adb3e2ull, 298, 0x4258999999999999ull},
        {Genetic, Bypass, 1, false,
         0xf4f8cc2557df6198ull, 300, 0x4258673333333333ull},
        {Genetic, Bypass, 1, true,
         0xea00b94fd4c9d2e5ull, 288, 0x425e973333333333ull},
        {Genetic, Bypass, 0xC0FFEE, false,
         0xa0660ddfaa719e54ull, 296, 0x4258180000000000ull},
        {Genetic, Bypass, 0xC0FFEE, true,
         0xefb3738a171f5d20ull, 289, 0x4258180000000000ull},
        {Genetic, ConstrainedOrder, 1, false,
         0xdf07bf670b400238ull, 300, 0x4258673333333333ull},
        {Genetic, ConstrainedOrder, 1, true,
         0xdf07bf670b400238ull, 299, 0x4258673333333333ull},
        {Genetic, ConstrainedOrder, 0xC0FFEE, false,
         0x8e78b4af1cf418acull, 300, 0x4258673333333333ull},
        {Genetic, ConstrainedOrder, 0xC0FFEE, true,
         0x8e78b4af1cf418acull, 299, 0x4258673333333333ull},
    };
    Workload w = makeMatmul(64, 64, 64);
    Architecture arch = searchArch();
    SafSpec none;
    MapspaceConstraints ordered;
    ordered.levels.resize(2);
    ordered.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    for (const Pinned &p : pinned) {
        MapperOptions base;
        base.mapspace.explore_bypass = p.space != KeepAll;
        const MapspaceConstraints cons =
            p.space == ConstrainedOrder ? ordered : MapspaceConstraints{};
        for (int batch : {1, 256}) {
            MapperOptions opts = base;
            opts.samples = 300;
            opts.seed = p.seed;
            opts.strategy = p.kind;
            opts.batch_size = batch;
            if (p.warm) {
                // Elites of three disjoint random streams.
                auto pool = std::make_shared<WarmStartPool>();
                for (std::uint64_t s : {1000, 2000, 3000}) {
                    MapperOptions fill = base;
                    fill.samples = 60;
                    fill.seed = s;
                    fill.strategy = SearchStrategyKind::Random;
                    fill.warm_start = pool;
                    Mapper(w, arch, none, fill, cons).search();
                }
                opts.warm_start = pool;
            }
            MapperResult r = Mapper(w, arch, none, opts, cons).search();
            SCOPED_TRACE("strategy=" + r.strategy +
                         " space=" + std::to_string(p.space) +
                         " seed=" + std::to_string(p.seed) +
                         " warm=" + std::to_string(p.warm) +
                         " batch=" + std::to_string(batch));
            ASSERT_TRUE(r.found);
            EXPECT_EQ(r.warm_start_candidates, p.warm ? 3 : 0);
            EXPECT_EQ(r.mapping.signature(), p.signature);
            EXPECT_EQ(r.candidates_valid, p.valid);
            EXPECT_EQ(doubleBits(r.eval.edp()), p.edp_bits);
        }
    }
}

TEST(SearchStrategies, NonEncodableSpaceFallsBackToRandomSearch)
{
    // M = 129,729,600 = 2^6 3^4 5^2 7 11 13 has 68,040 ordered
    // factorizations over three levels, more than the 2^16 splits a
    // dimension materializes, so the space cannot encode points:
    // every neighborhood strategy must then return exactly what
    // RandomSearch returns.
    Workload w = makeMatmul(129729600, 4, 4);
    Architecture arch = deepArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 200;
    MapSpace space(w, arch);
    ASSERT_EQ(space.splitCount(w.dimIndex("M")), 68040);
    ASSERT_FALSE(space.pointEncodable());
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{0xC0FFEE}}) {
        opts.seed = seed;
        opts.strategy = SearchStrategyKind::Random;
        MapperResult random = Mapper(w, arch, none, opts).search();
        ASSERT_TRUE(random.found);
        for (SearchStrategyKind kind :
             {SearchStrategyKind::Hybrid, SearchStrategyKind::Annealing,
              SearchStrategyKind::Genetic,
              SearchStrategyKind::Hierarchical}) {
            opts.strategy = kind;
            MapperResult r = Mapper(w, arch, none, opts).search();
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " strategy=" + r.strategy);
            ASSERT_TRUE(r.found);
            EXPECT_EQ(r.mapping, random.mapping);
            EXPECT_EQ(r.candidates_valid, random.candidates_valid);
            EXPECT_EQ(doubleBits(r.eval.edp()),
                      doubleBits(random.eval.edp()));
            // The fronts carry proposal indices, so they also pin the
            // index -> candidate sequence, not just the winner.
            ASSERT_EQ(r.pareto_front.size(), random.pareto_front.size());
            for (std::size_t i = 0; i < r.pareto_front.size(); ++i) {
                EXPECT_EQ(r.pareto_front[i].index,
                          random.pareto_front[i].index);
                EXPECT_EQ(r.pareto_front[i].mapping,
                          random.pareto_front[i].mapping);
            }
        }
    }
}

TEST(SearchStrategies, RoundStrategiesAreBatchSizeIndependent)
{
    Workload w = makeMatmul(32, 32, 32);
    Architecture arch = searchArch();
    SafSpec none;
    for (SearchStrategyKind kind :
         {SearchStrategyKind::Annealing, SearchStrategyKind::Genetic,
          SearchStrategyKind::Hierarchical}) {
        MapperOptions opts;
        opts.samples = 300;
        opts.strategy = kind;
        opts.batch_size = 256;
        MapperResult big = Mapper(w, arch, none, opts).search();
        // 7 deliberately does not divide the annealing round size (8),
        // the genetic population (24), or the hierarchical coarse
        // round (64), so rounds straddle batches.
        opts.batch_size = 7;
        MapperResult small = Mapper(w, arch, none, opts).search();
        ASSERT_TRUE(big.found);
        SCOPED_TRACE("strategy=" + big.strategy);
        // batch_size affects wall-clock only: round contents are fixed
        // up front and all decisions fall at round boundaries.
        expectIdentical(big, small);
        big.mapping.validate(w, arch);
    }
}

TEST(WarmStartPool, RanksDedupesAndBounds)
{
    Workload w = makeMatmul(8, 8, 8);
    Architecture arch = searchArch();
    // Distinct mappings to pool: vary the M tile split (the residual
    // M factor lands at level 0 via buildComplete).
    auto mappingWithTile = [&](std::int64_t m1) {
        return MappingBuilder(w, arch)
            .temporal(1, "M", m1)
            .temporal(1, "N", 8)
            .temporal(1, "K", 8)
            .buildComplete();
    };
    // A metric vector whose EDP carries the recorded scalar (the
    // other metrics are irrelevant to this ranking test).
    auto metricsWithEdp = [](double edp) {
        MetricVector m;
        m.at(Metric::Edp) = edp;
        return m;
    };
    WarmStartPool pool(2);
    Mapping a = mappingWithTile(2);
    Mapping b = mappingWithTile(4);
    Mapping c = mappingWithTile(8);
    pool.record(a, metricsWithEdp(30.0), 30.0);
    pool.record(b, metricsWithEdp(10.0), 10.0);
    EXPECT_EQ(pool.size(), 2u);
    // Best-first ordering.
    EXPECT_EQ(pool.elites().front(), b);
    // Re-recording an equal mapping keeps the better objective instead
    // of duplicating.
    pool.record(b, metricsWithEdp(40.0), 40.0);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.elites().front(), b);
    // Capacity: a better elite evicts the worst.
    pool.record(c, metricsWithEdp(20.0), 20.0);
    EXPECT_EQ(pool.size(), 2u);
    std::vector<Mapping> elites = pool.elites();
    ASSERT_EQ(elites.size(), 2u);
    EXPECT_EQ(elites[0], b);
    EXPECT_EQ(elites[1], c);
}

TEST(WarmStart, RestartNeverLosesTheRecordedElite)
{
    Workload w = makeMatmul(32, 32, 32);
    bindUniformDensities(w, {{"A", 0.1}});
    Architecture arch = searchArch();
    SafSpec safs;
    safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});

    for (SearchStrategyKind kind :
         {SearchStrategyKind::Annealing, SearchStrategyKind::Genetic,
          SearchStrategyKind::Hybrid,
          SearchStrategyKind::Hierarchical}) {
        auto pool = std::make_shared<WarmStartPool>();
        MapperOptions opts;
        opts.samples = 200;
        opts.strategy = kind;
        opts.warm_start = pool;
        MapperResult cold = Mapper(w, arch, safs, opts).search();
        ASSERT_TRUE(cold.found);
        SCOPED_TRACE("strategy=" + cold.strategy);
        EXPECT_EQ(cold.warm_start_candidates, 0);
        EXPECT_EQ(pool->size(), 1u);

        // The warm restart's candidate set contains the recorded elite
        // (it is proposed and evaluated in round 0), so its best can
        // never be worse than the cold search's best.
        MapperResult warm = Mapper(w, arch, safs, opts).search();
        ASSERT_TRUE(warm.found);
        EXPECT_GE(warm.warm_start_candidates, 1);
        EXPECT_EQ(warm.candidates_evaluated, opts.samples);
        EXPECT_LE(warm.eval.edp(), cold.eval.edp());
    }
}

TEST(WarmStart, IncompatibleElitesAreSkippedGracefully)
{
    // Pool an elite from a three-level architecture, then search a
    // two-level one: the elite cannot re-encode (level-count
    // mismatch), so it must be skipped without poisoning the search.
    Workload w = makeMatmul(32, 32, 32);
    Architecture deep = deepArch();
    SafSpec none;

    auto pool = std::make_shared<WarmStartPool>();
    MapperOptions opts;
    opts.samples = 100;
    opts.strategy = SearchStrategyKind::Annealing;
    opts.warm_start = pool;
    MapperResult deep_result = Mapper(w, deep, none, opts).search();
    ASSERT_TRUE(deep_result.found);
    ASSERT_EQ(pool->size(), 1u);

    MapperResult shallow =
        Mapper(w, searchArch(), none, opts).search();
    ASSERT_TRUE(shallow.found);
    EXPECT_EQ(shallow.warm_start_candidates, 0);
    EXPECT_EQ(shallow.candidates_evaluated, opts.samples);
    // Both searches recorded their best: the pool now serves two
    // design points.
    EXPECT_EQ(pool->size(), 2u);
}

TEST(SearchStrategies, ExplicitExhaustiveOnHugeSpaceIsCatchable)
{
    // A space beyond the materialization limits is not enumerable;
    // asking for exhaustive search anyway is a configuration error
    // surfaced as a catchable FatalError, not a process abort. 256 =
    // 2^8 splits 45 ways over three levels, and 45^3 = 91,125 tilings
    // exceed the 2^16 accounted exactly.
    Workload w = makeMatmul(256, 256, 256);
    Architecture arch = deepArch();
    SafSpec none;
    MapperOptions opts;
    opts.strategy = SearchStrategyKind::Exhaustive;
    Mapper mapper(w, arch, none, opts);
    ASSERT_EQ(mapper.mapspace().tilingCount(), 91125);
    ASSERT_LT(mapper.mapspace().size().enumerable, 0);
    EXPECT_THROW(mapper.search(), FatalError);
}

TEST(SearchStrategies, AllInvalidBudgetIsDistinguishable)
{
    Workload w = makeMatmul(32, 32, 32);
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = 16.0;
    StorageLevelSpec buf;
    buf.name = "TinyBuffer";
    buf.capacity_words = 2;  // nothing fits: every candidate invalid
    buf.bandwidth_words_per_cycle = 8.0;
    Architecture arch("tiny", {dram, buf}, ComputeSpec{});
    SafSpec none;
    MapperOptions opts;
    opts.samples = 100;
    opts.strategy = SearchStrategyKind::Random;
    // With the bypass axis open the search would (correctly) stream
    // every tensor past the two-word buffer and find valid mappings;
    // close it so every candidate genuinely overflows.
    opts.mapspace.explore_bypass = false;
    MapperResult r = Mapper(w, arch, none, opts).search();
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.status, SearchStatus::kNoValidCandidate);
    EXPECT_EQ(r.candidates_evaluated, opts.samples);
    EXPECT_EQ(r.candidates_valid, 0);
}

} // namespace
} // namespace sparseloop
