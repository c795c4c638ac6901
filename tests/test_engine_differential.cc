/**
 * @file
 * The differential-oracle test layer of the engine speed campaign.
 *
 * The production `Engine` carries hot-path optimizations — inline
 * scratch, flat traffic grids, hoisted per-SAF elimination
 * probabilities, fused block-inflation passes, moved-in traffic — and
 * every one of them must be *provably invisible*. The oracle is
 * `refmodel::referenceEvaluate` (reference/reference_engine.cc), a
 * frozen, deliberately naive transcription of the three modeling
 * steps. This suite pits the two against each other over hundreds of
 * seeded randomized (workload, mapping, SAF, format) tuples and
 * requires bit-identical `EvalResult`s (`bitIdentical`, exact double
 * equality on every field including the retained sparse traffic) and
 * bit-identical Step-1 dense traffic (`Engine::analyzeDataflow` against
 * `refmodel::referenceAnalyzeDataflow`).
 *
 * Also covered here:
 *  - deep hierarchies: tuples whose shapes outgrow the inline scratch
 *    of Steps 1-3 match the oracle too;
 *  - determinism: re-evaluating the same tuple yields the identical
 *    result (no hidden state leaks out of the scratch buffers);
 *  - thread invariance: BatchEvaluator at 1, 4, and 8 workers returns
 *    results bit-identical to sequential uncached evaluation;
 *  - refsim cross-check: on seeded randomized SpMSpM instances the
 *    optimized engine stays within the same few-percent envelope of
 *    the cycle-level simulator that the validation suite established —
 *    so the optimizations preserved fidelity to ground truth, not just
 *    to the reference transcription.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "density/actual_data.hh"
#include "density/hypergeometric.hh"
#include "format/tensor_format.hh"
#include "model/batch_evaluator.hh"
#include "model/engine.hh"
#include "reference/reference_engine.hh"
#include "refsim/cycle_spmspm.hh"
#include "tensor/generate.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

/** One generated differential tuple. */
struct Tuple
{
    Workload workload;
    Architecture arch;
    Mapping mapping;
    SafSpec safs;
};

Architecture
randomArch(std::mt19937_64 &rng)
{
    std::uniform_int_distribution<int> levels(2, 3);
    std::uniform_int_distribution<int> fan(0, 3);
    std::uniform_int_distribution<int> block(0, 2);
    std::uniform_int_distribution<int> bw(1, 4);
    const int S = levels(rng);
    std::vector<StorageLevelSpec> specs;
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.block_size_words = 1LL << block(rng);
    specs.push_back(dram);
    if (S == 3) {
        StorageLevelSpec glb;
        glb.name = "GLB";
        glb.capacity_words = 1 << 22;
        glb.bandwidth_words_per_cycle = 1 << bw(rng);
        glb.fanout = 1 << fan(rng);
        glb.block_size_words = 1LL << block(rng);
        specs.push_back(glb);
    }
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = 1 << 20;
    buf.bandwidth_words_per_cycle = 1 << bw(rng);
    buf.fanout = 1 << fan(rng);
    specs.push_back(buf);
    return Architecture("diff", specs, ComputeSpec{});
}

/** Random complete mapping: split each dimension across the levels
 *  with divisor-safe bounds, optional spatial loops, optional bypass
 *  masks on the middle level of 3-level hierarchies. */
Mapping
randomMapping(const Workload &w, const Architecture &arch,
              std::mt19937_64 &rng)
{
    MappingBuilder b(w, arch);
    const int S = arch.levelCount();
    std::vector<int> dims(w.dimCount());
    for (int d = 0; d < w.dimCount(); ++d) {
        dims[d] = d;
    }
    std::shuffle(dims.begin(), dims.end(), rng);
    std::uniform_int_distribution<int> split(0, 3);
    bool used_spatial = false;
    for (int d : dims) {
        const std::string &name = w.dims()[d].name;
        std::int64_t bound = w.dims()[d].bound;
        std::int64_t inner = std::min<std::int64_t>(
            bound, 1LL << split(rng));
        if (bound % inner != 0) {
            inner = 1;
        }
        std::int64_t outer = bound / inner;
        // Innermost split goes to the innermost storage level.
        if (inner > 1) {
            b.temporal(S - 1, name, inner);
        }
        // Optionally park part of the outer iteration spatially under
        // a level with fanout.
        for (int l = S - 1; l-- > 0 && outer > 1;) {
            if (!used_spatial && arch.level(l).fanout > 1 &&
                outer % 2 == 0 && split(rng) == 0) {
                std::int64_t sp = std::min<std::int64_t>(
                    arch.level(l).fanout, 2);
                if (outer % sp == 0) {
                    b.spatial(l, name, sp);
                    outer /= sp;
                    used_spatial = true;
                }
            }
        }
        if (outer > 1 && S == 3 && split(rng) < 2) {
            std::int64_t mid = std::min<std::int64_t>(outer, 2);
            if (outer % mid == 0) {
                b.temporal(1, name, mid);
                outer /= mid;
            }
        }
        // buildComplete() appends the remainder at level 0.
    }
    if (S == 3 && split(rng) == 0) {
        // Bypass a random subset (never empty) at the middle level.
        std::vector<std::string> kept;
        for (int t = 0; t < w.tensorCount(); ++t) {
            if (split(rng) < 3) {
                kept.push_back(w.tensors()[t].name);
            }
        }
        if (!kept.empty() &&
            kept.size() < static_cast<std::size_t>(w.tensorCount())) {
            b.keepOnly(1, kept);
        }
    }
    return b.buildComplete();
}

TensorFormat
randomFormat(std::mt19937_64 &rng)
{
    std::uniform_int_distribution<int> pick(0, 4);
    switch (pick(rng)) {
      case 0: return makeCsr();
      case 1: return makeBitmask(2);
      case 2: return makeUncompressedBitmask(2);
      case 3: return makeCoo(2);
      default: return makeRunLength();
    }
}

SafSpec
randomSafs(const Workload &w, const Architecture &arch,
           std::mt19937_64 &rng)
{
    SafSpec s;
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<int> lvl(0, arch.levelCount() - 1);
    const int T = w.tensorCount();
    // Operand tensors (everything but outputs) can lead; outputs can
    // only follow.
    std::vector<int> operands;
    for (int t = 0; t < T; ++t) {
        if (!w.tensors()[t].is_output) {
            operands.push_back(t);
        }
    }
    // Formats on a random subset of (level, tensor) bindings.
    for (int t = 0; t < T; ++t) {
        if (coin(rng)) {
            s.addFormat(lvl(rng), t, randomFormat(rng));
        }
    }
    // Intersection SAFs: follower <- single or double leader.
    for (int t = 0; t < T; ++t) {
        if (coin(rng) == 0) {
            continue;
        }
        std::vector<int> leaders;
        for (int o : operands) {
            if (o != t && (leaders.empty() || coin(rng))) {
                leaders.push_back(o);
            }
        }
        if (leaders.empty()) {
            continue;
        }
        int at = lvl(rng);
        if (coin(rng)) {
            s.addSkip(at, t, leaders);
        } else {
            s.addGate(at, t, leaders);
        }
    }
    if (coin(rng)) {
        s.addComputeSaf(coin(rng) ? SafKind::Skip : SafKind::Gate);
    }
    return s;
}

/**
 * A stack of 2-3 intersection SAFs on one follower, so the elimination
 * chain composes several SAFs on the same flow. The first two SAFs
 * are one gate and one skip, on the same level for even @p index and
 * on distinct levels for odd; the third (when drawn) is random.
 */
SafSpec
stackedSafs(const Workload &w, const Architecture &arch, int index,
            std::mt19937_64 &rng)
{
    SafSpec s;
    std::uniform_int_distribution<int> coin(0, 1);
    const int L = arch.levelCount();
    std::uniform_int_distribution<int> lvl(0, L - 1);
    const int T = w.tensorCount();
    for (int t = 0; t < T; ++t) {
        if (coin(rng)) {
            s.addFormat(lvl(rng), t, randomFormat(rng));
        }
    }
    std::uniform_int_distribution<int> pick(0, T - 1);
    const int follower = pick(rng);
    std::vector<int> operands;
    for (int t = 0; t < T; ++t) {
        if (!w.tensors()[t].is_output && t != follower) {
            operands.push_back(t);
        }
    }
    std::uniform_int_distribution<int> depth(2, 3);
    const int n = depth(rng);
    int first_level = 0;
    bool first_skip = false;
    for (int i = 0; i < n; ++i) {
        std::vector<int> leaders;
        for (int o : operands) {
            if (leaders.empty() || coin(rng)) {
                leaders.push_back(o);
            }
        }
        int at = lvl(rng);
        bool skip = coin(rng);
        if (i == 0) {
            first_level = at;
            first_skip = skip;
        } else if (i == 1) {
            at = index % 2 == 0 ? first_level
                                : (first_level + 1 + at % (L - 1)) % L;
            skip = !first_skip;
        }
        if (skip) {
            s.addSkip(at, follower, leaders);
        } else {
            s.addGate(at, follower, leaders);
        }
    }
    if (coin(rng)) {
        s.addComputeSaf(coin(rng) ? SafKind::Skip : SafKind::Gate);
    }
    return s;
}

/** Tuple @p index of the single-SAF-per-follower family, or of the
 *  stacked-SAF family (own seed, so neither perturbs the other). */
Tuple
makeTuple(int index, bool stacked = false)
{
    std::mt19937_64 rng((stacked ? 0x57ACull : 0xD1FFull) * 2654435761u +
                        index);
    std::uniform_real_distribution<double> dens(0.05, 0.95);
    std::uniform_int_distribution<int> kind(0, 5);

    Workload w = [&]() {
        switch (kind(rng)) {
          case 0:
          case 1:
            return makeMatmul(16, 16, 16);
          case 2:
            return makeMatmul(8, 32, 8);
          case 3: {
            ConvLayerShape shape;
            shape.name = "diff-conv";
            shape.k = 8;
            shape.c = 4;
            shape.p = 6;
            shape.q = 6;
            shape.r = 3;
            shape.s = 3;
            return makeConv(shape);
          }
          case 4:
            return makeGemv(32, 32);
          default:
            return makeMttkrp(8, 8, 8, 4);
        }
    }();
    // Random densities on the operand tensors; occasionally leave one
    // dense, occasionally bind actual data (the exact-enumeration
    // effectual-fraction path) on small matmuls.
    std::uniform_int_distribution<int> mode(0, 3);
    for (int t = 0; t < w.tensorCount(); ++t) {
        const auto &ds = w.tensors()[t];
        if (ds.is_output || mode(rng) == 0) {
            continue;
        }
        if (w.name() == "matmul16x16x16" && mode(rng) == 1) {
            auto tensor = std::make_shared<SparseTensor>(
                generateUniform(w.tensorShape(t), dens(rng),
                                static_cast<std::uint64_t>(index) * 31 +
                                    t));
            w.setDensity(t, makeActualDataDensity(tensor));
        } else {
            w.setDensity(t, makeUniformDensity(w.tensorVolume(t),
                                               dens(rng)));
        }
    }
    Architecture arch = randomArch(rng);
    Mapping mapping = randomMapping(w, arch, rng);
    SafSpec safs = stacked ? stackedSafs(w, arch, index, rng)
                           : randomSafs(w, arch, rng);
    return Tuple{std::move(w), std::move(arch), std::move(mapping),
                 std::move(safs)};
}

class EngineDifferential : public ::testing::TestWithParam<int>
{};

/** The core contract: optimized engine == naive reference oracle,
 *  bit for bit, on every generated tuple. */
TEST_P(EngineDifferential, MatchesNaiveReferenceBitForBit)
{
    Tuple tup = makeTuple(GetParam());
    Engine engine(tup.arch);
    ASSERT_TRUE(engine.analyzeDataflow(tup.workload, tup.mapping) ==
                refmodel::referenceAnalyzeDataflow(tup.workload, tup.arch,
                                                   tup.mapping))
        << "tuple " << GetParam() << ": Step-1 dense traffic diverged";
    EvalResult opt =
        engine.evaluate(tup.workload, tup.mapping, tup.safs);
    EvalResult ref = refmodel::referenceEvaluate(
        tup.workload, tup.arch, tup.mapping, tup.safs);
    ASSERT_TRUE(bitIdentical(opt, ref))
        << "tuple " << GetParam() << " diverged: opt cycles "
        << opt.cycles << " energy " << opt.energy_pj << " vs ref cycles "
        << ref.cycles << " energy " << ref.energy_pj;
}

/** Re-evaluation determinism: the scratch buffers and hoisted tables
 *  leak no state between evaluations. */
TEST_P(EngineDifferential, DeterministicAcrossRepeatedEvaluations)
{
    if (GetParam() % 8 != 0) {
        GTEST_SKIP() << "determinism spot-checked on every 8th tuple";
    }
    Tuple tup = makeTuple(GetParam());
    Engine engine(tup.arch);
    EvalResult first =
        engine.evaluate(tup.workload, tup.mapping, tup.safs);
    EvalResult second =
        engine.evaluate(tup.workload, tup.mapping, tup.safs);
    ASSERT_TRUE(bitIdentical(first, second));
}

// >= 200 randomized tuples, as the speed-campaign contract demands.
INSTANTIATE_TEST_SUITE_P(Seeded, EngineDifferential,
                         ::testing::Range(0, 208));

class EngineDifferentialStacked : public ::testing::TestWithParam<int>
{};

/** The same contract with 2-3 SAFs stacked on one follower: the
 *  elimination chain's order and composition match the oracle. */
TEST_P(EngineDifferentialStacked, MatchesNaiveReferenceBitForBit)
{
    Tuple tup = makeTuple(GetParam(), true);
    ASSERT_GE(tup.safs.intersections.size(), 2u);
    Engine engine(tup.arch);
    ASSERT_TRUE(engine.analyzeDataflow(tup.workload, tup.mapping) ==
                refmodel::referenceAnalyzeDataflow(tup.workload, tup.arch,
                                                   tup.mapping))
        << "stacked tuple " << GetParam() << ": Step-1 dense traffic diverged";
    EvalResult opt =
        engine.evaluate(tup.workload, tup.mapping, tup.safs);
    EvalResult ref = refmodel::referenceEvaluate(
        tup.workload, tup.arch, tup.mapping, tup.safs);
    ASSERT_TRUE(bitIdentical(opt, ref))
        << "stacked tuple " << GetParam() << " diverged: opt cycles "
        << opt.cycles << " energy " << opt.energy_pj << " vs ref cycles "
        << ref.cycles << " energy " << ref.energy_pj;
}

INSTANTIATE_TEST_SUITE_P(Stacked, EngineDifferentialStacked,
                         ::testing::Range(0, 48));

/**
 * A five-level hierarchy under a seven-dimension conv. Its shapes pass
 * every inline capacity of the Steps 1-3 scratch, so the engine runs
 * the heap-spill path: (S+1)*D = 42 > 32 dim-tile entries, S*T = 15 >
 * 12 format-grid and block-inflation entries, and S = 5 > 4 per-level
 * words.
 */
Tuple
makeDeepTuple(int index)
{
    std::mt19937_64 rng(0xDEE9ull * 2654435761u + index);
    std::uniform_real_distribution<double> dens(0.05, 0.95);
    std::uniform_int_distribution<int> block(0, 2);
    std::uniform_int_distribution<int> bw(1, 4);
    ConvLayerShape shape;
    shape.name = "diff-deep-conv";
    shape.k = 8;
    shape.c = 4;
    shape.p = 6;
    shape.q = 6;
    shape.r = 3;
    shape.s = 3;
    Workload w = makeConv(shape);
    for (int t = 0; t < w.tensorCount(); ++t) {
        if (!w.tensors()[t].is_output) {
            w.setDensity(t, makeUniformDensity(w.tensorVolume(t),
                                               dens(rng)));
        }
    }
    std::vector<StorageLevelSpec> specs;
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.block_size_words = 1LL << block(rng);
    specs.push_back(dram);
    for (int l = 1; l < 5; ++l) {
        StorageLevelSpec buf;
        buf.name = "L" + std::to_string(l);
        buf.capacity_words = 1 << (22 - 2 * l);
        buf.bandwidth_words_per_cycle = 1 << bw(rng);
        buf.fanout = l == 2 ? 2 : 1;
        buf.block_size_words = 1LL << block(rng);
        specs.push_back(buf);
    }
    Architecture arch("diff-deep", specs, ComputeSpec{});
    MappingBuilder b(w, arch);
    b.temporal(1, "Q", 6)
        .spatial(2, "P", 2)
        .temporal(2, "P", 3)
        .temporal(3, "C", 4)
        .temporal(4, "R", 3)
        .temporal(4, "S", 3);
    if (index % 2 == 1) {
        b.keepOnly(3, {"Inputs", "Weights"});
    }
    Mapping mapping = b.buildComplete();
    SafSpec safs = randomSafs(w, arch, rng);
    return Tuple{std::move(w), std::move(arch), std::move(mapping),
                 std::move(safs)};
}

class EngineDifferentialDeep : public ::testing::TestWithParam<int>
{};

TEST_P(EngineDifferentialDeep, MatchesNaiveReferenceBitForBit)
{
    Tuple tup = makeDeepTuple(GetParam());
    ASSERT_EQ(tup.arch.levelCount(), 5);
    ASSERT_EQ(tup.workload.dimCount(), 7);
    ASSERT_EQ(tup.workload.tensorCount(), 3);
    Engine engine(tup.arch);
    ASSERT_TRUE(engine.analyzeDataflow(tup.workload, tup.mapping) ==
                refmodel::referenceAnalyzeDataflow(tup.workload, tup.arch,
                                                   tup.mapping))
        << "deep tuple " << GetParam() << ": Step-1 dense traffic diverged";
    EvalResult opt =
        engine.evaluate(tup.workload, tup.mapping, tup.safs);
    EvalResult ref = refmodel::referenceEvaluate(
        tup.workload, tup.arch, tup.mapping, tup.safs);
    ASSERT_TRUE(bitIdentical(opt, ref))
        << "deep tuple " << GetParam() << " diverged: opt cycles "
        << opt.cycles << " energy " << opt.energy_pj << " vs ref cycles "
        << ref.cycles << " energy " << ref.energy_pj;
    EvalResult again =
        engine.evaluate(tup.workload, tup.mapping, tup.safs);
    ASSERT_TRUE(bitIdentical(opt, again));
}

INSTANTIATE_TEST_SUITE_P(Deep, EngineDifferentialDeep,
                         ::testing::Range(0, 8));

/** A format SAF whose format has no ranks fails validation in both
 *  engines with a FatalError. */
TEST(EngineDifferentialMalformed, RanklessFormatIsFatalInBoth)
{
    Tuple tup = makeTuple(0);
    tup.safs.addFormat(0, 0, TensorFormat());
    Engine engine(tup.arch);
    EXPECT_THROW(engine.evaluate(tup.workload, tup.mapping, tup.safs),
                 FatalError);
    EXPECT_THROW(refmodel::referenceEvaluate(tup.workload, tup.arch,
                                             tup.mapping, tup.safs),
                 FatalError);
}

/** BatchEvaluator fan-out must stay bit-identical to sequential
 *  uncached evaluation at every worker count (workers share no
 *  scratch). */
TEST(EngineDifferentialThreads, BatchResultsIdenticalAt148Threads)
{
    // A batch over one workload/SAF set with many mappings, plus its
    // sequential ground truth.
    std::mt19937_64 rng(0xBEEFCAFE);
    Workload w = makeMatmul(16, 16, 16);
    bindUniformDensities(w, {{"A", 0.4}, {"B", 0.7}});
    Architecture arch = randomArch(rng);
    SafSpec safs = randomSafs(w, arch, rng);
    std::vector<Mapping> mappings;
    for (int i = 0; i < 24; ++i) {
        mappings.push_back(randomMapping(w, arch, rng));
    }
    Engine engine(arch);
    std::vector<EvalResult> expected;
    for (const Mapping &m : mappings) {
        expected.push_back(engine.evaluate(w, m, safs));
    }
    std::vector<EvalPoint> points;
    for (const Mapping &m : mappings) {
        points.push_back({&w, &m, &safs});
    }
    for (int threads : {1, 4, 8}) {
        BatchEvaluatorOptions opts;
        opts.num_threads = threads;
        BatchEvaluator evaluator(engine, nullptr, opts);
        std::vector<EvalResult> got = evaluator.evaluateBatch(points);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(bitIdentical(got[i], expected[i]))
                << "threads " << threads << " mapping " << i;
        }
    }
}

/** Ground-truth guard: on seeded randomized SpMSpM instances the
 *  optimized engine tracks the cycle-level simulator within the same
 *  few-percent envelope the validation suite allows — fidelity, not
 *  just internal consistency. */
TEST(EngineDifferentialRefsim, TracksCycleLevelSimOnRandomInstances)
{
    const std::int64_t size = 48;
    for (int trial = 0; trial < 6; ++trial) {
        std::mt19937_64 rng(7700 + trial);
        std::uniform_real_distribution<double> dens(0.1, 0.8);
        const double density = dens(rng);
        auto a = generateUniform({size, size}, density,
                                 1000 + static_cast<std::uint64_t>(trial));
        auto b = generateUniform({size, size}, 1.0, 2000 + trial);
        refsim::CycleSimConfig cfg;
        cfg.skip_on_a = true;
        cfg.buffer_bw = 2.0;
        auto sim = refsim::CycleLevelSpmspmSim(cfg).run(a, b);

        Workload w = makeMatmul(size, size, size);
        w.setDensity("A", makeActualDataDensity(
            std::make_shared<SparseTensor>(a)));
        StorageLevelSpec dram;
        dram.name = "DRAM";
        dram.storage_class = StorageClass::DRAM;
        StorageLevelSpec buf;
        buf.name = "Buffer";
        buf.capacity_words = 1 << 22;
        Architecture arch("twin", {dram, buf}, ComputeSpec{});
        Mapping m = MappingBuilder(w, arch)
                        .temporal(0, "M", size)
                        .temporal(0, "N", size)
                        .temporal(1, "K", size)
                        .buildComplete();
        SafSpec safs;
        safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});
        EvalResult r = Engine(arch).evaluate(w, m, safs);
        ASSERT_TRUE(r.valid);
        double err = math::relativeError(
            r.computes.actual, static_cast<double>(sim.cycles));
        EXPECT_LT(err, 0.03) << "trial " << trial << " density "
                             << density;
    }
}

} // namespace
} // namespace sparseloop
