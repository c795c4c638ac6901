/**
 * @file
 * Brute-force validation of the dense dataflow analysis: a reference
 * loop-nest interpreter walks the complete iteration space in mapping
 * order and counts actual tile transitions (fills) and operand fetch
 * events (reads), with perfect knowledge of what is resident. The
 * analytical model's closed-form counts must match exactly for every
 * loop order — including the subtle case where an irrelevant loop
 * sits *outside* a relevant one and forces refetches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "dataflow/dense_traffic.hh"
#include "mapping/mapping.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

Architecture
arch2()
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = 1 << 22;
    return Architecture("brute", {dram, buf}, ComputeSpec{});
}

/** Flattened temporal loop list of a mapping (outer first). */
std::vector<Loop>
flattenLoops(const Mapping &m)
{
    std::vector<Loop> loops;
    for (int l = 0; l < m.levelCount(); ++l) {
        for (const auto &loop : m.level(l).loops) {
            loops.push_back(loop);
        }
    }
    return loops;
}

/**
 * Count tile-fill events at a boundary: iterate the loops above the
 * boundary in nest order; the tile (identified by the residual tile
 * origin per dimension) is refetched whenever it differs from the one
 * currently resident.
 */
double
bruteFills(const Workload &w, const Mapping &m, int tensor,
           int boundary_level)
{
    // Loops above the boundary, in order.
    std::vector<Loop> above;
    for (int l = 0; l < boundary_level; ++l) {
        for (const auto &loop : m.level(l).loops) {
            above.push_back(loop);
        }
    }
    auto tiles = m.dimTilesAtLevel(w, boundary_level);
    double footprint = static_cast<double>(
        volume(w.tensorTileExtents(tensor, tiles)));

    // Odometer over the above-loops.
    std::vector<std::int64_t> idx(above.size(), 0);
    std::vector<std::int64_t> prev_origin;
    double fills = 0.0;
    bool done = above.empty();
    auto origin_of = [&]() {
        // Tile origin per relevant dimension.
        std::vector<std::int64_t> origin(w.dimCount(), 0);
        for (std::size_t i = 0; i < above.size(); ++i) {
            origin[above[i].dim] =
                origin[above[i].dim] * above[i].bound + idx[i];
        }
        // Keep only dims relevant to the tensor.
        std::vector<std::int64_t> key;
        for (int d = 0; d < w.dimCount(); ++d) {
            if (w.dimRelevant(tensor, d)) {
                key.push_back(origin[d]);
            }
        }
        return key;
    };
    if (above.empty()) {
        return footprint;
    }
    while (true) {
        auto origin = origin_of();
        if (origin != prev_origin) {
            fills += footprint;
            prev_origin = origin;
        }
        // Advance the odometer (innermost fastest).
        std::size_t i = above.size();
        while (i-- > 0) {
            if (++idx[i] < above[i].bound) {
                break;
            }
            idx[i] = 0;
            if (i == 0) {
                done = true;
            }
        }
        if (done) {
            break;
        }
    }
    return fills;
}

/**
 * Count operand fetch events at the compute boundary: one fetch per
 * iteration point whose operand address differs from the previous
 * point's (a single operand register).
 */
double
bruteComputeReads(const Workload &w, const Mapping &m, int tensor)
{
    auto loops = flattenLoops(m);
    std::vector<std::int64_t> idx(loops.size(), 0);
    Point prev;
    double reads = 0.0;
    bool done = false;
    while (!done) {
        Point it(w.dimCount(), 0);
        for (std::size_t i = 0; i < loops.size(); ++i) {
            it[loops[i].dim] = it[loops[i].dim] * loops[i].bound +
                               idx[i];
        }
        Point addr = w.project(tensor, it);
        if (addr != prev || reads == 0.0) {
            reads += 1.0;
            prev = addr;
        }
        std::size_t i = loops.size();
        while (i-- > 0) {
            if (++idx[i] < loops[i].bound) {
                break;
            }
            idx[i] = 0;
            if (i == 0) {
                done = true;
            }
        }
    }
    return reads;
}

/** All six orders of (M, K, N) split across the two levels. */
class BruteForceSweep : public ::testing::TestWithParam<int>
{};

TEST_P(BruteForceSweep, FillsAndReadsMatchAnalyticalModel)
{
    Workload w = makeMatmul(4, 6, 2);
    Architecture arch = arch2();
    std::vector<std::string> names{"M", "K", "N"};
    int perm = GetParam();
    std::vector<int> order;
    {
        std::vector<int> pool{0, 1, 2};
        int p = perm;
        for (int i = 3; i > 0; --i) {
            order.push_back(pool[p % i]);
            pool.erase(pool.begin() + p % i);
            p /= i;
        }
    }
    // Split each dimension: outer factor at level 0, inner at level 1.
    std::vector<std::int64_t> bounds{4, 6, 2};
    std::vector<std::int64_t> inner{2, 3, 2};
    MappingBuilder b(w, arch);
    for (int d : order) {
        b.temporal(0, names[d], bounds[d] / inner[d]);
    }
    for (int d : order) {
        b.temporal(1, names[d], inner[d]);
    }
    Mapping m = b.build();

    NestAnalysis nest(w, arch, m);
    DenseTraffic traffic = nest.analyze();

    for (int t = 0; t < w.tensorCount(); ++t) {
        if (w.tensor(t).is_output) {
            // Output updates into the buffer: one per iteration point
            // whose output address changes (MAC-local accumulator).
            double brute_updates = bruteComputeReads(w, m, t);
            EXPECT_DOUBLE_EQ(traffic.at(1, t).updates, brute_updates)
                << "perm " << perm;
            continue;
        }
        // Boundary fills into the buffer.
        double brute = bruteFills(w, m, t, 1);
        EXPECT_DOUBLE_EQ(traffic.at(1, t).fills, brute)
            << "perm " << perm << " tensor " << w.tensor(t).name;
        // Operand fetches from the buffer into the MAC.
        double brute_reads = bruteComputeReads(w, m, t);
        EXPECT_DOUBLE_EQ(traffic.at(1, t).reads, brute_reads)
            << "perm " << perm << " tensor " << w.tensor(t).name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, BruteForceSweep,
                         ::testing::Range(0, 6));

/** Distinct inner/outer orders (the refetch-forcing arrangement). */
TEST(BruteForce, IrrelevantAboveRelevantForcesRefetch)
{
    // Nest: for k (outer, irrelevant to Z) / for m (relevant to Z):
    // the Z tile cycles m-tiles repeatedly, so each outer-k iteration
    // refetches all of them. For operand A: both loops relevant.
    Workload w = makeMatmul(4, 4, 1);
    Architecture arch = arch2();
    Mapping m = MappingBuilder(w, arch)
                    .temporal(0, "K", 4)
                    .temporal(0, "M", 4)
                    .temporal(1, "N", 1)
                    .buildComplete();
    NestAnalysis nest(w, arch, m);
    DenseTraffic traffic = nest.analyze();
    int B = w.tensorIndex("B");
    // B (shape K x 1): tile at the buffer is one element; the m loop
    // inside k is irrelevant to B and below it, so B's element is
    // refetched per (k, m)?? No: m is *inside* k, and the element only
    // depends on k: consecutive m iterations reuse it.
    EXPECT_DOUBLE_EQ(traffic.at(1, B).fills, bruteFills(w, m, B, 1));
    int A = w.tensorIndex("A");
    EXPECT_DOUBLE_EQ(traffic.at(1, A).fills, bruteFills(w, m, A, 1));
}

/**
 * Closed-form layer accounting as an independent Step-1 oracle: the
 * 64x64x3 -> 64, 3x3, pad-1 conv with the whole nest at the buffer,
 * output-stationary (K, P, Q outer; the C, R, S reduction inner).
 * Hand counts: 64*64*64 outputs x 27 MACs each; each MAC reads one
 * weight and one input; each output is written once after its 27
 * MACs, so reads plus drains come to 2 + 1/27 ~ 2.04 elements per MAC.
 */
TEST(ClosedForm, OutputStationaryConvLayer)
{
    ConvLayerShape shape;
    shape.k = 64;
    shape.c = 3;
    shape.p = 64;
    shape.q = 64;
    shape.r = 3;
    shape.s = 3;
    Workload w = makeConv(shape);
    Architecture arch = arch2();
    Mapping m = MappingBuilder(w, arch)
                    .temporal(1, "K", 64)
                    .temporal(1, "P", 64)
                    .temporal(1, "Q", 64)
                    .temporal(1, "C", 3)
                    .temporal(1, "R", 3)
                    .temporal(1, "S", 3)
                    .buildComplete();
    DenseTraffic traffic = NestAnalysis(w, arch, m).analyze();
    const int I = w.tensorIndex("Inputs");
    const int W = w.tensorIndex("Weights");
    const int O = w.tensorIndex("Outputs");
    const double macs = 64.0 * 64 * 64 * 27;
    ASSERT_EQ(macs, 7077888.0);
    EXPECT_EQ(traffic.computes, macs);
    EXPECT_EQ(traffic.at(1, I).reads, macs);
    EXPECT_EQ(traffic.at(1, W).reads, macs);
    EXPECT_EQ(traffic.at(1, O).drains, macs / 27);
    EXPECT_NEAR((traffic.at(1, I).reads + traffic.at(1, W).reads +
                 traffic.at(1, O).drains) / macs,
                2.04, 0.005);
    // Each operand arrives once. The weights are 3*3*3*64; the model
    // fetches the padded 66x66x3 input, where the hand count takes the
    // unpadded 64*64*3 = 12,288.
    EXPECT_EQ(traffic.at(1, W).fills, 1728.0);
    EXPECT_EQ(traffic.at(1, I).fills, 66.0 * 66 * 3);
    // Partial sums stay in the accumulator: no read-modify-write.
    EXPECT_EQ(traffic.at(1, O).acc_reads, 0.0);
}

/** Random split/order fuzz against the brute-force interpreter. */
class BruteFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(BruteFuzz, RandomTemporalMappingsMatch)
{
    std::mt19937_64 rng(GetParam() * 31 + 5);
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = arch2();
    std::vector<std::string> names{"M", "K", "N"};
    std::vector<int> order{0, 1, 2};
    std::shuffle(order.begin(), order.end(), rng);
    std::uniform_int_distribution<int> pick(0, 2);
    MappingBuilder b(w, arch);
    std::vector<std::int64_t> inner(3);
    for (int d : order) {
        inner[d] = 1LL << pick(rng);  // 1, 2, or 4
        b.temporal(0, names[d], 4 / inner[d]);
    }
    std::shuffle(order.begin(), order.end(), rng);
    for (int d : order) {
        b.temporal(1, names[d], inner[d]);
    }
    Mapping m = b.build();
    NestAnalysis nest(w, arch, m);
    DenseTraffic traffic = nest.analyze();
    for (int t = 0; t < 2; ++t) {
        EXPECT_DOUBLE_EQ(traffic.at(1, t).fills,
                         bruteFills(w, m, t, 1))
            << "seed " << GetParam() << " tensor " << t;
        EXPECT_DOUBLE_EQ(traffic.at(1, t).reads,
                         bruteComputeReads(w, m, t))
            << "seed " << GetParam() << " tensor " << t;
    }
    int Z = w.tensorIndex("Z");
    EXPECT_DOUBLE_EQ(traffic.at(1, Z).updates,
                     bruteComputeReads(w, m, Z))
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BruteFuzz, ::testing::Range(0, 25));

} // namespace
} // namespace sparseloop
