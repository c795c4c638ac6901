/**
 * @file
 * Unit tests for the tensor substrate: SparseTensor, generators, and
 * the fibertree.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "tensor/fibertree.hh"
#include "tensor/generate.hh"
#include "tensor/point.hh"
#include "tensor/sparse_tensor.hh"

namespace sparseloop {
namespace {

TEST(Point, FlattenUnflattenRoundTrip)
{
    Shape shape{3, 4, 5};
    for (std::int64_t i = 0; i < volume(shape); ++i) {
        Point p = unflatten(i, shape);
        EXPECT_EQ(flatten(p, shape), i);
    }
}

TEST(Point, VolumeIsProduct)
{
    EXPECT_EQ(volume({3, 4, 5}), 60);
    EXPECT_EQ(volume({7}), 7);
}

TEST(SparseTensor, SetGetAndDensity)
{
    SparseTensor t({4, 4});
    EXPECT_EQ(t.nonzeroCount(), 0);
    t.set({1, 2}, 3.5);
    t.set({3, 3}, -1.0);
    EXPECT_DOUBLE_EQ(t.at({1, 2}), 3.5);
    EXPECT_DOUBLE_EQ(t.at({0, 0}), 0.0);
    EXPECT_EQ(t.nonzeroCount(), 2);
    EXPECT_DOUBLE_EQ(t.density(), 2.0 / 16.0);
}

TEST(SparseTensor, ZeroWriteErases)
{
    SparseTensor t({2, 2});
    t.set({0, 1}, 1.0);
    EXPECT_EQ(t.nonzeroCount(), 1);
    t.set({0, 1}, 0.0);
    EXPECT_EQ(t.nonzeroCount(), 0);
    EXPECT_FALSE(t.isNonzero({0, 1}));
}

TEST(SparseTensor, TileNonzeroCount)
{
    SparseTensor t({4, 4});
    t.set({0, 0}, 1.0);
    t.set({0, 1}, 1.0);
    t.set({2, 2}, 1.0);
    EXPECT_EQ(t.tileNonzeroCount({0, 0}, {2, 2}), 2);
    EXPECT_EQ(t.tileNonzeroCount({2, 2}, {2, 2}), 1);
    EXPECT_EQ(t.tileNonzeroCount({0, 2}, {2, 2}), 0);
    EXPECT_TRUE(t.tileEmpty({0, 2}, {2, 2}));
    // Clipping beyond bounds.
    EXPECT_EQ(t.tileNonzeroCount({2, 2}, {10, 10}), 1);
}

TEST(SparseTensor, BadShapeIsFatal)
{
    EXPECT_THROW(SparseTensor(Shape{}), FatalError);
    EXPECT_THROW(SparseTensor({4, 0}), FatalError);
}

TEST(Generate, UniformHitsRequestedDensity)
{
    auto t = generateUniform({64, 64}, 0.25, 42);
    EXPECT_EQ(t.nonzeroCount(), 1024);
    EXPECT_NEAR(t.density(), 0.25, 1e-9);
}

TEST(Generate, UniformZeroAndFullDensity)
{
    EXPECT_EQ(generateUniform({8, 8}, 0.0, 1).nonzeroCount(), 0);
    EXPECT_EQ(generateUniform({8, 8}, 1.0, 1).nonzeroCount(), 64);
}

TEST(Generate, UniformSeedsDiffer)
{
    auto a = generateUniform({32, 32}, 0.3, 1);
    auto b = generateUniform({32, 32}, 0.3, 2);
    EXPECT_NE(a.sortedNonzeroIndices(), b.sortedNonzeroIndices());
}

TEST(Generate, StructuredTwoFourPattern)
{
    auto t = generateStructured({16, 16}, 2, 4, 7);
    EXPECT_NEAR(t.density(), 0.5, 1e-9);
    // Every aligned block of 4 along the innermost rank has exactly 2.
    for (std::int64_t i = 0; i < 16; ++i) {
        for (std::int64_t b = 0; b < 16; b += 4) {
            EXPECT_EQ(t.tileNonzeroCount({i, b}, {1, 4}), 2);
        }
    }
}

TEST(Generate, BandedRespectsBand)
{
    auto t = generateBanded(32, 32, 2, 1.0, 3);
    for (const auto &p : t.sortedNonzeroPoints()) {
        EXPECT_LE(std::abs(p[0] - p[1]), 2);
    }
    // Full band: diagonal fully populated.
    for (std::int64_t i = 0; i < 32; ++i) {
        EXPECT_TRUE(t.isNonzero({i, i}));
    }
}

TEST(Generate, BadParametersAreFatal)
{
    EXPECT_THROW(generateUniform({8, 8}, 1.5, 1), FatalError);
    EXPECT_THROW(generateStructured({8, 8}, 2, 0, 1), FatalError);
    EXPECT_THROW(generateBanded(8, 8, -1, 0.5, 1), FatalError);
}

TEST(FiberTree, LeafCountMatchesNonzeros)
{
    auto t = generateUniform({16, 16}, 0.2, 11);
    FiberTree tree(t, {0, 1});
    EXPECT_EQ(tree.leafCount(), t.nonzeroCount());
}

TEST(FiberTree, ReconstructsValues)
{
    auto t = generateUniform({12, 9}, 0.3, 5);
    FiberTree tree(t, {0, 1});
    for (std::int64_t i = 0; i < 12; ++i) {
        for (std::int64_t j = 0; j < 9; ++j) {
            EXPECT_DOUBLE_EQ(tree.at({i, j}), t.at({i, j}));
        }
    }
}

TEST(FiberTree, TransposedRankOrder)
{
    auto t = generateUniform({8, 10}, 0.4, 9);
    FiberTree tree(t, {1, 0});  // column-major tree
    EXPECT_EQ(tree.leafCount(), t.nonzeroCount());
    for (std::int64_t i = 0; i < 8; ++i) {
        for (std::int64_t j = 0; j < 10; ++j) {
            EXPECT_DOUBLE_EQ(tree.at({i, j}), t.at({i, j}));
        }
    }
}

TEST(FiberTree, RankStatsOfPaperExample)
{
    // The 4x4 tensor of Fig. 7b: rows 0,1,3 non-empty, row 2 empty.
    SparseTensor t({4, 4});
    t.set({0, 0}, 1.0);
    t.set({0, 2}, 2.0);
    t.set({1, 1}, 3.0);
    t.set({1, 3}, 4.0);
    t.set({3, 0}, 5.0);
    t.set({3, 2}, 6.0);
    FiberTree tree(t, {0, 1}, {"M", "K"});
    auto top = tree.rankStats(0);
    EXPECT_EQ(top.rank_name, "M");
    EXPECT_EQ(top.fiber_count, 1);
    EXPECT_EQ(top.occupancy_histogram.at(3), 1);  // 3 non-empty rows
    auto bottom = tree.rankStats(1);
    EXPECT_EQ(bottom.fiber_count, 3);
    EXPECT_DOUBLE_EQ(bottom.meanOccupancy(), 2.0);
    EXPECT_EQ(bottom.maxOccupancy(), 2);
}

TEST(FiberTree, EmptyTensor)
{
    SparseTensor t({4, 4});
    FiberTree tree(t, {0, 1});
    EXPECT_EQ(tree.leafCount(), 0);
    EXPECT_TRUE(tree.root().empty());
}

/** Property: structured generator density equals n/m for many (n, m). */
class StructuredSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(StructuredSweep, DensityIsNm)
{
    auto [n, m] = GetParam();
    auto t = generateStructured({8, 32}, n, m, 123);
    EXPECT_NEAR(t.density(),
                static_cast<double>(n) / static_cast<double>(m), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, StructuredSweep,
    ::testing::Values(std::make_pair(1, 4), std::make_pair(2, 4),
                      std::make_pair(2, 8), std::make_pair(4, 4),
                      std::make_pair(2, 16)));

} // namespace
} // namespace sparseloop
