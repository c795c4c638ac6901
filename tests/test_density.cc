/**
 * @file
 * Unit and property tests for the statistical density models, including
 * cross-validation of the statistical laws against actual data and one
 * property suite (distribution vs scalar queries, monotonicity in the
 * tile size) run over every model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "density/actual_data.hh"
#include "density/banded.hh"
#include "density/hypergeometric.hh"
#include "density/structured.hh"
#include "tensor/generate.hh"

namespace sparseloop {
namespace {

TEST(Hypergeometric, TensorDensityRoundTrip)
{
    HypergeometricDensity m(1024, 0.25);
    EXPECT_NEAR(m.tensorDensity(), 0.25, 1e-9);
    EXPECT_EQ(m.nonzeroCount(), 256);
}

TEST(Hypergeometric, ExpectedOccupancyIsLinear)
{
    HypergeometricDensity m(1024, 0.25);
    EXPECT_NEAR(m.expectedOccupancy(64), 16.0, 1e-9);
    EXPECT_NEAR(m.expectedOccupancy(1), 0.25, 1e-9);
}

TEST(Hypergeometric, ProbEmptySingleElement)
{
    HypergeometricDensity m(1000, 0.3);
    EXPECT_NEAR(m.probEmpty(1), 0.7, 1e-9);
}

TEST(Hypergeometric, ProbEmptyMonotoneInTileSize)
{
    HypergeometricDensity m(4096, 0.1);
    double prev = 1.0;
    for (std::int64_t s : {1, 2, 4, 8, 16, 32, 64}) {
        double p = m.probEmpty(s);
        EXPECT_LE(p, prev + 1e-12);
        prev = p;
    }
}

TEST(Hypergeometric, DistributionNormalizes)
{
    HypergeometricDensity m(256, 0.5);
    auto dist = m.distribution(16);
    EXPECT_NEAR(dist.totalMass(), 1.0, 1e-9);
    EXPECT_NEAR(dist.mean(), 8.0, 1e-6);
}

TEST(Hypergeometric, DenseTensorNeverEmpty)
{
    HypergeometricDensity m(64, 1.0);
    EXPECT_DOUBLE_EQ(m.probEmpty(4), 0.0);
    EXPECT_EQ(m.maxOccupancy(4), 4);
}

TEST(Hypergeometric, EmptyTensorAlwaysEmpty)
{
    HypergeometricDensity m(64, 0.0);
    EXPECT_DOUBLE_EQ(m.probEmpty(4), 1.0);
}

TEST(Hypergeometric, RejectsBadDensity)
{
    EXPECT_THROW(HypergeometricDensity(64, 1.5), FatalError);
    EXPECT_THROW(HypergeometricDensity(64, -0.1), FatalError);
}

TEST(Hypergeometric, RejectsEmptyTensor)
{
    EXPECT_THROW(HypergeometricDensity(0, 0.5), FatalError);
}

TEST(Hypergeometric, MatchesActualUniformData)
{
    // The statistical law should track concrete uniform data closely.
    auto data = std::make_shared<SparseTensor>(
        generateUniform({64, 64}, 0.2, 77));
    ActualDataDensity actual(data);
    HypergeometricDensity model(64 * 64, 0.2);
    for (std::int64_t shape : {4, 16, 64}) {
        EXPECT_NEAR(model.expectedOccupancy(shape),
                    actual.expectedOccupancyShaped({1, shape}), 0.15)
            << "tile " << shape;
        EXPECT_NEAR(model.probEmpty(shape),
                    actual.probEmptyShaped({1, shape}), 0.05)
            << "tile " << shape;
    }
}

TEST(FixedStructured, TwoFourBasics)
{
    FixedStructuredDensity m(2, 4);
    EXPECT_DOUBLE_EQ(m.tensorDensity(), 0.5);
    // Whole blocks are deterministic.
    EXPECT_DOUBLE_EQ(m.expectedOccupancy(4), 2.0);
    EXPECT_DOUBLE_EQ(m.expectedOccupancy(8), 4.0);
    EXPECT_DOUBLE_EQ(m.probEmpty(4), 0.0);
    EXPECT_EQ(m.maxOccupancy(8), 4);
}

TEST(FixedStructured, PartialBlockIsStochastic)
{
    FixedStructuredDensity m(2, 4);
    // One element of a 2:4 block: empty with probability 1/2.
    EXPECT_NEAR(m.probEmpty(1), 0.5, 1e-9);
    // Two elements: both zero with prob C(2,2)/C(4,2) = 1/6.
    EXPECT_NEAR(m.probEmpty(2), 1.0 / 6.0, 1e-9);
    EXPECT_NEAR(m.expectedOccupancy(2), 1.0, 1e-9);
}

TEST(FixedStructured, DistributionDeterministicOnBlocks)
{
    FixedStructuredDensity m(2, 4);
    auto dist = m.distribution(12);
    EXPECT_NEAR(dist.probOf(6), 1.0, 1e-12);
}

TEST(FixedStructured, RejectsInvalidStructure)
{
    EXPECT_THROW(FixedStructuredDensity(5, 4), FatalError);
    EXPECT_THROW(FixedStructuredDensity(1, 0), FatalError);
}

TEST(FixedStructured, MatchesGeneratedData)
{
    auto data = std::make_shared<SparseTensor>(
        generateStructured({32, 32}, 2, 4, 5));
    ActualDataDensity actual(data);
    FixedStructuredDensity model(2, 4);
    EXPECT_NEAR(model.expectedOccupancy(4),
                actual.expectedOccupancyShaped({1, 4}), 1e-9);
    EXPECT_NEAR(model.probEmpty(4),
                actual.probEmptyShaped({1, 4}), 1e-9);
}

TEST(Banded, DensityMatchesGeometry)
{
    // 8x8 with half-bandwidth 1: band has 8 + 7 + 7 = 22 elements.
    BandedDensity m(8, 8, 1, 1.0);
    EXPECT_NEAR(m.tensorDensity(), 22.0 / 64.0, 1e-9);
    EXPECT_TRUE(m.coordinateDependent());
}

TEST(Banded, OffDiagonalTilesAreEmpty)
{
    BandedDensity m(16, 16, 1, 1.0);
    EXPECT_EQ(m.bandElementsInTile({0, 8}, {4, 4}), 0);
    EXPECT_GT(m.bandElementsInTile({0, 0}, {4, 4}), 0);
    // 4x4 tiling of a 16x16 band: 4 diagonal tiles plus 6 corner
    // touching tiles are non-empty, the remaining 6 of 16 are empty.
    double p_empty = m.probEmptyShaped({4, 4});
    EXPECT_NEAR(p_empty, 6.0 / 16.0, 1e-12);
}

TEST(Banded, MatchesGeneratedData)
{
    auto data = std::make_shared<SparseTensor>(
        generateBanded(32, 32, 2, 1.0, 9));
    ActualDataDensity actual(data);
    BandedDensity model(32, 32, 2, 1.0);
    EXPECT_NEAR(model.tensorDensity(), actual.tensorDensity(), 1e-9);
    EXPECT_NEAR(model.probEmptyShaped({8, 8}),
                actual.probEmptyShaped({8, 8}), 1e-9);
    EXPECT_NEAR(model.expectedOccupancyShaped({8, 8}),
                actual.expectedOccupancyShaped({8, 8}), 1e-9);
}

TEST(ActualData, ExactTileHistogram)
{
    auto data = std::make_shared<SparseTensor>(Shape{4, 4});
    data->set({0, 0}, 1.0);
    data->set({0, 1}, 1.0);
    data->set({3, 3}, 1.0);
    ActualDataDensity m(data);
    auto dist = m.distributionShaped({2, 2});
    // Tiles: (0,0) has 2 nonzeros, (1,1) has 1, two tiles empty.
    EXPECT_NEAR(dist.probOf(0), 0.5, 1e-12);
    EXPECT_NEAR(dist.probOf(1), 0.25, 1e-12);
    EXPECT_NEAR(dist.probOf(2), 0.25, 1e-12);
    EXPECT_EQ(m.maxOccupancyShaped({2, 2}), 2);
}

TEST(ActualData, WholeTensorTile)
{
    auto data = std::make_shared<SparseTensor>(
        generateUniform({8, 8}, 0.5, 3));
    ActualDataDensity m(data);
    EXPECT_NEAR(m.expectedOccupancyShaped({8, 8}),
                static_cast<double>(data->nonzeroCount()), 1e-9);
    EXPECT_DOUBLE_EQ(m.probEmptyShaped({8, 8}), 0.0);
}

TEST(ActualData, RejectsNullTensor)
{
    EXPECT_THROW(ActualDataDensity(nullptr), FatalError);
}

/**
 * Property: Fig. 9 behavior — under a uniform model, larger tiles have
 * density distributions concentrating around the tensor density.
 */
class FiberShapeSweep : public ::testing::TestWithParam<std::int64_t>
{};

TEST_P(FiberShapeSweep, DensityConcentratesWithShape)
{
    const double d = 0.5;
    HypergeometricDensity m(1 << 16, d);
    std::int64_t shape = GetParam();
    auto dist = m.distribution(shape);
    EXPECT_NEAR(dist.totalMass(), 1.0, 1e-9);
    // Variance of the tile density shrinks as the tile grows.
    double mean = dist.mean() / shape;
    double var = 0.0;
    for (const auto &kv : dist.pmf) {
        double dens = static_cast<double>(kv.first) / shape;
        var += kv.second * (dens - mean) * (dens - mean);
    }
    // Hypergeometric density variance ~ d(1-d)/s.
    EXPECT_NEAR(var, d * (1 - d) / shape, 0.05 / shape);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FiberShapeSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

/** One density model under the shared property suite. */
struct ModelCase
{
    std::string name;
    DensityModelPtr (*make)();
    /** Tensor size N (whole-tensor occupancy / N = tensor density). */
    std::int64_t tensor_elems;
    /** Whether `distribution(n).mean()` is the exact occupancy law. */
    bool exact_mean;
};

class DensityModelProperties : public ::testing::TestWithParam<ModelCase>
{};

TEST_P(DensityModelProperties, DistributionAgreesWithScalarQueries)
{
    const ModelCase &c = GetParam();
    DensityModelPtr m = c.make();
    double prev_occupancy = 0.0;
    double prev_empty = 1.0;
    for (std::int64_t n :
         {1, 2, 3, 4, 8, 16, 64, 100, 256, 1024, 4096}) {
        SCOPED_TRACE("tile " + std::to_string(n));
        OccupancyDistribution dist = m->distribution(n);
        EXPECT_NEAR(dist.totalMass(), 1.0, 1e-9);
        EXPECT_NEAR(dist.probEmpty(), m->probEmpty(n), 1e-9);
        ASSERT_FALSE(dist.pmf.empty());
        EXPECT_LE(dist.pmf.rbegin()->first, m->maxOccupancy(n));
        EXPECT_LE(m->maxOccupancy(n), n);
        if (c.exact_mean) {
            EXPECT_NEAR(dist.mean(), m->expectedOccupancy(n),
                        1e-9 * std::max(1.0, m->expectedOccupancy(n)));
        }
        // Larger tiles hold no fewer nonzeros and are no likelier empty.
        EXPECT_GE(m->expectedOccupancy(n), prev_occupancy - 1e-12);
        EXPECT_LE(m->probEmpty(n), prev_empty + 1e-12);
        prev_occupancy = m->expectedOccupancy(n);
        prev_empty = m->probEmpty(n);
    }
    const auto N = c.tensor_elems;
    EXPECT_NEAR(m->expectedOccupancy(N) / static_cast<double>(N),
                m->tensorDensity(), 1e-9);
}

// Banded's mean is left unchecked: its distribution is the two-point
// surrogate (empty, or the conditional mean rounded to a whole count),
// whose mean differs from `expectedOccupancy` (0.223 vs 0.170 at n = 2).
INSTANTIATE_TEST_SUITE_P(
    Models, DensityModelProperties,
    ::testing::Values(
        ModelCase{"uniform_0_3",
                  [] { return makeUniformDensity(4096, 0.3); }, 4096,
                  true},
        ModelCase{"uniform_0_02",
                  [] { return makeUniformDensity(4096, 0.02); }, 4096,
                  true},
        ModelCase{"structured_2_4",
                  [] { return makeStructuredDensity(2, 4); }, 4096, true},
        ModelCase{"banded_64x64_hb3",
                  [] { return makeBandedDensity(64, 64, 3, 0.8); }, 4096,
                  false},
        ModelCase{"actual_64x64_0_3",
                  [] {
                      return makeActualDataDensity(
                          std::make_shared<SparseTensor>(
                              generateUniform({64, 64}, 0.3, 91)));
                  },
                  4096, true}),
    [](const ::testing::TestParamInfo<ModelCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace sparseloop
