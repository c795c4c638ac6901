/**
 * @file
 * Unit tests for per-rank format models and hierarchical tensor
 * formats, including compression-rate sanity against hand-computed
 * encodings and against actual data.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "common/small_vector.hh"
#include "density/actual_data.hh"
#include "density/hypergeometric.hh"
#include "format/rank_format.hh"
#include "format/tensor_format.hh"
#include "tensor/generate.hh"

namespace sparseloop {
namespace {

RankFormat
rf(RankFormatKind kind, int bits = 0)
{
    RankFormat r;
    r.kind = kind;
    r.explicit_bits = bits;
    return r;
}

TEST(RankFormat, UncompressedHasNoMetadata)
{
    EXPECT_DOUBLE_EQ(rf(RankFormatKind::U).fiberMetadataBits(
                         64, 16, 64, 0.25), 0.0);
    EXPECT_FALSE(rf(RankFormatKind::U).compressed());
}

TEST(RankFormat, BitmaskIsOneBitPerCoordinate)
{
    // B overhead is shape bits regardless of occupancy (Sec. 5.3.3).
    auto b = rf(RankFormatKind::B);
    EXPECT_DOUBLE_EQ(b.fiberMetadataBits(64, 1, 64, 0.01), 64.0);
    EXPECT_DOUBLE_EQ(b.fiberMetadataBits(64, 60, 64, 0.9), 64.0);
    EXPECT_TRUE(b.compressed());
}

TEST(RankFormat, UncompressedBitmaskKeepsAllPayloads)
{
    auto ub = rf(RankFormatKind::UB);
    EXPECT_DOUBLE_EQ(ub.fiberMetadataBits(32, 4, 32, 0.125), 32.0);
    EXPECT_FALSE(ub.compressed());
}

TEST(RankFormat, CoordinatePayloadScalesWithOccupancy)
{
    auto cp = rf(RankFormatKind::CP);
    // 64 coordinates -> 6-bit coordinates.
    EXPECT_DOUBLE_EQ(cp.fiberMetadataBits(64, 16, 64, 0.25), 16.0 * 6);
    EXPECT_DOUBLE_EQ(cp.fiberMetadataBits(64, 0, 64, 0.25), 0.0);
}

TEST(RankFormat, CoordinatePayloadExplicitBits)
{
    auto cp = rf(RankFormatKind::CP, 2);  // e.g. STC 2-bit offsets
    EXPECT_DOUBLE_EQ(cp.fiberMetadataBits(4, 2, 4, 0.5), 4.0);
}

TEST(RankFormat, RlePerNonzeroRunLength)
{
    auto rle = rf(RankFormatKind::RLE, 5);
    // Dense-ish fiber: no overflow padding expected.
    double bits = rle.fiberMetadataBits(64, 32, 64, 0.5);
    EXPECT_NEAR(bits, 32.0 * 5, 1.0);
}

TEST(RankFormat, RleOverflowPaddingGrowsWithSparsity)
{
    // Very sparse fiber with tiny run-length field: lots of padding.
    double pad_small = rleExpectedPadding(10, 0.5, 2);
    double pad_large = rleExpectedPadding(10, 0.01, 2);
    EXPECT_LT(pad_small, pad_large);
    EXPECT_DOUBLE_EQ(rleExpectedPadding(0.0, 0.1, 2), 0.0);
}

TEST(RankFormat, UopOffsetsPerCoordinate)
{
    auto uop = rf(RankFormatKind::UOP);
    // shape+1 offsets, each ceil(log2(space + 1)) bits.
    double bits = uop.fiberMetadataBits(8, 4, 64, 0.5);
    EXPECT_DOUBLE_EQ(bits, 9.0 * math::ceilLog2(65));
}

TEST(TensorFormat, NamesFollowRanks)
{
    EXPECT_EQ(makeCsr().name(), "CSR(UOP-CP)");
    TensorFormat f({rf(RankFormatKind::B), rf(RankFormatKind::RLE)});
    EXPECT_EQ(f.name(), "B-RLE");
}

TEST(TensorFormat, FlattenExtentsPadsAndFlattens)
{
    TensorFormat csr = makeCsr();  // 2 format ranks
    // 4D tensor tile -> outer rank + flattened inner 3 ranks.
    auto flat = csr.flattenExtents({2, 3, 4, 5});
    EXPECT_EQ(flat, (std::vector<std::int64_t>{2, 60}));
    // 1D tensor tile -> padded outer rank.
    auto pad = csr.flattenExtents({7});
    EXPECT_EQ(pad, (std::vector<std::int64_t>{1, 7}));
    // A format without ranks has no rank to flatten into: a user
    // error, not a write before the extent buffer.
    TensorFormat none;
    EXPECT_THROW(none.flattenExtents({4, 4}), FatalError);
    TileExtents out;
    const std::int64_t extents[] = {4, 4};
    EXPECT_THROW(none.flattenExtentsInto(extents, 2, out), FatalError);
}

TEST(TensorFormat, UncompressedTileStats)
{
    HypergeometricDensity model(4096, 0.25);
    auto fmt = makeUncompressed(2);
    auto stats = fmt.tileStats(model, {8, 8});
    EXPECT_DOUBLE_EQ(stats.data_words, 64.0);
    EXPECT_DOUBLE_EQ(stats.metadata_bits, 0.0);
    EXPECT_DOUBLE_EQ(stats.compressionRate(16), 1.0);
}

TEST(TensorFormat, BitmaskTileStats)
{
    HypergeometricDensity model(4096, 0.25);
    auto fmt = makeBitmask(1);
    auto stats = fmt.tileStats(model, {64});
    EXPECT_NEAR(stats.data_words, 16.0, 1e-6);
    EXPECT_DOUBLE_EQ(stats.metadata_bits, 64.0);
    // 16-bit data: dense = 1024 bits; encoded = 256 + 64 bits.
    EXPECT_NEAR(stats.compressionRate(16), 1024.0 / 320.0, 1e-6);
}

TEST(TensorFormat, CsrTileStats)
{
    HypergeometricDensity model(64 * 64, 0.1);
    auto fmt = makeCsr();
    auto stats = fmt.tileStats(model, {64, 64});
    // ~10% of 4096 elements stored.
    EXPECT_NEAR(stats.data_words, 409.6, 2.0);
    EXPECT_GT(stats.metadata_bits, 0.0);
    EXPECT_GT(stats.compressionRate(16), 1.0);
}

TEST(TensorFormat, WorstCaseGeqExpected)
{
    HypergeometricDensity model(4096, 0.3);
    for (const auto &fmt :
         {makeCsr(), makeBitmask(2), makeCoo(), makeCsf(2)}) {
        auto extents = fmt.flattenExtents({32, 32});
        auto expected = fmt.tileStats(model, extents,
                                      OccupancyEstimate::Expected);
        auto worst = fmt.tileStats(model, extents,
                                   OccupancyEstimate::WorstCase);
        EXPECT_GE(worst.data_words + 1e-9, expected.data_words)
            << fmt.name();
    }
}

TEST(TensorFormat, CompressionImprovesWithSparsity)
{
    auto fmt = makeCoordinateList();
    double prev = 0.0;
    for (double d : {0.8, 0.4, 0.2, 0.1, 0.05}) {
        HypergeometricDensity model(4096, d);
        auto stats = fmt.tileStats(model, {4096});
        double rate = stats.compressionRate(16);
        EXPECT_GT(rate, prev) << "density " << d;
        prev = rate;
    }
}

TEST(TensorFormat, CoordListOverheadHurtsAtHighDensity)
{
    // The Fig. 1 effect: CP metadata makes dense tensors *bigger*.
    auto fmt = makeCoordinateList();
    HypergeometricDensity model(4096, 0.9);
    auto stats = fmt.tileStats(model, {4096});
    EXPECT_LT(stats.compressionRate(16), 1.0);
}

TEST(TensorFormat, MatchesActualDataEncoding)
{
    // Build CSR for actual data and compare stored words with the
    // statistical estimate driven by the actual-data model.
    auto data = std::make_shared<SparseTensor>(
        generateUniform({32, 32}, 0.2, 21));
    ActualDataDensity model(data);
    auto fmt = makeCsr();
    auto stats = fmt.tileStats(model, {32, 32});
    EXPECT_NEAR(stats.data_words,
                static_cast<double>(data->nonzeroCount()), 1e-6);
}

TEST(TensorFormat, MetadataWordsPerDataWordPositiveForCompressed)
{
    HypergeometricDensity model(4096, 0.25);
    EXPECT_GT(makeCsr().metadataWordsPerDataWord(model, {64, 64}, 16),
              0.0);
    EXPECT_DOUBLE_EQ(makeUncompressed(2).metadataWordsPerDataWord(
                         model, {64, 64}, 16), 0.0);
}

/** Table 2 formats can be instantiated and used end to end. */
class ClassicFormats : public ::testing::TestWithParam<int>
{};

TEST_P(ClassicFormats, ProducesFiniteStats)
{
    std::vector<TensorFormat> fmts{makeCsr(), makeCoo(), makeCsb(),
                                   makeCsf(3), makeBitmask(2),
                                   makeRunLength(1, 5)};
    const auto &fmt = fmts[GetParam()];
    HypergeometricDensity model(8 * 8 * 8, 0.15);
    auto extents = fmt.flattenExtents({8, 8, 8});
    auto stats = fmt.tileStats(model, extents);
    EXPECT_GE(stats.data_words, 0.0);
    EXPECT_GE(stats.metadata_bits, 0.0);
    EXPECT_TRUE(std::isfinite(stats.metadata_bits));
    EXPECT_TRUE(std::isfinite(stats.data_words));
}

INSTANTIATE_TEST_SUITE_P(All, ClassicFormats, ::testing::Range(0, 6));

} // namespace
} // namespace sparseloop
