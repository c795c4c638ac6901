/**
 * @file
 * Tests for the concrete encoders, including cross-validation of the
 * statistical format models against exact encodings of actual data —
 * the strongest evidence that the format analyzer's math is right.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "density/actual_data.hh"
#include "format/encode.hh"
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

TEST(Encode, UncompressedStoresEverything)
{
    auto t = generateUniform({8, 8}, 0.3, 1);
    auto enc = encodeTensor(t, makeUncompressed(2));
    EXPECT_EQ(enc.data_words, 64);
    EXPECT_EQ(enc.metadataBits(), 0);
    EXPECT_NEAR(enc.compressionRate(64, 16), 1.0, 1e-12);
}

TEST(Encode, RanklessFormatIsFatal)
{
    auto t = generateUniform({8, 8}, 0.3, 1);
    EXPECT_THROW(encodeTensor(t, TensorFormat()), FatalError);
}

TEST(Encode, BitmaskExact)
{
    auto t = generateUniform({8, 8}, 0.25, 2);
    // 2-rank bitmask: row mask (8 bits) + per-present-row masks.
    auto enc = encodeTensor(t, makeBitmask(2));
    EXPECT_EQ(enc.data_words, t.nonzeroCount());
    // Rank 0: 8 bits; rank 1: 8 bits per non-empty row.
    std::int64_t nonempty_rows = 0;
    for (std::int64_t i = 0; i < 8; ++i) {
        if (t.tileNonzeroCount({i, 0}, {1, 8}) > 0) {
            ++nonempty_rows;
        }
    }
    EXPECT_EQ(enc.per_rank_metadata_bits[0], 8);
    EXPECT_EQ(enc.per_rank_metadata_bits[1], nonempty_rows * 8);
}

TEST(Encode, CsrHandComputed)
{
    // 4x4 matrix with nonzeros at (0,0), (0,2), (2,3).
    SparseTensor t({4, 4});
    t.set({0, 0}, 1.0);
    t.set({0, 2}, 2.0);
    t.set({2, 3}, 3.0);
    auto enc = encodeTensor(t, makeCsr());
    EXPECT_EQ(enc.data_words, 3);
    // UOP rank: (4+1) offsets x ceil(log2(16+1)) = 5 bits each.
    EXPECT_EQ(enc.per_rank_metadata_bits[0], 5 * 5);
    // CP rank: 3 coords x 2 bits.
    EXPECT_EQ(enc.per_rank_metadata_bits[1], 3 * 2);
}

TEST(Encode, CooStoresFlattenedCoordinates)
{
    SparseTensor t({4, 4});
    t.set({1, 1}, 1.0);
    t.set({3, 2}, 1.0);
    auto enc = encodeTensor(t, makeCoo());
    EXPECT_EQ(enc.data_words, 2);
    // Flattened 16-coordinate space -> 4-bit coordinates, 2 entries.
    EXPECT_EQ(enc.metadataBits(), 2 * 4);
}

TEST(Encode, RlePadsLongRuns)
{
    // 1D vector of 32 with nonzeros at 0 and 20; 2-bit run lengths can
    // encode runs up to 3, so the gap of 19 zeros needs padding.
    SparseTensor t({32});
    t.set({0}, 1.0);
    t.set({20}, 2.0);
    auto enc = encodeTensor(t, makeRunLength(1, 2));
    // Gap 19: 19 / 4 = 4 pad entries + the real entry.
    EXPECT_EQ(enc.data_words, 2 + 4);
    EXPECT_EQ(enc.metadataBits(), (2 + 4) * 2);
}

TEST(Encode, EmptyTensorCosts)
{
    SparseTensor t({8, 8});
    // CSR of an empty matrix: row pointers still exist.
    auto enc = encodeTensor(t, makeCsr());
    EXPECT_EQ(enc.data_words, 0);
    EXPECT_GT(enc.per_rank_metadata_bits[0], 0);
    EXPECT_EQ(enc.per_rank_metadata_bits[1], 0);
    // Uncompressed empty tensor stores all the zeros.
    auto u = encodeTensor(t, makeUncompressed(2));
    EXPECT_EQ(u.data_words, 64);
}

TEST(Encode, UncompressedOuterRankMaterializesEmptyRows)
{
    // U-B: dense rows, each with a bitmask.
    SparseTensor t({4, 8});
    t.set({1, 3}, 1.0);
    TensorFormat ub({rf(RankFormatKind::U), rf(RankFormatKind::B)});
    auto enc = encodeTensor(t, ub);
    // All 4 rows carry an 8-bit mask, even the 3 empty ones.
    EXPECT_EQ(enc.per_rank_metadata_bits[1], 4 * 8);
    EXPECT_EQ(enc.data_words, 1);
}

/**
 * Cross-validation: the statistical format model driven by the
 * actual-data density model must predict the exact encoded size
 * within a few percent for every classic format.
 */
class StatVsExact : public ::testing::TestWithParam<int>
{};

TEST_P(StatVsExact, StatisticalModelTracksExactEncoding)
{
    std::vector<TensorFormat> fmts{makeCsr(), makeCoo(),
                                   makeBitmask(2), makeCsf(2),
                                   makeRunLength(1, 6), makeCsb()};
    const auto &fmt = fmts[GetParam()];
    auto data = std::make_shared<SparseTensor>(
        generateUniform({32, 32}, 0.15, 99));
    auto enc = encodeTensor(*data, fmt);

    ActualDataDensity model(data);
    auto extents = fmt.flattenExtents({32, 32});
    auto stats = fmt.tileStats(model, extents);

    EXPECT_LT(math::relativeError(stats.data_words,
                                  static_cast<double>(enc.data_words)),
              0.02)
        << fmt.name();
    EXPECT_LT(math::relativeError(
                  stats.metadata_bits,
                  static_cast<double>(enc.metadataBits())),
              0.12)
        << fmt.name() << " stat=" << stats.metadata_bits
        << " exact=" << enc.metadataBits();
}

INSTANTIATE_TEST_SUITE_P(Formats, StatVsExact, ::testing::Range(0, 6));

/** Compression rates from exact encodings follow the Fig. 1 trend. */
TEST(Encode, CompressionRateImprovesWithSparsity)
{
    double prev = 0.0;
    for (double d : {0.5, 0.25, 0.1, 0.05}) {
        auto t = generateUniform({64, 64}, d, 7);
        auto enc = encodeTensor(t, makeCsr());
        double rate = enc.compressionRate(64 * 64, 16);
        EXPECT_GT(rate, prev);
        prev = rate;
    }
}

} // namespace
} // namespace sparseloop
