/**
 * @file
 * Hierarchical tensor format implementation.
 */

#include "format/tensor_format.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace sparseloop {

TensorFormat::TensorFormat(std::vector<RankFormat> ranks, std::string name)
    : ranks_(std::move(ranks)), name_(std::move(name))
{
    if (name_.empty()) {
        for (std::size_t i = 0; i < ranks_.size(); ++i) {
            if (i) {
                name_ += "-";
            }
            name_ += toString(ranks_[i].kind);
        }
    }
}

bool
TensorFormat::anyCompressed() const
{
    return std::any_of(ranks_.begin(), ranks_.end(),
                       [](const RankFormat &r) { return r.compressed(); });
}

TileFormatStats
TensorFormat::tileStats(const DensityModel &model,
                        const std::vector<std::int64_t> &rank_extents,
                        OccupancyEstimate estimate) const
{
    SL_ASSERT(rank_extents.size() == ranks_.size(),
              "rank extent count mismatch: ", rank_extents.size(), " vs ",
              ranks_.size());
    std::size_t n = ranks_.size();

    TileFormatStats stats;
    std::int64_t tile_elems = 1;
    for (auto e : rank_extents) {
        SL_ASSERT(e >= 1, "non-positive rank extent");
        tile_elems *= e;
    }
    stats.dense_words = tile_elems;
    stats.per_rank_metadata_bits.assign(n, 0.0);

    double d = model.tensorDensity();
    bool worst = estimate == OccupancyEstimate::WorstCase;
    double max_occ_tile =
        static_cast<double>(model.maxOccupancy(tile_elems));

    // present[i]: materialized rank-i units (i in [0, n], where level n
    // is the leaf data). fibers at rank i = present[i-1].
    std::vector<double> present(n + 1, 0.0);
    double prev_present = 1.0;      // one root fiber per tile
    std::int64_t total_units = 1;   // dense units at the current level
    bool compressed_above = false;
    std::int64_t deepest_compressed_below = 0; // subtile size at j*

    for (std::size_t i = 0; i < n; ++i) {
        total_units *= rank_extents[i];
        std::int64_t elems_below = 1;
        for (std::size_t j = i + 1; j < n; ++j) {
            elems_below *= rank_extents[j];
        }
        if (ranks_[i].compressed()) {
            compressed_above = true;
            deepest_compressed_below = elems_below;
        }
        double units;
        if (!compressed_above) {
            units = static_cast<double>(total_units);
        } else if (worst) {
            units = std::min(static_cast<double>(total_units),
                             max_occ_tile);
        } else {
            double p_empty = model.probEmpty(deepest_compressed_below);
            units = static_cast<double>(total_units) * (1.0 - p_empty);
        }
        present[i] = units;

        double fibers = prev_present;
        double occ = fibers > 0.0 ? units / fibers : 0.0;
        std::int64_t payload_space = rank_extents[i] * elems_below;
        stats.per_rank_metadata_bits[i] =
            fibers * ranks_[i].fiberMetadataBits(rank_extents[i], occ,
                                                 payload_space, d);
        stats.metadata_bits += stats.per_rank_metadata_bits[i];
        prev_present = units;
    }
    stats.data_words = present[n - 1];
    return stats;
}

void
TensorFormat::tileStatsPair(const DensityModel &model,
                            const std::int64_t *rank_extents,
                            std::size_t count,
                            TileFormatStats &expected,
                            TileFormatStats &worst,
                            ProbEmptyMemo *memo) const
{
    SL_ASSERT(count == ranks_.size(),
              "rank extent count mismatch: ", count, " vs ",
              ranks_.size());
    std::size_t n = ranks_.size();

    std::int64_t tile_elems = 1;
    for (std::size_t i = 0; i < n; ++i) {
        SL_ASSERT(rank_extents[i] >= 1, "non-positive rank extent");
        tile_elems *= rank_extents[i];
    }
    expected.dense_words = tile_elems;
    worst.dense_words = tile_elems;
    expected.metadata_bits = 0.0;
    worst.metadata_bits = 0.0;
    expected.per_rank_metadata_bits.assign(n, 0.0);
    worst.per_rank_metadata_bits.assign(n, 0.0);

    double d = model.tensorDensity();
    double max_occ_tile =
        static_cast<double>(model.maxOccupancy(tile_elems));

    // Two materialized-unit chains (tileStats' `present` recurrence),
    // one per estimate; all shared quantities are computed once.
    double prev_e = 1.0;
    double prev_w = 1.0;
    double units_e = 0.0;
    double units_w = 0.0;
    std::int64_t total_units = 1;
    // Suffix volume below rank i via exact integer division of the
    // total tile volume — same values tileStats derives by an inner
    // product loop.
    std::int64_t elems_below = tile_elems;
    bool compressed_above = false;
    std::int64_t deepest_compressed_below = 0;
    // probEmpty is a pure function of the subtile volume; memoize the
    // last (volume, result) pair since consecutive ranks often share
    // their deepest compressed subtile.
    std::int64_t memo_subtile = -1;
    double memo_p_empty = 0.0;

    for (std::size_t i = 0; i < n; ++i) {
        total_units *= rank_extents[i];
        elems_below /= rank_extents[i];
        if (ranks_[i].compressed()) {
            compressed_above = true;
            deepest_compressed_below = elems_below;
        }
        if (!compressed_above) {
            units_e = static_cast<double>(total_units);
            units_w = units_e;
        } else {
            units_w = std::min(static_cast<double>(total_units),
                               max_occ_tile);
            if (deepest_compressed_below != memo_subtile) {
                memo_subtile = deepest_compressed_below;
                if (!memo || !memo->lookup(memo_subtile, memo_p_empty)) {
                    memo_p_empty = model.probEmpty(memo_subtile);
                    if (memo) {
                        memo->insert(memo_subtile, memo_p_empty);
                    }
                }
            }
            units_e = static_cast<double>(total_units) *
                      (1.0 - memo_p_empty);
        }
        std::int64_t payload_space = rank_extents[i] * elems_below;
        double occ_e = prev_e > 0.0 ? units_e / prev_e : 0.0;
        double bits_e =
            prev_e * ranks_[i].fiberMetadataBits(rank_extents[i], occ_e,
                                                 payload_space, d);
        expected.per_rank_metadata_bits[i] = bits_e;
        expected.metadata_bits += bits_e;
        double occ_w = prev_w > 0.0 ? units_w / prev_w : 0.0;
        double bits_w =
            prev_w * ranks_[i].fiberMetadataBits(rank_extents[i], occ_w,
                                                 payload_space, d);
        worst.per_rank_metadata_bits[i] = bits_w;
        worst.metadata_bits += bits_w;
        prev_e = units_e;
        prev_w = units_w;
    }
    expected.data_words = units_e;
    worst.data_words = units_w;
}

double
TensorFormat::metadataWordsPerDataWord(
        const DensityModel &model,
        const std::vector<std::int64_t> &rank_extents, int data_bits) const
{
    TileFormatStats stats = tileStats(model, rank_extents);
    if (stats.data_words <= 0.0) {
        return 0.0;
    }
    return stats.metadataWords(data_bits) / stats.data_words;
}

namespace {

RankFormat
rank(RankFormatKind kind, int bits = 0)
{
    RankFormat r;
    r.kind = kind;
    r.explicit_bits = bits;
    return r;
}

} // namespace

TensorFormat
makeUncompressed(std::size_t rank_count)
{
    std::vector<RankFormat> ranks(rank_count, rank(RankFormatKind::U));
    return TensorFormat(std::move(ranks), "U");
}

TensorFormat
makeBitmask(std::size_t rank_count)
{
    std::vector<RankFormat> ranks(rank_count, rank(RankFormatKind::B));
    return TensorFormat(std::move(ranks));
}

TensorFormat
makeUncompressedBitmask(std::size_t rank_count)
{
    std::vector<RankFormat> ranks(rank_count, rank(RankFormatKind::UB));
    return TensorFormat(std::move(ranks));
}

TensorFormat
makeCsr()
{
    return TensorFormat({rank(RankFormatKind::UOP),
                         rank(RankFormatKind::CP)}, "CSR(UOP-CP)");
}

TensorFormat
makeCoo(std::size_t flattened_ranks)
{
    (void)flattened_ranks;
    return TensorFormat({rank(RankFormatKind::CP)}, "COO(CP^n)");
}

TensorFormat
makeCsb()
{
    return TensorFormat({rank(RankFormatKind::UOP),
                         rank(RankFormatKind::CP),
                         rank(RankFormatKind::CP)}, "CSB(UOP-CP-CP)");
}

TensorFormat
makeCsf(std::size_t rank_count)
{
    std::vector<RankFormat> ranks(rank_count, rank(RankFormatKind::CP));
    return TensorFormat(std::move(ranks), "CSF(CP^n)");
}

TensorFormat
makeRunLength(std::size_t rank_count, int run_bits)
{
    std::vector<RankFormat> ranks(rank_count,
                                  rank(RankFormatKind::RLE, run_bits));
    return TensorFormat(std::move(ranks));
}

TensorFormat
makeCoordinateList(int coord_bits)
{
    return TensorFormat({rank(RankFormatKind::CP, coord_bits)},
                        "CoordList(CP)");
}


std::uint64_t
TensorFormat::signature() const
{
    std::uint64_t h = math::hashCombine(math::kHashSeed, ranks_.size());
    for (const RankFormat &rank : ranks_) {
        h = math::hashCombine(h, static_cast<std::uint64_t>(rank.kind));
        h = math::hashCombine(h,
                              static_cast<std::uint64_t>(rank.explicit_bits));
    }
    return h;
}

} // namespace sparseloop
