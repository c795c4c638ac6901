/**
 * @file
 * Actual-data density model implementation.
 */

#include "density/actual_data.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace sparseloop {

ActualDataDensity::ActualDataDensity(
        std::shared_ptr<const SparseTensor> data)
    : data_(std::move(data))
{
    if (data_ == nullptr) {
        SL_FATAL("actual-data density model needs a tensor, got null");
    }
}

double
ActualDataDensity::tensorDensity() const
{
    return data_->density();
}

Shape
ActualDataDensity::defaultTileShape(std::int64_t tile_elems) const
{
    // Fill ranks innermost-first (row-major contiguity).
    const Shape &full = data_->shape();
    Shape tile(full.size(), 1);
    std::int64_t remaining = std::max<std::int64_t>(1, tile_elems);
    for (std::size_t r = full.size(); r-- > 0 && remaining > 1;) {
        std::int64_t take = std::min(remaining, full[r]);
        tile[r] = take;
        remaining = (remaining + take - 1) / take;
    }
    return tile;
}

OccupancyDistribution
ActualDataDensity::distributionShaped(const Shape &extents) const
{
    const Shape &full = data_->shape();
    SL_ASSERT(extents.size() == full.size(), "tile rank mismatch");
    // Number of aligned tiles along each rank.
    Shape tiles(full.size());
    std::int64_t total_tiles = 1;
    for (std::size_t r = 0; r < full.size(); ++r) {
        std::int64_t e = std::max<std::int64_t>(1, extents[r]);
        tiles[r] = (full[r] + e - 1) / e;
        total_tiles *= tiles[r];
    }
    // One pass over nonzeros: bucket each into its tile.
    std::unordered_map<std::int64_t, std::int64_t> occ_per_tile;
    for (const auto &p : data_->sortedNonzeroPoints()) {
        std::int64_t tile_idx = 0;
        for (std::size_t r = 0; r < full.size(); ++r) {
            std::int64_t e = std::max<std::int64_t>(1, extents[r]);
            tile_idx = tile_idx * tiles[r] + p[r] / e;
        }
        occ_per_tile[tile_idx] += 1;
    }
    OccupancyDistribution dist;
    auto nonempty = static_cast<std::int64_t>(occ_per_tile.size());
    if (total_tiles > nonempty) {
        dist.pmf[0] = static_cast<double>(total_tiles - nonempty) /
                      static_cast<double>(total_tiles);
    }
    for (const auto &kv : occ_per_tile) {
        dist.pmf[kv.second] += 1.0 / static_cast<double>(total_tiles);
    }
    return dist;
}

double
ActualDataDensity::expectedOccupancyShaped(const Shape &extents) const
{
    return distributionShaped(extents).mean();
}

double
ActualDataDensity::probEmptyShaped(const Shape &extents) const
{
    return distributionShaped(extents).probEmpty();
}

std::int64_t
ActualDataDensity::maxOccupancyShaped(const Shape &extents) const
{
    return distributionShaped(extents).max();
}

double
ActualDataDensity::expectedOccupancy(std::int64_t tile_elems) const
{
    return expectedOccupancyShaped(defaultTileShape(tile_elems));
}

double
ActualDataDensity::probEmpty(std::int64_t tile_elems) const
{
    return probEmptyShaped(defaultTileShape(tile_elems));
}

std::int64_t
ActualDataDensity::maxOccupancy(std::int64_t tile_elems) const
{
    return maxOccupancyShaped(defaultTileShape(tile_elems));
}

OccupancyDistribution
ActualDataDensity::distribution(std::int64_t tile_elems) const
{
    return distributionShaped(defaultTileShape(tile_elems));
}

DensityModelPtr
makeActualDataDensity(std::shared_ptr<const SparseTensor> data)
{
    return std::make_shared<ActualDataDensity>(std::move(data));
}


std::uint64_t
ActualDataDensity::signature() const
{
    std::uint64_t h = math::hashString(math::kHashSeed, name());
    return math::hashCombine(h, instanceId());
}

} // namespace sparseloop
