/**
 * @file
 * Hypergeometric (uniform) density model implementation.
 */

#include "density/hypergeometric.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace sparseloop {

HypergeometricDensity::HypergeometricDensity(std::int64_t tensor_elems,
                                             double density)
    : tensor_elems_(tensor_elems)
{
    if (tensor_elems_ < 1) {
        SL_FATAL("tensor must have at least one element, got ",
                 tensor_elems_);
    }
    if (density < 0.0 || density > 1.0) {
        SL_FATAL("density must be within [0, 1], got ", density);
    }
    nonzeros_ = std::min<std::int64_t>(
        tensor_elems_,
        static_cast<std::int64_t>(
            std::llround(density * static_cast<double>(tensor_elems_))));
}

double
HypergeometricDensity::tensorDensity() const
{
    return static_cast<double>(nonzeros_) /
           static_cast<double>(tensor_elems_);
}

double
HypergeometricDensity::expectedOccupancy(std::int64_t tile_elems) const
{
    tile_elems = std::min(tile_elems, tensor_elems_);
    return math::hypergeometricMean(tensor_elems_, nonzeros_, tile_elems);
}

double
HypergeometricDensity::probEmpty(std::int64_t tile_elems) const
{
    tile_elems = std::min(tile_elems, tensor_elems_);
    return math::hypergeometricProbEmpty(tensor_elems_, nonzeros_,
                                         tile_elems);
}

std::int64_t
HypergeometricDensity::maxOccupancy(std::int64_t tile_elems) const
{
    tile_elems = std::min(tile_elems, tensor_elems_);
    return math::hypergeometricMax(tensor_elems_, nonzeros_, tile_elems);
}

OccupancyDistribution
HypergeometricDensity::distribution(std::int64_t tile_elems) const
{
    tile_elems = std::min(tile_elems, tensor_elems_);
    OccupancyDistribution dist;
    std::int64_t lo = std::max<std::int64_t>(
        0, tile_elems - (tensor_elems_ - nonzeros_));
    std::int64_t hi = math::hypergeometricMax(tensor_elems_, nonzeros_,
                                              tile_elems);
    for (std::int64_t k = lo; k <= hi; ++k) {
        double p = math::hypergeometricPmf(tensor_elems_, nonzeros_,
                                           tile_elems, k);
        if (p > 0.0) {
            dist.pmf[k] = p;
        }
    }
    return dist;
}

DensityModelPtr
makeUniformDensity(std::int64_t tensor_elems, double density)
{
    return std::make_shared<HypergeometricDensity>(tensor_elems, density);
}


std::uint64_t
HypergeometricDensity::signature() const
{
    std::uint64_t h = math::hashString(math::kHashSeed, name());
    h = math::hashCombine(h, static_cast<std::uint64_t>(tensor_elems_));
    return math::hashCombine(h, static_cast<std::uint64_t>(nonzeros_));
}

} // namespace sparseloop
