/**
 * @file
 * SparseTensor implementation.
 */

#include "tensor/sparse_tensor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sparseloop {

SparseTensor::SparseTensor(Shape shape)
    : shape_(std::move(shape))
{
    if (shape_.empty()) {
        SL_FATAL("tensor must have at least one rank");
    }
    for (std::size_t r = 0; r < shape_.size(); ++r) {
        if (shape_[r] < 1) {
            SL_FATAL("tensor extents must be positive, got ", shape_[r],
                     " at rank ", r);
        }
    }
}

void
SparseTensor::set(const Point &p, double value)
{
    setFlat(flatten(p, shape_), value);
}

double
SparseTensor::at(const Point &p) const
{
    return atFlat(flatten(p, shape_));
}

bool
SparseTensor::isNonzero(const Point &p) const
{
    return isNonzeroFlat(flatten(p, shape_));
}

void
SparseTensor::setFlat(std::int64_t idx, double value)
{
    SL_ASSERT(idx >= 0 && idx < elementCount(), "index out of bounds");
    if (value == 0.0) {
        values_.erase(idx);
    } else {
        values_[idx] = value;
    }
}

double
SparseTensor::atFlat(std::int64_t idx) const
{
    auto it = values_.find(idx);
    return it == values_.end() ? 0.0 : it->second;
}

bool
SparseTensor::isNonzeroFlat(std::int64_t idx) const
{
    return values_.find(idx) != values_.end();
}

std::vector<std::int64_t>
SparseTensor::sortedNonzeroIndices() const
{
    std::vector<std::int64_t> idxs;
    idxs.reserve(values_.size());
    for (const auto &kv : values_) {
        idxs.push_back(kv.first);
    }
    std::sort(idxs.begin(), idxs.end());
    return idxs;
}

std::vector<Point>
SparseTensor::sortedNonzeroPoints() const
{
    std::vector<Point> pts;
    auto idxs = sortedNonzeroIndices();
    pts.reserve(idxs.size());
    for (auto idx : idxs) {
        pts.push_back(unflatten(idx, shape_));
    }
    return pts;
}

std::int64_t
SparseTensor::tileNonzeroCount(const Point &origin,
                               const Shape &extents) const
{
    SL_ASSERT(origin.size() == shape_.size() &&
              extents.size() == shape_.size(),
              "tile rank mismatch");
    // Clip tile to tensor bounds.
    Shape clipped(extents.size());
    std::int64_t tile_vol = 1;
    for (std::size_t r = 0; r < extents.size(); ++r) {
        std::int64_t hi = std::min(origin[r] + extents[r], shape_[r]);
        clipped[r] = std::max<std::int64_t>(0, hi - origin[r]);
        tile_vol *= clipped[r];
    }
    if (tile_vol == 0) {
        return 0;
    }
    // When the tile is larger than the nonzero set, iterate nonzeros
    // instead of tile points.
    if (tile_vol > nonzeroCount()) {
        std::int64_t count = 0;
        for (const auto &kv : values_) {
            Point p = unflatten(kv.first, shape_);
            bool inside = true;
            for (std::size_t r = 0; r < p.size(); ++r) {
                if (p[r] < origin[r] || p[r] >= origin[r] + clipped[r]) {
                    inside = false;
                    break;
                }
            }
            if (inside) {
                ++count;
            }
        }
        return count;
    }
    std::int64_t count = 0;
    for (std::int64_t i = 0; i < tile_vol; ++i) {
        Point local = unflatten(i, clipped);
        Point global(local.size());
        for (std::size_t r = 0; r < local.size(); ++r) {
            global[r] = origin[r] + local[r];
        }
        if (isNonzero(global)) {
            ++count;
        }
    }
    return count;
}

} // namespace sparseloop
