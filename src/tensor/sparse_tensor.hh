/**
 * @file
 * A simple sparse tensor container used as the "actual data" substrate:
 * the actual-data density model, the fibertree, and the cycle-level
 * reference simulators all operate on it.
 */

#ifndef SPARSELOOP_TENSOR_SPARSE_TENSOR_HH
#define SPARSELOOP_TENSOR_SPARSE_TENSOR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tensor/point.hh"

namespace sparseloop {

/**
 * Sparse tensor of doubles with explicit nonzero storage.
 *
 * Values are keyed by the row-major flattened coordinate. Zero writes
 * are dropped so the nonzero set always reflects the logical content.
 */
class SparseTensor
{
  public:
    /** Construct an all-zero tensor with the given per-rank extents.
     *  Throws `FatalError` on an empty shape or an extent below 1. */
    explicit SparseTensor(Shape shape);

    const Shape &shape() const { return shape_; }
    std::int64_t rankCount() const
    {
        return static_cast<std::int64_t>(shape_.size());
    }
    std::int64_t elementCount() const { return volume(shape_); }
    std::int64_t nonzeroCount() const
    {
        return static_cast<std::int64_t>(values_.size());
    }
    double density() const
    {
        return elementCount() == 0
            ? 0.0
            : static_cast<double>(nonzeroCount()) /
              static_cast<double>(elementCount());
    }

    /** Set the value at a coordinate (zero erases the entry). */
    void set(const Point &p, double value);

    /** Read the value at a coordinate (zero if absent). */
    double at(const Point &p) const;

    /** Whether a coordinate holds a nonzero. */
    bool isNonzero(const Point &p) const;

    /** Flattened-index variants (row-major within shape()). */
    void setFlat(std::int64_t idx, double value);
    double atFlat(std::int64_t idx) const;
    bool isNonzeroFlat(std::int64_t idx) const;

    /** Sorted flattened indices of all nonzeros. */
    std::vector<std::int64_t> sortedNonzeroIndices() const;

    /** Nonzero coordinates, sorted in row-major order. */
    std::vector<Point> sortedNonzeroPoints() const;

    /**
     * Count nonzeros inside the axis-aligned tile whose origin is
     * @p origin and per-rank extents are @p extents (clipped to the
     * tensor bounds).
     */
    std::int64_t tileNonzeroCount(const Point &origin,
                                  const Shape &extents) const;

    /** Whether the given tile contains no nonzero at all. */
    bool tileEmpty(const Point &origin, const Shape &extents) const
    {
        return tileNonzeroCount(origin, extents) == 0;
    }

  private:
    Shape shape_;
    std::unordered_map<std::int64_t, double> values_;
};

} // namespace sparseloop

#endif // SPARSELOOP_TENSOR_SPARSE_TENSOR_HH
