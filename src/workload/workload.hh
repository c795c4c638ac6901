/**
 * @file
 * Workload specification (Sec. 5.1): an extended-Einsum tensor algebra
 * kernel described by named iteration dimensions and data spaces
 * (tensors) whose coordinates are affine projections of the iteration
 * space. Matrix multiplication Z[m,n] = sum_k A[m,k] * B[k,n] and
 * CONV7D both fit this form.
 */

#ifndef SPARSELOOP_WORKLOAD_WORKLOAD_HH
#define SPARSELOOP_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "density/density_model.hh"
#include "tensor/point.hh"

namespace sparseloop {

/** One named iteration-space dimension with its bound. */
struct WorkloadDim
{
    std::string name;
    std::int64_t bound = 1;
};

/**
 * Affine projection of the iteration space onto one tensor rank:
 * rank coordinate = sum over terms of coefficient * dim index.
 * A conv input column is (q * stride + s) -> terms {(q, stride), (s, 1)}.
 */
struct ProjectionTerm
{
    int dim = 0;            ///< iteration dimension index
    std::int64_t coef = 1;  ///< multiplier
};

using RankProjection = std::vector<ProjectionTerm>;

/** A tensor participating in the Einsum. */
struct DataSpace
{
    std::string name;
    /** Per-rank projections, outermost rank first. */
    std::vector<RankProjection> projection;
    /** True for the result tensor (read-modify-write semantics). */
    bool is_output = false;
    /** Statistical density model (null means dense). */
    DensityModelPtr density;

    /** Fraction of nonzeros; 1 when no density model is bound. */
    double densityValue() const
    {
        return density ? density->tensorDensity() : 1.0;
    }
};

/**
 * A single-Einsum workload.
 */
class Workload
{
  public:
    /**
     * Fatal (SL_FATAL) on no dimensions, no tensors, a bound below 1,
     * a tensor without a projection or projecting onto an unknown
     * dimension, or other than exactly one output tensor.
     */
    Workload(std::string name, std::vector<WorkloadDim> dims,
             std::vector<DataSpace> tensors);

    const std::string &name() const { return name_; }
    const std::vector<WorkloadDim> &dims() const { return dims_; }
    const std::vector<DataSpace> &tensors() const { return tensors_; }
    DataSpace &tensor(int t) { return tensors_[t]; }
    const DataSpace &tensor(int t) const { return tensors_[t]; }

    int dimCount() const { return static_cast<int>(dims_.size()); }
    int tensorCount() const { return static_cast<int>(tensors_.size()); }

    /** Index of a dimension by name; fatal when absent. */
    int dimIndex(const std::string &name) const;
    /** Index of a tensor by name; fatal when absent. */
    int tensorIndex(const std::string &name) const;
    /** Index of the (single) output tensor. */
    int outputTensor() const;

    /** Whether dimension @p dim appears in tensor @p t's projection. */
    bool dimRelevant(int t, int dim) const
    {
        return relevance_[t][dim];
    }

    /** Total MACs: the product of all dimension bounds. */
    std::int64_t denseComputeCount() const;

    /**
     * Per-rank extents of tensor @p t's tile when each dimension d is
     * tiled to @p dim_tiles[d] consecutive values:
     * extent = 1 + sum coef * (tile_d - 1).
     */
    Shape tensorTileExtents(int t,
                            const std::vector<std::int64_t> &dim_tiles)
                            const;

    /**
     * Allocation-free variant of tensorTileExtents: reads dim tiles
     * from a raw row of the engine's precomputed tile table and writes
     * the per-rank extents into @p out (any vector-like container).
     * Arithmetic is identical, term for term, to tensorTileExtents —
     * the bit-identity contract depends on that.
     */
    template <typename Vec>
    void tensorTileExtentsInto(int t, const std::int64_t *dim_tiles,
                               Vec &out) const
    {
        const auto &proj = tensors_[t].projection;
        out.assign(proj.size(), 1);
        for (std::size_t r = 0; r < proj.size(); ++r) {
            std::int64_t extent = 1;
            for (const auto &term : proj[r]) {
                extent += term.coef * (dim_tiles[term.dim] - 1);
            }
            out[r] = std::max<std::int64_t>(1, extent);
        }
    }

    /** Full tensor shape (tile extents at the full dimension bounds). */
    Shape tensorShape(int t) const;

    /** Number of elements of tensor @p t. */
    std::int64_t tensorVolume(int t) const
    {
        return volume(tensorShape(t));
    }

    /** Project an iteration-space point onto tensor @p t's ranks. */
    Point project(int t, const Point &iter_point) const;

    /** Bind a density model to a tensor. */
    void setDensity(int t, DensityModelPtr model)
    {
        tensors_[t].density = std::move(model);
    }
    void setDensity(const std::string &tensor_name, DensityModelPtr model)
    {
        setDensity(tensorIndex(tensor_name), std::move(model));
    }

    /**
     * Evaluation-cache identity (the "workload id" of an EvalKey):
     * hashes the dimension bounds, tensor projections, and each
     * tensor's density-model signature — but not the decorative
     * workload name, so identically-shaped workloads share cached
     * results. Workloads with equal signatures evaluate identically
     * under any (mapping, SAF) pair. Recomputed on each call; callers
     * in hot loops should hoist it.
     */
    std::uint64_t signature() const;

  private:
    std::string name_;
    std::vector<WorkloadDim> dims_;
    std::vector<DataSpace> tensors_;
    /** relevance_[t][d]: dim d appears in tensor t's projection. */
    std::vector<std::vector<bool>> relevance_;
};

} // namespace sparseloop

#endif // SPARSELOOP_WORKLOAD_WORKLOAD_HH
