/**
 * @file
 * Step one of Sparseloop's modeling pipeline (Sec. 5.2): dataflow
 * modeling. Derives the uncompressed data movement ("dense traffic")
 * and dense compute count implied by a mapping, independent of any
 * sparse acceleration feature.
 *
 * Modeling rules (Timeloop-style):
 *  - The tile of tensor t resident at storage level l covers the loops
 *    of subnests l..innermost (coordinate-space tiling, Fig. 7a).
 *  - The number of times that tile is re-delivered from above follows
 *    the temporal-reuse rule: scanning the loops above l from the
 *    innermost outward, leading loops irrelevant to t provide reuse;
 *    from the first relevant loop outward every loop's bound multiplies
 *    the delivery count.
 *  - Spatial loops multiply instance counts; spatial loops irrelevant
 *    to a tensor multicast the same data to several instances, so the
 *    parent is read once per multicast group.
 *  - Outputs move upward: each tile residency drains to the parent;
 *    repeated updates of the same element cost read-modify-write
 *    accesses except for the first write of each residency. Spatial
 *    loops over reduction dimensions are reduced in the network before
 *    reaching the parent.
 *  - Bypassed tensors (keep mask false) exchange data directly between
 *    the nearest enclosing keeping levels.
 */

#ifndef SPARSELOOP_DATAFLOW_DENSE_TRAFFIC_HH
#define SPARSELOOP_DATAFLOW_DENSE_TRAFFIC_HH

#include <vector>

#include "arch/architecture.hh"
#include "common/fields.hh"
#include "common/flat_matrix.hh"
#include "common/small_vector.hh"
#include "mapping/mapping.hh"
#include "workload/workload.hh"

namespace sparseloop {

/** Dense per-tensor traffic at one storage level (totals, elements). */
struct TensorLevelDense
{
    /** Whether the tensor is buffered at this level. */
    bool kept = false;
    /** Per-instance tile footprint in elements. */
    double footprint = 0.0;
    /** Tile extents per tensor rank at this level. */
    TileExtents tile_extents;
    /** Element-writes into this level from the parent (operands). */
    double fills = 0.0;
    /** Element-reads out of this level serving children / compute. */
    double reads = 0.0;
    /** Output element-writes into this level from below. */
    double updates = 0.0;
    /** Output read-modify-write reads at this level. */
    double acc_reads = 0.0;
    /** Output element-reads leaving this level toward the parent. */
    double drains = 0.0;
};

template <typename A>
auto
fields(A &a, TensorLevelDense &t)
{
    return a(t.kept, t.footprint, t.tile_extents, t.fills, t.reads,
             t.updates, t.acc_reads, t.drains);
}

inline bool
operator==(const TensorLevelDense &a, const TensorLevelDense &b)
{
    return fieldTie(a) == fieldTie(b);
}
inline bool
operator!=(const TensorLevelDense &a, const TensorLevelDense &b)
{
    return !(a == b);
}

/** Result of the dataflow modeling step. */
struct DenseTraffic
{
    /** [level][tensor] traffic records (contiguous row-major grid). */
    FlatMatrix<TensorLevelDense> levels;
    /** Total dense compute count. */
    double computes = 0.0;
    /** Per-level instance counts. */
    std::vector<std::int64_t> instances;
    /** Total compute instances (product of all spatial bounds). */
    std::int64_t compute_instances = 1;

    const TensorLevelDense &at(int level, int tensor) const
    {
        return levels[level][tensor];
    }
};

template <typename A>
auto
fields(A &a, DenseTraffic &dense)
{
    return a(dense.levels, dense.computes, dense.instances,
             dense.compute_instances);
}

inline bool
operator==(const DenseTraffic &a, const DenseTraffic &b)
{
    return fieldTie(a) == fieldTie(b);
}
inline bool
operator!=(const DenseTraffic &a, const DenseTraffic &b)
{
    return !(a == b);
}

/**
 * Dataflow analysis engine.
 */
class NestAnalysis
{
  public:
    NestAnalysis(const Workload &workload, const Architecture &arch,
                 const Mapping &mapping);

    /** Run the analysis (validates the mapping first). */
    DenseTraffic analyze() const;

    /**
     * Multicast factor for tensor @p t across spatial loops in levels
     * [from, to): the number of instances receiving identical data.
     */
    double multicastFactor(int t, int from, int to) const;

    /** Innermost level at which tensor @p t is kept. Always valid:
     *  the backing store keeps everything, so the result is >= 0 even
     *  for all-bypass masks. */
    int innermostKeepLevel(int t) const;

    /** Keeping levels of tensor @p t, outermost first: the one
     *  keep-level scan, shared by dense traffic, innermostKeepLevel
     *  and Step 2's boundary and innermost-keep lookups. Returned
     *  inline (no heap allocation up to 8 levels). Guaranteed
     *  non-empty with front() == 0 (the backing store always keeps),
     *  so consumers may index .front()/.back() freely. */
    SmallVector<int, 8> keepLevels(int t) const;

  private:
    const Workload &workload_;
    const Architecture &arch_;
    const Mapping &mapping_;

    /** Temporal-reuse delivery multiplier over loops above @p lvl. */
    double temporalMultiplier(int t, int lvl) const;
};

} // namespace sparseloop

#endif // SPARSELOOP_DATAFLOW_DENSE_TRAFFIC_HH
