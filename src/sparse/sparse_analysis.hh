/**
 * @file
 * Step two of Sparseloop's modeling pipeline (Sec. 5.3): sparse
 * modeling. Filters the dense traffic produced by dataflow modeling to
 * reflect the savings and overheads of the specified SAFs, producing
 * sparse traffic broken down into fine-grained action types
 * (actual / gated / skipped, data vs. metadata).
 *
 * Key mechanisms:
 *  - Leader-tile inference (Fig. 10): for a gating/skipping SAF at
 *    level l on follower F, the leader tile is the leader's footprint
 *    over the follower datum's reuse region (the maximal innermost run
 *    of F-irrelevant loops below the delivery boundary, plus the
 *    boundary tile itself). P(eliminate) = P(leader tile empty) from
 *    the leader's statistical density model.
 *  - Multi-leader SAFs (Z <- A & B): eliminate when any leader tile is
 *    empty: P = 1 - prod (1 - P_empty(leader_i)).
 *  - Propagation (Sec. 5.3.4): eliminations at an outer level scale
 *    all inner traffic of the follower and the compute multiplicatively.
 *  - Format analyzer (Sec. 5.3.3): compressed tensors move only
 *    nonzeros plus metadata; format overhead of skipped transfers is
 *    itself skipped (Sec. 5.3.5 post-processing).
 *  - Compute actions: effectual computes always execute; ineffectual
 *    computes not eliminated by storage SAFs are classified by the
 *    compute SAF (gate/skip) or execute as actual operations.
 */

#ifndef SPARSELOOP_SPARSE_SPARSE_ANALYSIS_HH
#define SPARSELOOP_SPARSE_SPARSE_ANALYSIS_HH

#include <vector>

#include "dataflow/dense_traffic.hh"
#include "sparse/saf.hh"

namespace sparseloop {

/** Fine-grained breakdown of a dense action count (Sec. 5.3.4). */
struct ActionBreakdown
{
    double actual = 0.0;
    double gated = 0.0;
    double skipped = 0.0;

    double total() const { return actual + gated + skipped; }
    /** Actions that consume a cycle (actual + gated). */
    double occupying() const { return actual + gated; }
};

template <typename A>
auto
fields(A &a, ActionBreakdown &b)
{
    return a(b.actual, b.gated, b.skipped);
}

inline bool
operator==(const ActionBreakdown &a, const ActionBreakdown &b)
{
    return fieldTie(a) == fieldTie(b);
}
inline bool
operator!=(const ActionBreakdown &a, const ActionBreakdown &b)
{
    return !(a == b);
}

/** Sparse traffic of one tensor at one storage level. */
struct TensorLevelSparse
{
    ActionBreakdown reads;
    ActionBreakdown fills;
    ActionBreakdown updates;
    ActionBreakdown acc_reads;
    ActionBreakdown drains;

    /** Metadata accesses, in metadata words. */
    double meta_reads = 0.0;
    double meta_fills = 0.0;
    double meta_updates = 0.0;

    /** Expected compressed tile footprint (data words, per instance). */
    double tile_data_words = 0.0;
    /** Expected metadata footprint in data-word equivalents. */
    double tile_metadata_words = 0.0;
    /** Worst-case occupied words (data + metadata), for validity. */
    double tile_worst_words = 0.0;
    /** Dense tile footprint (elements). */
    double tile_dense_words = 0.0;

    double occupiedWords() const
    {
        return tile_data_words + tile_metadata_words;
    }
};

template <typename A>
auto
fields(A &a, TensorLevelSparse &t)
{
    return a(t.reads, t.fills, t.updates, t.acc_reads, t.drains,
             t.meta_reads, t.meta_fills, t.meta_updates, t.tile_data_words,
             t.tile_metadata_words, t.tile_worst_words, t.tile_dense_words);
}

inline bool
operator==(const TensorLevelSparse &a, const TensorLevelSparse &b)
{
    return fieldTie(a) == fieldTie(b);
}
inline bool
operator!=(const TensorLevelSparse &a, const TensorLevelSparse &b)
{
    return !(a == b);
}

/** Result of the sparse modeling step. */
struct SparseTraffic
{
    /** [level][tensor] traffic records (contiguous row-major grid). */
    FlatMatrix<TensorLevelSparse> levels;
    ActionBreakdown computes;
    /** Computes whose result is algebraically needed. */
    double effectual_computes = 0.0;
    std::vector<std::int64_t> instances;
    std::int64_t compute_instances = 1;

    const TensorLevelSparse &at(int level, int tensor) const
    {
        return levels[level][tensor];
    }
};

template <typename A>
auto
fields(A &a, SparseTraffic &sparse)
{
    return a(sparse.levels, sparse.computes, sparse.effectual_computes,
             sparse.instances, sparse.compute_instances);
}

inline bool
operator==(const SparseTraffic &a, const SparseTraffic &b)
{
    return fieldTie(a) == fieldTie(b);
}
inline bool
operator!=(const SparseTraffic &a, const SparseTraffic &b)
{
    return !(a == b);
}

class SparseAnalysis
{
  public:
    SparseAnalysis(const Workload &workload, const Architecture &arch,
                   const Mapping &mapping, const SafSpec &safs);

    /** Filter dense traffic into sparse traffic. */
    SparseTraffic analyze(const DenseTraffic &dense) const;

    /**
     * Per-dimension tile sizes of the leader region for an
     * intersection SAF (Fig. 10 inference). A view of the routine
     * analyze() runs.
     */
    std::vector<std::int64_t>
    leaderRegionDimTiles(const IntersectionSaf &saf) const;

    /** Probability that the SAF eliminates one follower access, as
     *  analyze() computes it. */
    double eliminationProbability(const IntersectionSaf &saf) const;

    /**
     * Fraction of computes that are effectual (all operands nonzero).
     *
     * With statistical models this is the product of operand
     * densities. When every sparse operand carries an actual-data
     * density model, the joint intersection is computed exactly from
     * the concrete tensors (enumerating the iteration space, or
     * sampling it when too large) — the mechanism behind the paper's
     * near-exact actual-data validation (Sec. 6.3.2), at the cost of
     * slower modeling.
     */
    double effectualFraction() const;

  private:
    const Workload &workload_;
    const Architecture &arch_;
    const Mapping &mapping_;
    const SafSpec &safs_;
    NestAnalysis nest_;

    /**
     * The one body of the Fig. 10 rule. Finds the delivery boundary
     * (the first level inside saf.level that keeps the follower, or
     * the compute), fills
     * @p dim_tiles with the boundary tile extended by the follower
     * datum's reuse region, and returns the multi-leader P(eliminate)
     * = 1 - prod_i (1 - P_empty(leader_i tile)). The buffers are
     * caller-owned so analyze() reuses their capacity across SAFs.
     */
    double eliminationProbability(const IntersectionSaf &saf,
                                  std::vector<std::int64_t> &dim_tiles,
                                  Shape &extents) const;

    /** Density of tensor t (1 when dense). */
    double density(int t) const;
};

} // namespace sparseloop

#endif // SPARSELOOP_SPARSE_SPARSE_ANALYSIS_HH
