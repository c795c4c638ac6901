/**
 * @file
 * Explicit mapspace IR (Sec. 5.1 "mapspace constraints").
 *
 * A mapping is a point in a structured space with four families of
 * axes, one value per axis picked independently:
 *
 *  - **Tiling** — per workload dimension, an ordered factorization of
 *    the dimension bound across the storage levels (a "split").
 *  - **Permutation** — per storage level, the order of the temporal
 *    loops over the dimensions tiled at that level.
 *  - **Spatial** — per storage level with fanout > 1, which tiled
 *    dimension (if any) becomes a parallel-for.
 *  - **Keep/bypass** — per storage level, which tensors are buffered.
 *
 * `MapSpace` materializes these axes explicitly, applying
 * `MapspaceConstraints` **by construction**: a constrained axis is
 * pruned before anything samples or enumerates it, so no candidate is
 * ever drawn and then rejected for violating a constraint. This is the
 * load-bearing difference from the pre-IR mapper, which fused
 * rejection sampling into the search loop and burned most of a
 * constrained search's budget on invalid draws.
 *
 * Construction then runs three lossless pruning passes, each switched
 * by a `MapSpaceOptions` field that documents it: canonical loop
 * orders (symmetry reduction), keep-dominance, and capacity-dominated
 * tilings. The `Mapper` disables the capacity pass when format SAFs
 * could compress tiles.
 *
 * The passes reshape **enumeration only** (`mappingAt`, `size()`, the
 * per-pass `pruneStats()` report); `sampleMapping`, `Point`
 * coordinates, neighborhoods, and crossover stay on the raw axes so
 * stochastic strategies keep their historical RNG behavior.
 *
 * The IR reports its size (exactly when the tiling cross-product is
 * small enough to walk, as a product-form upper bound otherwise) and
 * serves it three ways: `sampleMapping(seed)`, the seeded candidate
 * derivation (RNG-identical to the pre-IR `Mapper` on unconstrained
 * spaces); `mappingAt(index)`, duplicate-free indexed enumeration when
 * `size().enumerable >= 0`; and `Point` coordinates (`encode`,
 * `materialize`, `neighbors`, `reconcile`, `crossover`,
 * `coarsePoints`, ...) for the neighborhood strategies, when
 * `pointEncodable()`. Each axis rule has one body that all three call.
 *
 * The exact size walks every tiling once, but a tiling's per-pass
 * point counts depend only on which dimensions each level tiles and
 * which are spatial candidates there. Each distinct such signature is
 * counted once, so the per-tiling work is a table lookup, the prefix
 * sum, and (when on) the allocation-free capacity check.
 *
 * The limits are constants: a dimension with more than 2^16 splits
 * keeps its tiling axis implicit (sampling only), more than 2^16
 * tiling combinations get the size estimate, and more than 2^22
 * points are not indexed.
 */

#ifndef SPARSELOOP_MAPPER_MAPSPACE_HH
#define SPARSELOOP_MAPPER_MAPSPACE_HH

#include <cstdint>
#include <optional>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/small_vector.hh"
#include "mapping/mapping.hh"

namespace sparseloop {

/** Per-level search constraints. */
struct LevelConstraint
{
    /**
     * Required relative order of dimensions for the temporal loops at
     * this level (outer first); empty = any order. Dimensions absent
     * from the list may not appear at this level.
     */
    std::vector<int> loop_order;
    /**
     * Dimensions allowed to be spatial at this level; empty = no
     * restriction (any tiled dimension that fits the fanout).
     */
    std::vector<int> spatial_dims;
    /** Tensors kept at this level; empty = keep all. */
    std::vector<int> keep;
};

/** Mapspace constraints: one entry per storage level (or empty). */
struct MapspaceConstraints
{
    std::vector<LevelConstraint> levels;
};

/**
 * Validate a constraint set against a workload and architecture:
 * the level count must match (or be zero), and every dimension or
 * tensor index must be in range and listed at most once per axis.
 * Fatal (SL_FATAL) on the first violation, naming the level and the
 * offending entry.
 */
void validateConstraints(const Workload &workload,
                         const Architecture &arch,
                         const MapspaceConstraints &constraints);

/** The keep axis and the pruning passes of the construction. */
struct MapSpaceOptions
{
    /**
     * Enumerate keep/bypass masks as a search axis at levels below the
     * outermost (which always keeps everything so each tensor has a
     * backing store). On by default: the paper's co-design results
     * hinge on exploring which tensors each level buffers, and the
     * pruning passes below keep the blow-up searchable. Set to false
     * to reproduce the historical keep-all-only space.
     */
    bool explore_bypass = true;
    /**
     * Enumerate only canonical loop orders per level: adjacent loops
     * over dimensions with identical tensor-relevance signatures
     * commute without changing any traffic count, so one
     * representative per equivalence class suffices. Lossless.
     */
    bool prune_symmetry = true;
    /**
     * Drop keep configurations in which some tensor is kept at a
     * level with no reuse: no loop between that level and the
     * next-inner keeping level is relevant to the tensor, so the kept
     * tile is filled and read exactly once per delivery — bypassing is
     * never worse on any metric. Lossless up to metric ties.
     */
    bool prune_dominated_keeps = true;
    /**
     * Drop tilings whose minimum possible occupancy (summing tensors
     * kept under every admissible keep choice) overflows a level's
     * capacity: every point of such a tiling fails the engine's
     * capacity check. Only provable against dense footprints — the
     * Mapper turns this off when format SAFs could compress tiles.
     */
    bool prune_capacity_tilings = true;
};

/**
 * Per-pass pruned-point accounting of the construction pipeline,
 * surfaced through `MapperResult::prune_stats`. Counts are exact when
 * the tiling cross-product is enumerable (`exact`), even when the raw
 * point total exceeds the indexed-enumeration limit; on the
 * estimate path only `raw_points` is populated.
 */
struct MapSpacePruneStats
{
    /** Points of the constraint-pruned space before pipeline passes. */
    double raw_points = 0.0;
    /** Points removed by canonical-order symmetry reduction. */
    double pruned_symmetry = 0.0;
    /** Points removed by keep-dominance pruning. */
    double pruned_dominated_keeps = 0.0;
    /** Points removed with capacity-dominated tilings. */
    double pruned_capacity_tilings = 0.0;
    /** Whether the per-pass counts are exact. */
    bool exact = false;

    /** Points surviving every pass (the enumerated quotient). */
    double keptPoints() const
    {
        return raw_points - pruned_symmetry - pruned_dominated_keeps -
               pruned_capacity_tilings;
    }
};

/** Size report of a mapspace. */
struct MapSpaceSize
{
    /**
     * Point count. When `exact`, the precise number of enumerable
     * points; otherwise a product-form upper-bound estimate (treating
     * every level as if all its admissible dimensions were tiled
     * there).
     */
    double points = 0.0;
    bool exact = false;
    /** Exact point count when the space supports `mappingAt` indexed
     *  enumeration, else -1. */
    std::int64_t enumerable = -1;
};

/**
 * The constraint-pruned mapspace of one (workload, architecture) pair.
 * Immutable after construction; all accessors are const and
 * thread-safe. Keeps references to the workload and architecture,
 * which must outlive it.
 */
class MapSpace
{
  public:
    /**
     * Per-axis coordinates of one point, the currency of neighborhood
     * search. Produced by `encode`, consumed by `materialize` and
     * `neighbors`.
     */
    struct Point
    {
        /** Per dimension: index into `splits(dim)`. */
        std::vector<std::size_t> tiling;
        /** Per level: tiled dimensions in loop order (outer first). */
        std::vector<std::vector<int>> order;
        /** Per level: spatial dimension, or -1 for none. */
        std::vector<int> spatial;
        /** Per level: index into the keep-mask choices. */
        std::vector<std::size_t> keep;

        /** Memberwise equality of the four coordinate families. */
        bool operator==(const Point &other) const
        {
            return tiling == other.tiling && order == other.order &&
                   spatial == other.spatial && keep == other.keep;
        }
    };

    /**
     * Fatal (SL_FATAL) on invalid constraints, on a workload with more
     * than 64 dimensions, or on an architecture with more than 32
     * storage levels (the per-dimension and per-level bitmasks).
     */
    MapSpace(const Workload &workload, const Architecture &arch,
             const MapspaceConstraints &constraints = {},
             MapSpaceOptions options = {});

    /** Workload dimension count (one tiling axis each). */
    int dimCount() const { return static_cast<int>(allowed_.size()); }
    /** Architecture storage-level count. */
    int levelCount() const
    {
        return static_cast<int>(level_cons_.size());
    }

    /**
     * True when some dimension with bound > 1 has no admissible level
     * (constraints exclude it everywhere): the space contains no
     * mapping at all.
     */
    bool empty() const { return empty_; }

    const MapSpaceSize &size() const { return size_; }

    /** Per-pass pruned-point report of the construction pipeline. */
    const MapSpacePruneStats &pruneStats() const { return prune_stats_; }

    /** Number of tiling combinations (cross-product of per-dimension
     *  split counts, saturating). The coarse axis of hierarchical
     *  search. */
    std::int64_t tilingCount() const;

    /**
     * Coarse representatives of one tiling combination: the default
     * (reconciled) loop order, the first spatial candidate per level,
     * and up to @p max_keeps keep-mask combinations strided evenly
     * across the joint keep axis — the quotient points a hierarchical
     * search scores before refining winners' fine coordinates.
     * Requires `pointEncodable()` and `0 <= tiling_index <
     * tilingCount()`.
     */
    std::vector<Point> coarsePoints(std::int64_t tiling_index,
                                    int max_keeps) const;

    /** Levels at which @p dim may carry a factor > 1 (ascending). */
    const std::vector<int> &allowedLevels(int dim) const
    {
        return allowed_[static_cast<std::size_t>(dim)];
    }

    /** Number of per-level factorizations of @p dim 's bound. */
    std::int64_t splitCount(int dim) const
    {
        return split_count_[static_cast<std::size_t>(dim)];
    }

    /**
     * Materialized splits of @p dim: each entry is a per-level factor
     * vector (product = dimension bound, 1 at disallowed levels),
     * sorted lexicographically. Empty when `splitCount` exceeds
     * 2^16 (the tiling axis stays implicit).
     */
    const std::vector<std::vector<std::int64_t>> &splits(int dim) const
    {
        return splits_[static_cast<std::size_t>(dim)];
    }

    /** Keep-mask choices at @p level (empty mask = keep all). */
    const std::vector<std::vector<bool>> &keepChoices(int level) const
    {
        return keep_choices_[static_cast<std::size_t>(level)];
    }

    /**
     * Draw the candidate for one seed. The derivation is the pre-IR
     * mapper's (divisor peeling innermost-up, Fisher-Yates loop order,
     * uniform spatial pick) restricted to the pruned axes, so it never
     * violates a constraint; with no constraints it is RNG-step
     * identical to the historical sampler. Requires `!empty()`.
     */
    Mapping sampleMapping(std::uint64_t seed) const;

    /**
     * The @p index -th point of the exact enumeration (duplicate-free).
     * With the pruning passes off the enumeration covers every mapping
     * `sampleMapping` can produce; with them on it covers the quotient
     * space — every sampled mapping has an enumerated representative
     * with identical traffic on every metric. Requires
     * `size().enumerable >= 0` and `0 <= index < size().enumerable`.
     */
    Mapping mappingAt(std::int64_t index) const;

    /** Build the mapping at explicit per-axis coordinates. */
    Mapping materialize(const Point &point) const;

    /**
     * Recover the coordinates of a mapping. Fails (nullopt) when the
     * mapping lies outside this space — unmaterialized tiling axis, a
     * dimension looped twice at one level, an unknown keep mask, or a
     * constraint violation.
     */
    std::optional<Point> encode(const Mapping &mapping) const;

    /**
     * Single-axis moves from @p point, in the one move order both this
     * and `randomNeighbor` use: adjacent tiling splits per dimension
     * (-1 before +1; loop orders reconciled, spatial re-validated),
     * adjacent transpositions of each unconstrained level order,
     * alternative spatial picks per level, and alternative keep masks
     * per level. Every neighbor is a valid in-space point.
     */
    std::vector<Point> neighbors(const Point &point) const;

    /**
     * Repair a point whose tiling coordinates changed out from under
     * its other axes (a tiling move, a crossover): at every level the
     * loop order keeps the surviving tiled dimensions in their
     * existing relative order and appends newly tiled dimensions
     * innermost (constrained orders are rebuilt from the constraint),
     * and a spatial pick that is no longer a candidate falls back to
     * the first candidate (or none). Keep coordinates index per-level
     * choice tables, so they stay valid and pass through unchanged.
     * The result is always a valid in-space point.
     */
    Point reconcile(Point point) const;

    /**
     * The coordinate form of `sampleMapping(seed)`: the same seeded
     * candidate derivation, returned as a `Point`. Requires
     * `pointEncodable()`.
     */
    Point samplePoint(std::uint64_t seed) const;

    /**
     * Uniform axis-wise crossover of two in-space points: every
     * tiling, order, spatial, and keep coordinate of the child comes
     * from @p a or @p b with equal probability, after which the child
     * is `reconcile`d — so it is a valid in-space point by
     * construction, never a candidate that must be checked and
     * rejected. Consumes @p rng one draw per axis in a fixed order,
     * so a given generator state yields exactly one child.
     */
    Point crossover(const Point &a, const Point &b,
                    std::mt19937_64 &rng) const;

    /**
     * A uniformly drawn entry of `neighbors(point)`, or `nullopt` for
     * an isolated point. Consumes @p rng exactly one draw when the
     * neighborhood is non-empty (none otherwise). The neighborhood is
     * counted, not built: a draw costs one `Point` copy plus at most
     * one `reconcile` (for a tiling move).
     */
    std::optional<Point> randomNeighbor(const Point &point,
                                        std::mt19937_64 &rng) const;

    /** Post-hoc constraint check (for tests and rejection baselines). */
    bool satisfies(const Mapping &mapping) const;

    /**
     * Whether every tiling axis is materialized, i.e. `encode` can
     * succeed and neighborhood refinement is available. False when
     * some dimension has more than 2^16 splits.
     */
    bool pointEncodable() const;

    /** The workload whose mappings this space contains. */
    const Workload &workload() const { return workload_; }
    /** The architecture the mappings target. */
    const Architecture &arch() const { return arch_; }

  private:
    /** Per level, per dimension: the loop bound of one tiling. */
    using Factors = std::vector<std::vector<std::int64_t>>;
    /** Small per-tiling lists, inline for the paper's workloads (at
     *  most 8 dimensions, 4 tensors, 4 free keep levels), so the
     *  construction walk and the neighbourhood moves stay off the
     *  heap. */
    using DimList = SmallVector<int, 8>;
    using TensorMasks = SmallVector<std::uint64_t, 4>;
    using KeepCombos = SmallVector<std::uint32_t, 16>;

    /**
     * The single-axis moves of one point, counted per family without
     * building them, and numbered in the move order `neighbors`
     * documents: `build(i)` returns the i-th neighbor. Views @p point,
     * which must outlive it.
     */
    class Neighborhood
    {
      public:
        Neighborhood(const MapSpace &space, const Point &point);

        std::size_t size() const
        {
            return tiling_ + order_ + spatial_.size() + keep_;
        }

        /** The @p i -th neighbor; requires `i < size()`. */
        Point build(std::size_t i) const;

      private:
        /** Adjacent splits of dimension @p d (-1 first, then +1). */
        std::size_t tilingMoves(int d) const;
        /** Adjacent transpositions at @p level (0 when constrained). */
        std::size_t orderSwaps(int level) const;
        /** Alternative keep masks at @p level. */
        std::size_t keepAlternatives(int level) const
        {
            return space_.keep_choices_[static_cast<std::size_t>(level)]
                       .size() - 1;
        }

        const MapSpace &space_;
        const Point &point_;
        std::size_t tiling_ = 0;
        std::size_t order_ = 0;
        /** Spatial moves as (level, dimension), levels ascending. */
        std::vector<std::pair<int, int>> spatial_;
        std::size_t keep_ = 0;
    };

    /**
     * The enumerated points of one tiling, in one digit layout (fastest
     * first): per level, outermost first, a loop-order digit and a
     * spatial digit; then the keep digits (one free-level combination
     * per tensor under keep-dominance pruning, else one mask per
     * level). `counts` multiplies the radices that `build` peels.
     * Views @p factors, which must outlive it.
     */
    class Block
    {
      public:
        Block(const MapSpace &space, const Factors &factors);

        /** Per-pass point counts of the block. */
        struct Counts
        {
            double raw = 0.0;      ///< before pipeline passes
            double symmetry = 0.0; ///< after canonical-order reduction
            double pruned = 0.0;   ///< after keep-dominance pruning
            std::int64_t size = 1; ///< enumerated size (saturating)
        };
        Counts counts() const;

        /** The @p offset -th point; requires `offset < counts().size`. */
        Mapping build(std::int64_t offset) const;

      private:
        /** Loop orders at @p level over the tiled set @p mask: the
         *  canonical ones when @p canonical and the symmetry pass
         *  applies, else all (one at a constrained level). */
        std::int64_t orders(int level, std::uint64_t mask,
                            bool canonical) const;

        const MapSpace &space_;
        const Factors &factors_;
        /** Keep digits per tensor (dominance pass on, some level open)
         *  rather than per level. */
        bool per_tensor_keeps_;
        /** Per tensor: `relevantLevelMasks`, for per-tensor keeps. */
        TensorMasks relevant_;
    };

    /** Whether @p level admits loops over @p dim. */
    bool levelAllowsDim(int level, int dim) const;

    /** Whether constraints fix the loop order at @p level. */
    bool orderConstrained(int level) const;

    /** Visit the dimensions tiled (factor > 1) in @p lf at @p level:
     *  in the constrained order, or ascending when the order is free. */
    template <typename Visit>
    void forTiledDims(int level, const std::vector<std::int64_t> &lf,
                      Visit &&visit) const;

    /** Whether @p dim with @p factor at @p level may be the spatial
     *  loop there. */
    bool spatialCandidate(int level, int dim, std::int64_t factor) const;

    /** Spatial candidates at @p level given per-dim factors there,
     *  in ascending dimension order. */
    DimList spatialCandidates(int level,
                              const std::vector<std::int64_t> &factors) const;

    /** Whether @p t is kept at @p level under every admissible mask. */
    bool alwaysKept(int level, int t) const;

    /** Per-dimension split indices of tiling combination @p index
     *  (dimension 0 fastest). */
    std::vector<std::size_t> tilingAt(std::int64_t index) const;

    /** Per-level factors of one tiling coordinate vector. */
    Factors tilingFactors(const std::vector<std::size_t> &tiling) const;

    /** Bitmask of dimensions tiled (factor > 1) at one level. */
    std::uint64_t tiledMask(
        const std::vector<std::int64_t> &level_factors) const;

    /** Canonical loop orders of the dimension set @p mask,
     *  concatenated: `countBits(mask)` dimensions each, outer first
     *  (prebuilt by `ensureCanonical`, so lookups are const and
     *  thread-safe). */
    const std::vector<int> &canonicalOrders(std::uint64_t mask) const;

    /** Memoize the canonical orders of @p level 's tiled set. */
    void ensureCanonical(int level, const std::vector<std::int64_t> &lf);

    /** Whether enumeration at @p level uses the canonical-order list
     *  for the tiled set @p mask (symmetry pass on, order free, and
     *  the set small enough to materialize). */
    bool canonicalAt(int level, std::uint64_t mask) const;

    /** Per-tensor bitmask of levels carrying a factor-> 1 loop over a
     *  dimension relevant to the tensor, for one tiling. */
    TensorMasks relevantLevelMasks(const Factors &factors) const;

    /** Non-dominated free-level keep combinations of tensor @p t
     *  (bit i = kept at `keep_free_levels_[i]`); @p relevant_mask is
     *  its entry of relevantLevelMasks. */
    KeepCombos keepCombos(int t, std::uint64_t relevant_mask) const;

    /** Whether every point of the tiling at per-dimension split
     *  indices @p tiling overflows some capacity. Allocation-free up
     *  to 8 dimensions and 4 ranks per tensor. */
    bool capacityPruned(const std::vector<std::size_t> &tiling) const;

    const Workload &workload_;
    const Architecture &arch_;
    MapSpaceOptions options_;

    /** Normalized per-level constraints (always levelCount entries). */
    std::vector<LevelConstraint> level_cons_;
    /** Per dim: admissible levels, ascending. */
    std::vector<std::vector<int>> allowed_;
    /** Per dim: number of splits (saturating). */
    std::vector<std::int64_t> split_count_;
    /** Per dim: materialized splits (may be empty when too many). */
    std::vector<std::vector<std::vector<std::int64_t>>> splits_;
    /** Per level: keep-mask choices. */
    std::vector<std::vector<std::vector<bool>>> keep_choices_;
    /** Exclusive prefix sums of per-tiling block sizes (enumeration
     *  support); empty when the space is not enumerable. */
    std::vector<std::int64_t> tiling_prefix_;
    MapSpaceSize size_;
    bool empty_ = false;

    /** Per dim: tensor-relevance class id (symmetry reduction). */
    std::vector<int> dim_class_;
    /** Levels whose keep axis is open (more than one mask choice),
     *  ascending. */
    std::vector<int> keep_free_levels_;
    /** Canonical loop orders per tiled-dimension bitmask, in the
     *  `canonicalOrders` layout; prebuilt by the construction size
     *  walk on its memo misses. */
    std::unordered_map<std::uint64_t, std::vector<int>> canon_;
    MapSpacePruneStats prune_stats_;
};

} // namespace sparseloop

#endif // SPARSELOOP_MAPPER_MAPSPACE_HH
