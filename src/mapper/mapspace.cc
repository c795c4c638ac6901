/**
 * @file
 * Mapspace IR implementation: constraint pruning, axis
 * materialization, exact size accounting, and the access patterns
 * (seeded sampling, indexed enumeration, coordinate neighborhoods),
 * which share one body per axis rule.
 */

#include "mapper/mapspace.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace sparseloop {

namespace {

/** Most splits materialized per dimension; beyond it the tiling axis
 *  stays implicit (sampling works, indexing and encoding don't). */
constexpr std::int64_t kMaxSplitsPerDim = std::int64_t{1} << 16;
/** Most tiling combinations accounted exactly. */
constexpr std::int64_t kMaxTilings = std::int64_t{1} << 16;
/** Most points served by indexed enumeration. */
constexpr std::int64_t kMaxEnumerablePoints = std::int64_t{1} << 22;
/** Widest workload and deepest hierarchy: dimension sets are 64-bit
 *  masks, free-level keep combinations 32-bit ones. */
constexpr int kMaxDims = 64;
constexpr int kMaxLevels = 32;

/** Largest tiled-dimension set whose canonical orders are
 *  materialized; beyond it the level falls back to raw factorial
 *  enumeration (such spaces exceed the enumerable limit anyway). */
constexpr int kMaxCanonicalDims = 8;

int
countBits(std::uint64_t mask)
{
    int n = 0;
    for (; mask != 0; mask &= mask - 1) {
        ++n;
    }
    return n;
}

template <typename Vec>
bool
contains(const Vec &values, int value)
{
    return std::find(values.begin(), values.end(), value) !=
           values.end();
}

void
validateIndexList(const std::vector<int> &values, int limit, int level,
                  const char *axis, const char *what)
{
    for (int v : values) {
        if (v < 0 || v >= limit) {
            SL_FATAL("level ", level, " constraint: ", axis,
                     " references ", what, " ", v,
                     " but valid indices are [0, ", limit, ")");
        }
    }
    for (auto it = values.begin(); it != values.end(); ++it) {
        if (std::find(it + 1, values.end(), *it) != values.end()) {
            SL_FATAL("level ", level, " constraint: ", axis, " lists ",
                     what, " ", *it, " more than once");
        }
    }
}

/** Enumerate per-level factor vectors recursively over allowed
 *  levels (ascending), one divisor of the residual per level. */
void
enumerateSplits(const std::vector<int> &allowed, std::size_t pos,
                std::int64_t remaining, std::vector<std::int64_t> &current,
                std::vector<std::vector<std::int64_t>> &out)
{
    if (pos == allowed.size()) {
        if (remaining == 1) {
            out.push_back(current);
        }
        return;
    }
    if (pos + 1 == allowed.size()) {
        // Last allowed level takes the whole residual.
        current[static_cast<std::size_t>(allowed[pos])] = remaining;
        out.push_back(current);
        current[static_cast<std::size_t>(allowed[pos])] = 1;
        return;
    }
    for (std::int64_t f : math::divisors(remaining)) {
        current[static_cast<std::size_t>(allowed[pos])] = f;
        enumerateSplits(allowed, pos + 1, remaining / f, current, out);
    }
    current[static_cast<std::size_t>(allowed[pos])] = 1;
}

/**
 * Append to @p out, concatenated in lexicographic order, the
 * permutations of the ascending @p dims that extend @p perm (whose
 * entries are the set bits of @p used, as positions in @p dims) and
 * keep every adjacent pair of same-class dimensions ascending. A
 * prefix is cut at its first descending same-class pair, so only
 * canonical prefixes are visited: the output equals filtering
 * `std::next_permutation`'s sequence, at a fraction of its cost.
 */
void
appendCanonicalOrders(const std::vector<int> &dims,
                      const std::vector<int> &dim_class, std::uint64_t used,
                      std::vector<int> &perm, std::vector<int> &out)
{
    if (perm.size() == dims.size()) {
        out.insert(out.end(), perm.begin(), perm.end());
        return;
    }
    for (std::size_t i = 0; i < dims.size(); ++i) {
        const int d = dims[i];
        if (((used >> i) & 1u) != 0 ||
            (!perm.empty() &&
             dim_class[static_cast<std::size_t>(perm.back())] ==
                 dim_class[static_cast<std::size_t>(d)] &&
             perm.back() > d)) {
            continue;
        }
        perm.push_back(d);
        appendCanonicalOrders(dims, dim_class, used | (std::uint64_t{1} << i),
                              perm, out);
        perm.pop_back();
    }
}

/** Append one level's loops: @p order outer first, @p spatial_dim (or
 *  -1) the parallel one. */
void
appendLoops(LevelNest &nest, const std::vector<int> &order,
            const std::vector<std::int64_t> &lf, int spatial_dim)
{
    for (int d : order) {
        SL_ASSERT(lf[static_cast<std::size_t>(d)] > 1,
                  "loop order lists an untiled dimension");
        nest.loops.push_back(
            {d, lf[static_cast<std::size_t>(d)], d == spatial_dim});
    }
}

} // namespace

void
validateConstraints(const Workload &workload, const Architecture &arch,
                    const MapspaceConstraints &constraints)
{
    if (constraints.levels.empty()) {
        return;
    }
    if (static_cast<int>(constraints.levels.size()) !=
        arch.levelCount()) {
        SL_FATAL("constraint count ", constraints.levels.size(),
                 " must match the level count ", arch.levelCount());
    }
    const int D = workload.dimCount();
    const int T = workload.tensorCount();
    for (std::size_t l = 0; l < constraints.levels.size(); ++l) {
        const LevelConstraint &con = constraints.levels[l];
        const int level = static_cast<int>(l);
        validateIndexList(con.loop_order, D, level, "loop_order",
                          "dimension");
        validateIndexList(con.spatial_dims, D, level, "spatial_dims",
                          "dimension");
        validateIndexList(con.keep, T, level, "keep", "tensor");
    }
}

MapSpace::MapSpace(const Workload &workload, const Architecture &arch,
                   const MapspaceConstraints &constraints,
                   MapSpaceOptions options)
    : workload_(workload), arch_(arch), options_(options)
{
    const int S = arch_.levelCount();
    const int D = workload_.dimCount();
    if (D > kMaxDims) {
        SL_FATAL("mapspace supports at most ", kMaxDims,
                 " workload dimensions, but the workload has ", D);
    }
    if (S > kMaxLevels) {
        SL_FATAL("mapspace supports at most ", kMaxLevels,
                 " storage levels, but the architecture has ", S);
    }
    validateConstraints(workload_, arch_, constraints);
    level_cons_ = constraints.levels;
    level_cons_.resize(static_cast<std::size_t>(S));

    // Tiling axes: admissible levels and split counts per dimension.
    allowed_.resize(static_cast<std::size_t>(D));
    split_count_.resize(static_cast<std::size_t>(D), 1);
    splits_.resize(static_cast<std::size_t>(D));
    for (int d = 0; d < D; ++d) {
        for (int l = 0; l < S; ++l) {
            if (levelAllowsDim(l, d)) {
                allowed_[static_cast<std::size_t>(d)].push_back(l);
            }
        }
        const std::int64_t bound = workload_.dims()[d].bound;
        const auto &lvls = allowed_[static_cast<std::size_t>(d)];
        if (lvls.empty() && bound > 1) {
            SL_WARN("mapspace is empty: dimension ",
                    workload_.dims()[d].name, " (bound ", bound,
                    ") is excluded from every level's loop_order");
            empty_ = true;
            continue;
        }
        split_count_[static_cast<std::size_t>(d)] =
            math::orderedFactorizationCount(
                bound, static_cast<int>(lvls.size()));
        if (split_count_[static_cast<std::size_t>(d)] <=
            kMaxSplitsPerDim) {
            auto &out = splits_[static_cast<std::size_t>(d)];
            std::vector<std::int64_t> current(
                static_cast<std::size_t>(S), 1);
            if (lvls.empty()) {
                out.push_back(current);  // bound == 1: the empty split
            } else {
                enumerateSplits(lvls, 0, bound, current, out);
            }
            std::sort(out.begin(), out.end());
            SL_ASSERT(static_cast<std::int64_t>(out.size()) ==
                          split_count_[static_cast<std::size_t>(d)],
                      "split enumeration disagrees with the count");
        }
    }

    // Keep/bypass axes.
    const int T = workload_.tensorCount();
    keep_choices_.resize(static_cast<std::size_t>(S));
    for (int l = 0; l < S; ++l) {
        auto &choices = keep_choices_[static_cast<std::size_t>(l)];
        const auto &keep = level_cons_[static_cast<std::size_t>(l)].keep;
        if (!keep.empty()) {
            std::vector<bool> mask(static_cast<std::size_t>(T), false);
            for (int t : keep) {
                mask[static_cast<std::size_t>(t)] = true;
            }
            choices.push_back(std::move(mask));
            continue;
        }
        // The all-keep mask is canonically the empty vector (matching
        // the sampler and Mapping::signature()).
        choices.emplace_back();
        if (options_.explore_bypass && l > 0 && T <= 16) {
            // An open level offers every mask, which is what lets the
            // joint keep axis factorize per tensor in the dominance
            // pass.
            keep_free_levels_.push_back(l);
            for (std::uint32_t bits = 0;
                 bits + 1 < (1u << static_cast<unsigned>(T)); ++bits) {
                std::vector<bool> mask(static_cast<std::size_t>(T));
                for (int t = 0; t < T; ++t) {
                    mask[static_cast<std::size_t>(t)] =
                        (bits >> static_cast<unsigned>(t)) & 1u;
                }
                choices.push_back(std::move(mask));
            }
        }
    }

    // Symmetry classes: dimensions whose tensor-relevance signatures
    // are identical commute as adjacent loops (swapping them changes
    // no footprint, reuse multiplier, or multicast factor), so the
    // symmetry pass enumerates one canonical order per class run.
    std::vector<std::vector<bool>> signatures;
    for (int d = 0; d < D; ++d) {
        std::vector<bool> sig(static_cast<std::size_t>(T));
        for (int t = 0; t < T; ++t) {
            sig[static_cast<std::size_t>(t)] = workload_.dimRelevant(t, d);
        }
        auto it = std::find(signatures.begin(), signatures.end(), sig);
        if (it == signatures.end()) {
            it = signatures.insert(it, std::move(sig));
        }
        dim_class_.push_back(static_cast<int>(it - signatures.begin()));
    }

    if (empty_) {
        size_ = {0.0, true, 0};
        prune_stats_.exact = true;
        return;
    }
    // Size accounting: exact (with enumeration prefix sums) when the
    // tiling cross-product is materialized and small enough, estimate
    // otherwise.
    const std::int64_t tilings = tilingCount();
    if (pointEncodable() && tilings <= kMaxTilings) {
        // Block::counts reads a tiling only through, per level, the
        // dimensions tiled there and those that are spatial
        // candidates. So give each split a signature (the levels where
        // its factor is > 1, and those where it is a spatial
        // candidate), number each dimension's distinct signatures, and
        // count each combination of signature ids once. The ids are
        // pre-scaled into one mixed-radix memo index, dimension 0
        // fastest; there are at most `tilings` combinations.
        std::vector<std::vector<std::int64_t>> sig_index(
            static_cast<std::size_t>(D));
        std::int64_t combos = 1;
        for (int d = 0; d < D; ++d) {
            std::vector<std::uint64_t> sigs;
            for (const auto &split : splits_[static_cast<std::size_t>(d)]) {
                std::uint64_t sig = 0;
                for (int l = 0; l < S; ++l) {
                    std::int64_t f = split[static_cast<std::size_t>(l)];
                    if (f > 1) {
                        sig |= std::uint64_t{1} << static_cast<unsigned>(l);
                    }
                    if (spatialCandidate(l, d, f)) {
                        sig |= std::uint64_t{1}
                               << static_cast<unsigned>(kMaxLevels + l);
                    }
                }
                auto it = std::find(sigs.begin(), sigs.end(), sig);
                sig_index[static_cast<std::size_t>(d)].push_back(
                    static_cast<std::int64_t>(it - sigs.begin()) * combos);
                if (it == sigs.end()) {
                    sigs.push_back(sig);
                }
            }
            combos *= static_cast<std::int64_t>(sigs.size());
        }
        std::vector<std::optional<Block::Counts>> memo(
            static_cast<std::size_t>(combos));

        MapSpacePruneStats stats;
        stats.exact = true;
        std::int64_t total = 0;
        bool saturated = false;
        tiling_prefix_.reserve(static_cast<std::size_t>(tilings) + 1);
        tiling_prefix_.push_back(0);
        // Odometer over the split digits, dimension 0 fastest: the
        // `tilingAt` order, so every sum below accumulates in it.
        std::vector<std::size_t> tiling(static_cast<std::size_t>(D), 0);
        for (std::int64_t t = 0; t < tilings; ++t) {
            std::int64_t key = 0;
            for (int d = 0; d < D; ++d) {
                key += sig_index[static_cast<std::size_t>(d)]
                                [tiling[static_cast<std::size_t>(d)]];
            }
            auto &slot = memo[static_cast<std::size_t>(key)];
            if (!slot) {
                Factors factors = tilingFactors(tiling);
                for (int l = 0; l < S; ++l) {
                    ensureCanonical(l, factors[static_cast<std::size_t>(l)]);
                }
                slot = Block(*this, factors).counts();
            }
            const Block::Counts &c = *slot;
            bool cap_pruned = options_.prune_capacity_tilings &&
                              capacityPruned(tiling);
            stats.raw_points += c.raw;
            stats.pruned_symmetry += c.raw - c.symmetry;
            stats.pruned_dominated_keeps += c.symmetry - c.pruned;
            if (cap_pruned) {
                stats.pruned_capacity_tilings += c.pruned;
            }
            std::int64_t block = cap_pruned ? 0 : c.size;
            // int64 saturation stops the enumeration prefix sums but
            // not the per-pass accounting, which runs in doubles.
            saturated = saturated ||
                total > std::numeric_limits<std::int64_t>::max() - block;
            if (!saturated) {
                total += block;
                // Past the indexed-enumeration limit the space cannot
                // be enumerable, and only `mappingAt` reads the sums.
                if (total <= kMaxEnumerablePoints) {
                    tiling_prefix_.push_back(total);
                }
            }
            for (std::size_t d = 0;
                 d < tiling.size() && ++tiling[d] == splits_[d].size();
                 ++d) {
                tiling[d] = 0;
            }
        }
        prune_stats_ = stats;
        if (!saturated) {
            size_ = {static_cast<double>(total), true,
                     total <= kMaxEnumerablePoints ? total : -1};
        }
        if (size_.enumerable < 0) {
            // Release the storage, not just the elements.
            std::vector<std::int64_t>().swap(tiling_prefix_);
        }
        if (!saturated) {
            return;
        }
        // Saturated: fall through to the product-form size estimate,
        // keeping the (still-valid) double-accumulated pass counts.
    }

    // Product-form upper bound: every admissible dimension tiled at
    // every admissible level.
    double points = 1.0;
    for (int d = 0; d < D; ++d) {
        points *= static_cast<double>(
            split_count_[static_cast<std::size_t>(d)]);
    }
    for (int l = 0; l < S; ++l) {
        int dims_here = 0;
        int spatial_here = 0;
        for (int d = 0; d < D; ++d) {
            if (!levelAllowsDim(l, d) ||
                workload_.dims()[d].bound <= 1) {
                continue;
            }
            ++dims_here;
            // Spatial if the dimension could fill the whole fanout.
            if (spatialCandidate(l, d, arch_.level(l).fanout)) {
                ++spatial_here;
            }
        }
        if (!orderConstrained(l)) {
            points *= static_cast<double>(math::factorial(dims_here));
        }
        points *= static_cast<double>(std::max(1, spatial_here));
        points *= static_cast<double>(
            keep_choices_[static_cast<std::size_t>(l)].size());
    }
    size_.points = points;
    size_.exact = false;
    size_.enumerable = -1;
    if (!prune_stats_.exact) {
        // Estimate path: only the raw total is known.
        prune_stats_.raw_points = points;
    }
}

bool
MapSpace::levelAllowsDim(int level, int dim) const
{
    const auto &order = level_cons_[static_cast<std::size_t>(level)]
                            .loop_order;
    return order.empty() || contains(order, dim);
}

bool
MapSpace::orderConstrained(int level) const
{
    return !level_cons_[static_cast<std::size_t>(level)]
                .loop_order.empty();
}

template <typename Visit>
void
MapSpace::forTiledDims(int level, const std::vector<std::int64_t> &lf,
                       Visit &&visit) const
{
    const auto &order = level_cons_[static_cast<std::size_t>(level)]
                            .loop_order;
    if (order.empty()) {
        for (int d = 0; d < dimCount(); ++d) {
            if (lf[static_cast<std::size_t>(d)] > 1) {
                visit(d);
            }
        }
        return;
    }
    // Every dimension tiled at a constrained level is in its order by
    // construction.
    for (int d : order) {
        if (lf[static_cast<std::size_t>(d)] > 1) {
            visit(d);
        }
    }
}

bool
MapSpace::spatialCandidate(int level, int dim, std::int64_t factor) const
{
    if (factor <= 1 || factor > arch_.level(level).fanout) {
        return false;
    }
    const auto &allowed = level_cons_[static_cast<std::size_t>(level)]
                              .spatial_dims;
    return allowed.empty() || contains(allowed, dim);
}

MapSpace::DimList
MapSpace::spatialCandidates(
    int level, const std::vector<std::int64_t> &factors) const
{
    DimList candidates;
    if (arch_.level(level).fanout <= 1) {
        return candidates;
    }
    for (int d = 0; d < dimCount(); ++d) {
        if (spatialCandidate(level, d, factors[static_cast<std::size_t>(d)])) {
            candidates.push_back(d);
        }
    }
    return candidates;
}

bool
MapSpace::alwaysKept(int level, int t) const
{
    // The outermost level is every tensor's backing store.
    const auto &ch = keep_choices_[static_cast<std::size_t>(level)];
    return level == 0 ||
           (ch.size() == 1 && (ch.front().empty() ||
                               ch.front()[static_cast<std::size_t>(t)]));
}

std::vector<std::size_t>
MapSpace::tilingAt(std::int64_t index) const
{
    auto digits = math::mixedRadixDecode(index, split_count_);
    return {digits.begin(), digits.end()};
}

MapSpace::Factors
MapSpace::tilingFactors(const std::vector<std::size_t> &tiling) const
{
    const int S = levelCount();
    const int D = dimCount();
    Factors factors(
        static_cast<std::size_t>(S),
        std::vector<std::int64_t>(static_cast<std::size_t>(D), 1));
    for (int d = 0; d < D; ++d) {
        const auto &split =
            splits_[static_cast<std::size_t>(d)]
                   [tiling[static_cast<std::size_t>(d)]];
        for (int l = 0; l < S; ++l) {
            factors[static_cast<std::size_t>(l)]
                   [static_cast<std::size_t>(d)] =
                split[static_cast<std::size_t>(l)];
        }
    }
    return factors;
}

std::uint64_t
MapSpace::tiledMask(const std::vector<std::int64_t> &level_factors) const
{
    std::uint64_t mask = 0;
    for (int d = 0; d < dimCount(); ++d) {
        if (level_factors[static_cast<std::size_t>(d)] > 1) {
            mask |= std::uint64_t{1} << static_cast<unsigned>(d);
        }
    }
    return mask;
}

bool
MapSpace::canonicalAt(int level, std::uint64_t mask) const
{
    return options_.prune_symmetry && !orderConstrained(level) &&
           countBits(mask) <= kMaxCanonicalDims;
}

void
MapSpace::ensureCanonical(int level, const std::vector<std::int64_t> &lf)
{
    std::uint64_t mask = tiledMask(lf);
    if (!canonicalAt(level, mask) || canon_.count(mask) != 0) {
        return;
    }
    std::vector<int> dims;
    forTiledDims(level, lf, [&dims](int d) { dims.push_back(d); });
    // Canonical = every adjacent pair of same-class dimensions is
    // ascending by dimension id. Each equivalence orbit (orders
    // reachable by commuting same-class neighbors) contains exactly
    // one such order, so keeping only these keeps one traffic-identical
    // representative per orbit. Counting must enumerate, not divide by
    // multinomials: classes need not form contiguous runs in an order,
    // so orbits have varying sizes.
    std::vector<int> orders;
    std::vector<int> perm;
    appendCanonicalOrders(dims, dim_class_, 0, perm, orders);
    canon_.emplace(mask, std::move(orders));
}

const std::vector<int> &
MapSpace::canonicalOrders(std::uint64_t mask) const
{
    auto it = canon_.find(mask);
    SL_ASSERT(it != canon_.end(),
              "canonical orders were not prebuilt for mask ", mask);
    return it->second;
}

MapSpace::TensorMasks
MapSpace::relevantLevelMasks(const Factors &factors) const
{
    const int T = workload_.tensorCount();
    TensorMasks rel(static_cast<std::size_t>(T), 0);
    for (int l = 0; l < levelCount(); ++l) {
        forTiledDims(l, factors[static_cast<std::size_t>(l)], [&](int d) {
            for (int t = 0; t < T; ++t) {
                if (workload_.dimRelevant(t, d)) {
                    rel[static_cast<std::size_t>(t)] |=
                        std::uint64_t{1} << static_cast<unsigned>(l);
                }
            }
        });
    }
    return rel;
}

MapSpace::KeepCombos
MapSpace::keepCombos(int t, std::uint64_t relevant_mask) const
{
    const int S = levelCount();
    const int F = static_cast<int>(keep_free_levels_.size());
    // Keeps forced regardless of the free bits.
    std::uint64_t fixed = 0;
    for (int l = 0; l < S; ++l) {
        if (alwaysKept(l, t)) {
            fixed |= std::uint64_t{1} << static_cast<unsigned>(l);
        }
    }
    auto kept = [&](std::uint32_t bits, int i) {
        return (bits >> static_cast<unsigned>(i)) & 1u;
    };
    auto level_bit = [&](int i) {
        return std::uint64_t{1} << static_cast<unsigned>(
                   keep_free_levels_[static_cast<std::size_t>(i)]);
    };
    KeepCombos combos;
    combos.reserve(std::size_t{1} << F);
    for (std::uint32_t bits = 0;
         bits < (1u << static_cast<unsigned>(F)); ++bits) {
        std::uint64_t col = fixed;
        for (int i = 0; i < F; ++i) {
            col |= kept(bits, i) ? level_bit(i) : 0;
        }
        // A free keep at level l is dominated when some inner keeping
        // level b exists and no loop at levels [l, b) touches the
        // tensor: the kept tile then provides zero reuse (fills ==
        // reads), so bypassing it saves accesses and capacity on every
        // metric. The innermost keep (no b) is never dominated.
        bool dominated = false;
        for (int i = 0; i < F && !dominated; ++i) {
            // Levels inner to l that keep the tensor: the lowest is b,
            // and `between` is the level range [l, b).
            std::uint64_t inner = col & ~((level_bit(i) << 1) - 1);
            if (kept(bits, i) && inner != 0) {
                std::uint64_t between = (inner & (~inner + 1)) -
                                        level_bit(i);
                dominated = (relevant_mask & between) == 0;
            }
        }
        if (!dominated) {
            combos.push_back(bits);
        }
    }
    return combos;
}

bool
MapSpace::capacityPruned(const std::vector<std::size_t> &tiling) const
{
    const int S = levelCount();
    const int D = dimCount();
    const int T = workload_.tensorCount();
    // Per-dimension tile at level l: the product of factors at l and
    // below, accumulated innermost level first.
    SmallVector<std::int64_t, 8> tiles(static_cast<std::size_t>(D), 1);
    TileExtents extents;
    for (int l = S - 1; l >= 0; --l) {
        for (int d = 0; d < D; ++d) {
            tiles[static_cast<std::size_t>(d)] *=
                splits_[static_cast<std::size_t>(d)]
                       [tiling[static_cast<std::size_t>(d)]]
                       [static_cast<std::size_t>(l)];
        }
        double cap = arch_.level(l).capacity_words;
        if (std::isinf(cap)) {
            continue;
        }
        // Minimum possible occupancy: only tensors kept under every
        // admissible mask count, at their dense tile footprint (the
        // engine's worst-case words for an unformatted kept tensor).
        double occupancy = 0.0;
        for (int t = 0; t < T; ++t) {
            if (alwaysKept(l, t)) {
                workload_.tensorTileExtentsInto(t, tiles.data(), extents);
                occupancy += static_cast<double>(volume(extents));
            }
        }
        if (occupancy > cap) {
            return true;
        }
    }
    return false;
}

MapSpace::Block::Block(const MapSpace &space, const Factors &factors)
    : space_(space), factors_(factors),
      // The joint keep axis factorizes per tensor: every open level
      // offers all masks, so a joint choice is exactly one free-level
      // keep column per tensor.
      per_tensor_keeps_(space.options_.prune_dominated_keeps &&
                        !space.keep_free_levels_.empty())
{
    if (per_tensor_keeps_) {
        relevant_ = space_.relevantLevelMasks(factors_);
    }
}

std::int64_t
MapSpace::Block::orders(int level, std::uint64_t mask, bool canonical) const
{
    if (canonical && space_.canonicalAt(level, mask)) {
        // The empty set has one (empty) order.
        const int k = countBits(mask);
        return k == 0 ? 1
                      : static_cast<std::int64_t>(
                            space_.canonicalOrders(mask).size()) / k;
    }
    return space_.orderConstrained(level)
               ? 1
               : math::factorial(countBits(mask));
}

MapSpace::Block::Counts
MapSpace::Block::counts() const
{
    double ps_raw = 1.0;   // permutation x spatial, before symmetry
    double ps_sym = 1.0;   // permutation x spatial, canonical orders
    double keeps_raw = 1.0;
    double keeps_pruned = 1.0;
    Counts c;
    for (int l = 0; l < space_.levelCount(); ++l) {
        const auto &lf = factors_[static_cast<std::size_t>(l)];
        std::uint64_t mask = space_.tiledMask(lf);
        std::int64_t raw_perms = orders(l, mask, false);
        std::int64_t perms = orders(l, mask, true);
        std::int64_t spatial = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   space_.spatialCandidates(l, lf).size()));
        ps_raw *= static_cast<double>(raw_perms) *
                  static_cast<double>(spatial);
        ps_sym *= static_cast<double>(perms) *
                  static_cast<double>(spatial);
        keeps_raw *= static_cast<double>(
            space_.keep_choices_[static_cast<std::size_t>(l)].size());
        c.size = math::mulSat(math::mulSat(c.size, perms), spatial);
    }
    std::int64_t keep_block = 1;
    if (per_tensor_keeps_) {
        for (int t = 0; t < space_.workload_.tensorCount(); ++t) {
            std::int64_t n = static_cast<std::int64_t>(
                space_.keepCombos(t, relevant_[static_cast<std::size_t>(t)])
                    .size());
            keeps_pruned *= static_cast<double>(n);
            keep_block = math::mulSat(keep_block, n);
        }
    } else {
        keeps_pruned = keeps_raw;
        for (const auto &choices : space_.keep_choices_) {
            keep_block = math::mulSat(
                keep_block, static_cast<std::int64_t>(choices.size()));
        }
    }
    c.raw = ps_raw * keeps_raw;
    c.symmetry = ps_sym * keeps_raw;
    c.pruned = ps_sym * keeps_pruned;
    c.size = math::mulSat(c.size, keep_block);
    return c;
}

Mapping
MapSpace::Block::build(std::int64_t offset) const
{
    auto digit = [&offset](std::size_t radix) {
        auto n = static_cast<std::int64_t>(radix);
        auto d = static_cast<std::size_t>(offset % n);
        offset /= n;
        return d;
    };
    const int S = space_.levelCount();
    const int T = space_.workload_.tensorCount();
    std::vector<LevelNest> nests(static_cast<std::size_t>(S));
    for (int l = 0; l < S; ++l) {
        const auto &lf = factors_[static_cast<std::size_t>(l)];
        std::uint64_t mask = space_.tiledMask(lf);
        auto choice =
            digit(static_cast<std::size_t>(orders(l, mask, true)));
        std::vector<int> order;
        if (space_.canonicalAt(l, mask)) {
            const auto &flat = space_.canonicalOrders(mask);
            const auto k = static_cast<std::ptrdiff_t>(countBits(mask));
            auto first =
                flat.begin() + static_cast<std::ptrdiff_t>(choice) * k;
            order.assign(first, first + k);
        } else {
            // The choice-th permutation of the level's tiled order (the
            // identity at a constrained level, its only order).
            std::vector<int> tiled;
            space_.forTiledDims(l, lf, [&tiled](int d) {
                tiled.push_back(d);
            });
            for (int pos : math::nthPermutation(
                     static_cast<int>(tiled.size()),
                     static_cast<std::int64_t>(choice))) {
                order.push_back(tiled[static_cast<std::size_t>(pos)]);
            }
        }
        auto candidates = space_.spatialCandidates(l, lf);
        int spatial_dim = candidates.empty()
                              ? -1
                              : candidates[digit(candidates.size())];
        appendLoops(nests[static_cast<std::size_t>(l)], order, lf,
                    spatial_dim);
    }

    if (per_tensor_keeps_) {
        for (int l = 0; l < S; ++l) {
            const auto &ch = space_.keep_choices_[static_cast<std::size_t>(l)];
            if (ch.size() == 1) {
                nests[static_cast<std::size_t>(l)].keep = ch.front();
            }
        }
        std::vector<std::uint32_t> combo(static_cast<std::size_t>(T), 0);
        for (int t = 0; t < T; ++t) {
            auto combos =
                space_.keepCombos(t, relevant_[static_cast<std::size_t>(t)]);
            combo[static_cast<std::size_t>(t)] = combos[digit(combos.size())];
        }
        for (std::size_t i = 0; i < space_.keep_free_levels_.size(); ++i) {
            auto l = static_cast<std::size_t>(space_.keep_free_levels_[i]);
            std::size_t bits = 0;
            for (int t = 0; t < T; ++t) {
                bits |= ((combo[static_cast<std::size_t>(t)] >> i) & 1u)
                        << t;
            }
            // An open level lists keep-all first, then mask `bits` at
            // index bits + 1 (all-true is the keep-all entry).
            const auto &choices = space_.keep_choices_[l];
            nests[l].keep = choices[(bits + 1) % choices.size()];
        }
    } else {
        for (int l = 0; l < S; ++l) {
            const auto &choices =
                space_.keep_choices_[static_cast<std::size_t>(l)];
            nests[static_cast<std::size_t>(l)].keep =
                choices[digit(choices.size())];
        }
    }
    SL_ASSERT(offset == 0, "mapspace index decode left a residue");
    return Mapping(std::move(nests));
}

std::int64_t
MapSpace::tilingCount() const
{
    return std::accumulate(split_count_.begin(), split_count_.end(),
                           std::int64_t{1}, math::mulSat);
}

std::vector<MapSpace::Point>
MapSpace::coarsePoints(std::int64_t tiling_index, int max_keeps) const
{
    SL_ASSERT(pointEncodable(),
              "coarsePoints requires materialized tiling axes");
    SL_ASSERT(tiling_index >= 0 && tiling_index < tilingCount(),
              "tiling index ", tiling_index, " out of range");
    SL_ASSERT(max_keeps > 0, "max_keeps must be positive");
    const int S = levelCount();
    Point base;
    base.tiling = tilingAt(tiling_index);
    base.order.resize(static_cast<std::size_t>(S));
    base.spatial.assign(static_cast<std::size_t>(S), -1);
    base.keep.assign(static_cast<std::size_t>(S), 0);
    // Reconcile fills the default ascending loop order and the first
    // spatial candidate — the coarse representative of the fine axes.
    base = reconcile(std::move(base));

    std::vector<std::int64_t> kradices;
    std::int64_t total = 1;
    for (const auto &choices : keep_choices_) {
        kradices.push_back(static_cast<std::int64_t>(choices.size()));
        total = math::mulSat(total, kradices.back());
    }
    std::int64_t k = std::min<std::int64_t>(max_keeps, total);
    std::int64_t stride = total / k;
    std::vector<Point> out;
    out.reserve(static_cast<std::size_t>(k));
    for (std::int64_t j = 0; j < k; ++j) {
        auto kd = math::mixedRadixDecode(j * stride, kradices);
        Point p = base;
        p.keep.assign(kd.begin(), kd.end());
        out.push_back(std::move(p));
    }
    return out;
}

Mapping
MapSpace::sampleMapping(std::uint64_t seed) const
{
    SL_ASSERT(!empty_, "sampling an empty mapspace");
    std::mt19937_64 rng(seed);
    const int S = levelCount();
    const int D = dimCount();

    // 1. Split each dimension's bound into per-level factors by
    //    repeatedly peeling random divisors from the innermost
    //    admissible level upward; the outermost admissible level takes
    //    the residual. With no constraints every level is admissible
    //    and this consumes the RNG exactly like the pre-IR sampler.
    std::vector<std::vector<std::int64_t>> factors(
        static_cast<std::size_t>(S),
        std::vector<std::int64_t>(static_cast<std::size_t>(D), 1));
    for (int d = 0; d < D; ++d) {
        const auto &lvls = allowed_[static_cast<std::size_t>(d)];
        std::int64_t remaining = workload_.dims()[d].bound;
        if (lvls.empty()) {
            continue;  // bound == 1 (empty spaces are rejected above)
        }
        for (std::size_t i = lvls.size(); i-- > 1 && remaining > 1;) {
            auto divs = math::divisors(remaining);
            std::uniform_int_distribution<std::size_t> pick(
                0, divs.size() - 1);
            std::int64_t f = divs[pick(rng)];
            factors[static_cast<std::size_t>(lvls[i])]
                   [static_cast<std::size_t>(d)] = f;
            remaining /= f;
        }
        factors[static_cast<std::size_t>(lvls.front())]
               [static_cast<std::size_t>(d)] = remaining;
    }

    // 2. Per level: loop order (constrained sequence or a shuffle) and
    //    spatial assignment. With fanout > 1, one candidate dimension
    //    becomes spatial when possible; candidates follow the loop
    //    order, as the pre-IR sampler did.
    std::vector<LevelNest> nests(static_cast<std::size_t>(S));
    for (int l = 0; l < S; ++l) {
        const auto &lf = factors[static_cast<std::size_t>(l)];
        std::vector<int> dims;
        forTiledDims(l, lf, [&dims](int d) { dims.push_back(d); });
        if (!orderConstrained(l)) {
            std::shuffle(dims.begin(), dims.end(), rng);
        }
        std::vector<int> candidates;
        for (int d : dims) {
            if (spatialCandidate(l, d, lf[static_cast<std::size_t>(d)])) {
                candidates.push_back(d);
            }
        }
        int spatial_dim = -1;
        if (!candidates.empty()) {
            std::uniform_int_distribution<std::size_t> pick(
                0, candidates.size() - 1);
            spatial_dim = candidates[pick(rng)];
        }
        appendLoops(nests[static_cast<std::size_t>(l)], dims, lf,
                    spatial_dim);
        // Keep draw: a single choice (constrained mask or closed keep
        // axis) assigns without consuming the RNG, so explore_bypass
        // off reproduces the historical stream exactly.
        const auto &choices = keep_choices_[static_cast<std::size_t>(l)];
        std::size_t keep = 0;
        if (choices.size() > 1) {
            std::uniform_int_distribution<std::size_t> pick(
                0, choices.size() - 1);
            keep = pick(rng);
        }
        nests[static_cast<std::size_t>(l)].keep = choices[keep];
    }
    return Mapping(std::move(nests));
}

Mapping
MapSpace::mappingAt(std::int64_t index) const
{
    SL_ASSERT(size_.enumerable >= 0, "mapspace is not enumerable");
    SL_ASSERT(index >= 0 && index < size_.enumerable,
              "mapspace index ", index, " out of range");

    // Locate the tiling block, then decode the offset within it.
    auto it = std::upper_bound(tiling_prefix_.begin(),
                               tiling_prefix_.end(), index);
    std::int64_t t =
        static_cast<std::int64_t>(it - tiling_prefix_.begin()) - 1;
    Factors factors = tilingFactors(tilingAt(t));
    return Block(*this, factors)
        .build(index - tiling_prefix_[static_cast<std::size_t>(t)]);
}

Mapping
MapSpace::materialize(const Point &point) const
{
    Factors factors = tilingFactors(point.tiling);
    const int S = levelCount();
    std::vector<LevelNest> nests(static_cast<std::size_t>(S));
    for (int l = 0; l < S; ++l) {
        appendLoops(nests[static_cast<std::size_t>(l)],
                    point.order[static_cast<std::size_t>(l)],
                    factors[static_cast<std::size_t>(l)],
                    point.spatial[static_cast<std::size_t>(l)]);
        nests[static_cast<std::size_t>(l)].keep =
            keep_choices_[static_cast<std::size_t>(l)]
                         [point.keep[static_cast<std::size_t>(l)]];
    }
    return Mapping(std::move(nests));
}

std::optional<MapSpace::Point>
MapSpace::encode(const Mapping &mapping) const
{
    const int S = levelCount();
    const int D = dimCount();
    if (mapping.levelCount() != S || !pointEncodable()) {
        return std::nullopt;
    }
    Point point;
    point.tiling.resize(static_cast<std::size_t>(D));
    point.order.resize(static_cast<std::size_t>(S));
    point.spatial.assign(static_cast<std::size_t>(S), -1);
    point.keep.resize(static_cast<std::size_t>(S));

    // Per dimension: the split (per-level factors) the loops spell.
    Factors split(static_cast<std::size_t>(D),
                  std::vector<std::int64_t>(static_cast<std::size_t>(S), 1));
    for (int l = 0; l < S; ++l) {
        const LevelNest &nest = mapping.level(l);
        for (const Loop &loop : nest.loops) {
            if (loop.dim < 0 || loop.dim >= D ||
                split[static_cast<std::size_t>(loop.dim)]
                     [static_cast<std::size_t>(l)] != 1) {
                return std::nullopt;  // unknown or repeated dimension
            }
            split[static_cast<std::size_t>(loop.dim)]
                 [static_cast<std::size_t>(l)] = loop.bound;
            if (loop.bound > 1) {
                point.order[static_cast<std::size_t>(l)].push_back(
                    loop.dim);
            }
            if (loop.spatial) {
                if (point.spatial[static_cast<std::size_t>(l)] != -1) {
                    return std::nullopt;  // two spatial loops
                }
                point.spatial[static_cast<std::size_t>(l)] = loop.dim;
            }
        }
        const auto &keeps = keep_choices_[static_cast<std::size_t>(l)];
        auto kit = std::find(keeps.begin(), keeps.end(), nest.keep);
        if (kit == keeps.end()) {
            return std::nullopt;
        }
        point.keep[static_cast<std::size_t>(l)] =
            static_cast<std::size_t>(kit - keeps.begin());
    }
    for (int d = 0; d < D; ++d) {
        const auto &dim_splits = splits_[static_cast<std::size_t>(d)];
        const auto &want = split[static_cast<std::size_t>(d)];
        auto sit =
            std::lower_bound(dim_splits.begin(), dim_splits.end(), want);
        if (sit == dim_splits.end() || *sit != want) {
            return std::nullopt;  // outside the pruned tiling axis
        }
        point.tiling[static_cast<std::size_t>(d)] =
            static_cast<std::size_t>(sit - dim_splits.begin());
    }
    if (!satisfies(materialize(point))) {
        return std::nullopt;
    }
    return point;
}

MapSpace::Point
MapSpace::reconcile(Point point) const
{
    Factors factors = tilingFactors(point.tiling);
    for (int l = 0; l < levelCount(); ++l) {
        const auto &lf = factors[static_cast<std::size_t>(l)];
        auto &order = point.order[static_cast<std::size_t>(l)];
        // Drop untiled dimensions (every one at a constrained level,
        // whose order is rebuilt), then append the missing ones.
        auto stale = [&](int d) {
            return orderConstrained(l) ||
                   lf[static_cast<std::size_t>(d)] <= 1;
        };
        order.erase(std::remove_if(order.begin(), order.end(), stale),
                    order.end());
        forTiledDims(l, lf, [&order](int d) {
            if (!contains(order, d)) {
                order.push_back(d);
            }
        });
        auto candidates = spatialCandidates(l, lf);
        int &spatial = point.spatial[static_cast<std::size_t>(l)];
        if (!contains(candidates, spatial)) {
            spatial = candidates.empty() ? -1 : candidates.front();
        }
    }
    return point;
}

MapSpace::Point
MapSpace::samplePoint(std::uint64_t seed) const
{
    SL_ASSERT(pointEncodable(),
              "samplePoint requires every tiling axis materialized");
    auto point = encode(sampleMapping(seed));
    SL_ASSERT(point.has_value(),
              "a sampled mapping failed to encode into its own space");
    return *std::move(point);
}

MapSpace::Point
MapSpace::crossover(const Point &a, const Point &b,
                    std::mt19937_64 &rng) const
{
    std::uniform_int_distribution<int> coin(0, 1);
    Point child = a;
    for (std::size_t d = 0; d < child.tiling.size(); ++d) {
        if (coin(rng)) {
            child.tiling[d] = b.tiling[d];
        }
    }
    for (std::size_t l = 0; l < child.order.size(); ++l) {
        if (coin(rng)) {
            child.order[l] = b.order[l];
        }
        if (coin(rng)) {
            child.spatial[l] = b.spatial[l];
        }
        if (coin(rng)) {
            child.keep[l] = b.keep[l];
        }
    }
    return reconcile(std::move(child));
}

MapSpace::Neighborhood::Neighborhood(const MapSpace &space,
                                     const Point &point)
    : space_(space), point_(point)
{
    for (int d = 0; d < space_.dimCount(); ++d) {
        tiling_ += tilingMoves(d);
    }
    const int S = space_.levelCount();
    for (int l = 0; l < S; ++l) {
        order_ += orderSwaps(l);
        keep_ += keepAlternatives(l);
        const int current = point_.spatial[static_cast<std::size_t>(l)];
        for (int d = 0; d < space_.dimCount(); ++d) {
            std::int64_t f =
                space_.splits_[static_cast<std::size_t>(d)]
                              [point_.tiling[static_cast<std::size_t>(d)]]
                              [static_cast<std::size_t>(l)];
            if (d != current && space_.spatialCandidate(l, d, f)) {
                spatial_.emplace_back(l, d);
            }
        }
    }
}

std::size_t
MapSpace::Neighborhood::tilingMoves(int d) const
{
    auto idx = static_cast<std::int64_t>(
        point_.tiling[static_cast<std::size_t>(d)]);
    return (idx > 0 ? 1 : 0) + (idx + 1 < space_.splitCount(d) ? 1 : 0);
}

std::size_t
MapSpace::Neighborhood::orderSwaps(int level) const
{
    std::size_t n = point_.order[static_cast<std::size_t>(level)].size();
    return space_.orderConstrained(level) || n < 2 ? 0 : n - 1;
}

MapSpace::Point
MapSpace::Neighborhood::build(std::size_t i) const
{
    SL_ASSERT(i < size(), "neighbor index out of range");
    Point p = point_;
    if (i < tiling_) {
        for (int d = 0;; ++d) {
            std::size_t n = tilingMoves(d);
            if (i < n) {
                std::size_t &idx = p.tiling[static_cast<std::size_t>(d)];
                idx = i == 0 && idx > 0 ? idx - 1 : idx + 1;
                return space_.reconcile(std::move(p));
            }
            i -= n;
        }
    }
    i -= tiling_;
    if (i < order_) {
        for (int l = 0;; ++l) {
            std::size_t n = orderSwaps(l);
            if (i < n) {
                auto &order = p.order[static_cast<std::size_t>(l)];
                std::swap(order[i], order[i + 1]);
                return p;
            }
            i -= n;
        }
    }
    i -= order_;
    if (i < spatial_.size()) {
        auto [l, d] = spatial_[i];
        p.spatial[static_cast<std::size_t>(l)] = d;
        return p;
    }
    i -= spatial_.size();
    for (int l = 0;; ++l) {
        std::size_t n = keepAlternatives(l);
        if (i < n) {
            std::size_t &k = p.keep[static_cast<std::size_t>(l)];
            k = i < k ? i : i + 1;  // skip the current mask
            return p;
        }
        i -= n;
    }
}

std::optional<MapSpace::Point>
MapSpace::randomNeighbor(const Point &point, std::mt19937_64 &rng) const
{
    Neighborhood moves(*this, point);
    if (moves.size() == 0) {
        return std::nullopt;
    }
    std::uniform_int_distribution<std::size_t> pick(0, moves.size() - 1);
    return moves.build(pick(rng));
}

std::vector<MapSpace::Point>
MapSpace::neighbors(const Point &point) const
{
    Neighborhood moves(*this, point);
    std::vector<Point> out;
    out.reserve(moves.size());
    for (std::size_t i = 0; i < moves.size(); ++i) {
        out.push_back(moves.build(i));
    }
    return out;
}

bool
MapSpace::pointEncodable() const
{
    return !empty_ && std::none_of(splits_.begin(), splits_.end(),
                                   [](const auto &s) { return s.empty(); });
}

bool
MapSpace::satisfies(const Mapping &mapping) const
{
    if (mapping.levelCount() != levelCount()) {
        return false;
    }
    for (int l = 0; l < levelCount(); ++l) {
        const LevelConstraint &con =
            level_cons_[static_cast<std::size_t>(l)];
        const LevelNest &nest = mapping.level(l);
        // Loops must visit a subsequence of the constrained order, and
        // only allowed dimensions may be spatial.
        auto pos = con.loop_order.begin();
        for (const Loop &loop : nest.loops) {
            if (!con.loop_order.empty()) {
                pos = std::find(pos, con.loop_order.end(), loop.dim);
                if (pos == con.loop_order.end()) {
                    return false;
                }
                ++pos;
            }
            if (loop.spatial && !con.spatial_dims.empty() &&
                !contains(con.spatial_dims, loop.dim)) {
                return false;
            }
        }
        // A keep constraint is the level's only keep choice.
        if (!con.keep.empty() &&
            nest.keep != keep_choices_[static_cast<std::size_t>(l)].front()) {
            return false;
        }
    }
    return true;
}

} // namespace sparseloop
