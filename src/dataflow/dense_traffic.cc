/**
 * @file
 * Dense traffic (dataflow modeling) implementation.
 */

#include "dataflow/dense_traffic.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sparseloop {

NestAnalysis::NestAnalysis(const Workload &workload,
                           const Architecture &arch,
                           const Mapping &mapping)
    : workload_(workload), arch_(arch), mapping_(mapping)
{
}

double
NestAnalysis::temporalMultiplier(int t, int lvl) const
{
    // Concatenate the subnests above lvl and scan from the innermost
    // loop outward: leading irrelevant loops grant temporal reuse; the
    // first relevant loop and everything outside it multiply.
    double m = 1.0;
    bool seen_relevant = false;
    for (int l = std::min(lvl, mapping_.levelCount()); l-- > 0;) {
        const auto &loops = mapping_.level(l).loops;
        for (std::size_t i = loops.size(); i-- > 0;) {
            const Loop &loop = loops[i];
            // Bound-1 and spatial loops never advance the tile in
            // time: they are transparent to the reuse scan.
            if (loop.spatial || loop.bound == 1) {
                continue;
            }
            if (!seen_relevant &&
                !workload_.dimRelevant(t, loop.dim)) {
                continue;
            }
            seen_relevant = true;
            m *= static_cast<double>(loop.bound);
        }
    }
    return m;
}

double
NestAnalysis::multicastFactor(int t, int from, int to) const
{
    double mcast = 1.0;
    for (int l = from; l < to && l < mapping_.levelCount(); ++l) {
        for (const auto &loop : mapping_.level(l).loops) {
            if (loop.spatial && !workload_.dimRelevant(t, loop.dim)) {
                mcast *= static_cast<double>(loop.bound);
            }
        }
    }
    return mcast;
}

SmallVector<int, 8>
NestAnalysis::keepLevels(int t) const
{
    SmallVector<int, 8> ks;
    for (int l = 0; l < mapping_.levelCount(); ++l) {
        // The outermost level is the backing store and always keeps.
        if (l == 0 || mapping_.level(l).keeps(t)) {
            ks.push_back(l);
        }
    }
    // The invariant every consumer relies on: the backing store always
    // keeps, so the list is never empty and always starts at level 0 —
    // even for all-bypass-below-backing-store masks.
    SL_ASSERT(!ks.empty() && ks.front() == 0,
              "keepLevels invariant violated for tensor ", t);
    return ks;
}

int
NestAnalysis::innermostKeepLevel(int t) const
{
    return keepLevels(t).back();
}

DenseTraffic
NestAnalysis::analyze() const
{
    mapping_.validate(workload_, arch_);

    const int S = mapping_.levelCount();
    const int T = workload_.tensorCount();
    const int D = workload_.dimCount();
    DenseTraffic out;
    out.levels.assign(S, T);
    out.instances.resize(S);

    // Dim-tile table: row l holds dimTilesAtLevel(l) for l in [0, S],
    // built by one suffix sweep instead of S independent rescans. The
    // products accumulate in a different order than dimTilesAtLevel's,
    // but integer multiplication is order-independent, so the values
    // (and everything derived from them) are identical. Every design
    // in the zoo has (S+1)*D <= 28, so the table stays inline.
    SmallVector<std::int64_t, 32> tiles(
        static_cast<std::size_t>(S + 1) * D, 1);
    for (int l = S; l-- > 0;) {
        std::int64_t *row =
            tiles.data() + static_cast<std::size_t>(l) * D;
        const std::int64_t *below = row + D;
        std::copy(below, below + D, row);
        for (const auto &loop : mapping_.level(l).loops) {
            row[loop.dim] *= loop.bound;
        }
    }

    // Instance counts: prefix products over spatial bounds, matching
    // instancesAtLevel level by level.
    {
        std::int64_t inst = 1;
        for (int l = 0; l < S; ++l) {
            out.instances[l] = inst;
            for (const auto &loop : mapping_.level(l).loops) {
                if (loop.spatial) {
                    inst *= loop.bound;
                }
            }
        }
        out.compute_instances = inst;
    }
    out.computes = static_cast<double>(workload_.denseComputeCount());

    for (int l = 0; l < S; ++l) {
        const std::int64_t *row =
            tiles.data() + static_cast<std::size_t>(l) * D;
        TensorLevelDense *level = out.levels[l];
        for (int t = 0; t < T; ++t) {
            auto &rec = level[t];
            rec.kept = (l == 0) || mapping_.level(l).keeps(t);
            workload_.tensorTileExtentsInto(t, row, rec.tile_extents);
            rec.footprint =
                static_cast<double>(volume(rec.tile_extents));
        }
    }

    // Deliveries of tensor t across the boundary into level lvl
    // (elements): footprint x instances x temporal-reuse factor.
    // lvl == S designates the virtual compute level: one element per
    // operand per MAC.
    auto transfer = [&](int t, int lvl) {
        double footprint;
        std::int64_t instances;
        if (lvl >= S) {
            footprint = 1.0;
            instances = out.compute_instances;
            lvl = S;
        } else {
            footprint = out.levels[lvl][t].footprint;
            instances = out.instances[lvl];
        }
        return footprint * static_cast<double>(instances) *
               temporalMultiplier(t, lvl);
    };

    for (int t = 0; t < T; ++t) {
        const bool is_output = workload_.tensor(t).is_output;
        const SmallVector<int, 8> keeps = keepLevels(t);
        // Traffic between consecutive keeping levels.
        for (std::size_t i = 0; i + 1 < keeps.size(); ++i) {
            int a = keeps[i];
            int b = keeps[i + 1];
            double x = transfer(t, b);
            double mcast = multicastFactor(t, a, b);
            if (is_output) {
                out.levels[b][t].drains += x;
                out.levels[a][t].updates += x / mcast;
            } else {
                out.levels[b][t].fills += x;
                out.levels[a][t].reads += x / mcast;
            }
        }
        // Boundary between the innermost keeping level and compute.
        int inner = keeps.back();
        double x = transfer(t, S);
        double mcast = multicastFactor(t, inner, S);
        if (is_output) {
            out.levels[inner][t].updates += x / mcast;
        } else {
            out.levels[inner][t].reads += x / mcast;
        }
        // Accumulation reads: every update beyond the first write of
        // an element residency is a read-modify-write.
        if (is_output) {
            for (int a : keeps) {
                auto &rec = out.levels[a][t];
                double residencies = transfer(t, a);
                rec.acc_reads =
                    std::max(0.0, rec.updates - residencies);
            }
        }
    }
    return out;
}

} // namespace sparseloop
