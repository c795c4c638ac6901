/**
 * @file
 * Sparse modeling step implementation.
 */

#include "sparse/sparse_analysis.hh"

#include <algorithm>

#include <random>

#include "common/logging.hh"
#include "density/actual_data.hh"
#include "density/hypergeometric.hh"

namespace sparseloop {

SparseAnalysis::SparseAnalysis(const Workload &workload,
                               const Architecture &arch,
                               const Mapping &mapping,
                               const SafSpec &safs)
    : workload_(workload), arch_(arch), mapping_(mapping), safs_(safs),
      nest_(workload, arch, mapping)
{
    for (const auto &saf : safs_.intersections) {
        if (saf.target < 0 || saf.target >= workload_.tensorCount()) {
            SL_FATAL("intersection SAF targets unknown tensor ",
                     saf.target);
        }
        if (saf.level < 0 || saf.level >= arch_.levelCount()) {
            SL_FATAL("intersection SAF at unknown level ", saf.level);
        }
        if (saf.leaders.empty()) {
            SL_FATAL("intersection SAF needs at least one leader");
        }
        for (int leader : saf.leaders) {
            if (leader < 0 || leader >= workload_.tensorCount()) {
                SL_FATAL("intersection SAF has unknown leader tensor ",
                         leader);
            }
        }
    }
    for (const auto &f : safs_.formats) {
        if (f.tensor < 0 || f.tensor >= workload_.tensorCount() ||
            f.level < 0 || f.level >= arch_.levelCount()) {
            SL_FATAL("format SAF references unknown tensor or level");
        }
        if (f.format.empty()) {
            SL_FATAL("format SAF for tensor ", f.tensor, " at level ",
                     f.level, " has no ranks");
        }
    }
}

double
SparseAnalysis::density(int t) const
{
    return workload_.tensor(t).densityValue();
}

double
SparseAnalysis::eliminationProbability(const IntersectionSaf &saf,
                                       std::vector<std::int64_t> &dim_tiles,
                                       Shape &extents) const
{
    const int S = mapping_.levelCount();
    // Delivery boundary: follower traffic crosses into the first level
    // inside the SAF's level that keeps the follower (S: the compute).
    int b = S;
    for (int k : nest_.keepLevels(saf.target)) {
        if (k > saf.level) {
            b = k;
            break;
        }
    }
    // The boundary tile covers the loops of subnests b..innermost.
    dim_tiles.assign(workload_.dimCount(), 1);
    for (int l = b; l < S; ++l) {
        for (const auto &loop : mapping_.level(l).loops) {
            dim_tiles[loop.dim] *= loop.bound;
        }
    }
    // Extend by the follower datum's reuse region: the maximal
    // innermost run of loops irrelevant to the follower above the
    // delivery boundary (Fig. 10).
    bool stopped = false;
    for (int l = b; l-- > 0 && !stopped;) {
        const auto &loops = mapping_.level(l).loops;
        for (std::size_t i = loops.size(); i-- > 0;) {
            const Loop &loop = loops[i];
            if (loop.bound == 1) {
                continue;  // transparent: never advances anything
            }
            if (workload_.dimRelevant(saf.target, loop.dim)) {
                stopped = true;
                break;
            }
            dim_tiles[loop.dim] *= loop.bound;
        }
    }
    // Eliminate when any leader tile is empty.
    double p_keep = 1.0;
    for (int leader : saf.leaders) {
        const auto &ds = workload_.tensor(leader);
        if (!ds.density) {
            continue;  // dense leader tiles are never empty
        }
        workload_.tensorTileExtentsInto(leader, dim_tiles.data(), extents);
        p_keep *= (1.0 - ds.density->probEmptyShaped(extents));
    }
    return 1.0 - p_keep;
}

std::vector<std::int64_t>
SparseAnalysis::leaderRegionDimTiles(const IntersectionSaf &saf) const
{
    std::vector<std::int64_t> dim_tiles;
    Shape extents;
    eliminationProbability(saf, dim_tiles, extents);
    return dim_tiles;
}

double
SparseAnalysis::eliminationProbability(const IntersectionSaf &saf) const
{
    std::vector<std::int64_t> dim_tiles;
    Shape extents;
    return eliminationProbability(saf, dim_tiles, extents);
}

double
SparseAnalysis::effectualFraction() const
{
    const int T = workload_.tensorCount();
    // Statistical default: independent operands.
    double marginal = 1.0;
    SmallVector<const ActualDataDensity *, 4> actual;
    actual.assign(static_cast<std::size_t>(T), nullptr);
    bool all_actual = true;
    bool any_sparse = false;
    for (int t = 0; t < T; ++t) {
        const auto &ds = workload_.tensor(t);
        if (ds.is_output) {
            continue;
        }
        marginal *= density(t);
        if (!ds.density) {
            continue;  // dense operand: always nonzero
        }
        any_sparse = true;
        actual[t] =
            dynamic_cast<const ActualDataDensity *>(ds.density.get());
        if (!actual[t]) {
            all_actual = false;
        }
    }
    if (!any_sparse || !all_actual) {
        return marginal;
    }
    // Joint intersection from the concrete tensors: exact enumeration
    // of the iteration space when affordable, seeded sampling above.
    std::int64_t total = workload_.denseComputeCount();
    constexpr std::int64_t kEnumerateLimit = 1 << 22;
    constexpr std::int64_t kSamples = 1 << 15;
    auto effectualAt = [&](const Point &p) {
        for (int t = 0; t < T; ++t) {
            if (workload_.tensor(t).is_output ||
                !workload_.tensor(t).density) {
                continue;
            }
            Point q = workload_.project(t, p);
            if (!actual[t]->data().isNonzero(q)) {
                return false;
            }
        }
        return true;
    };
    std::int64_t hits = 0;
    if (total <= kEnumerateLimit) {
        Shape bounds(workload_.dimCount());
        for (int d = 0; d < workload_.dimCount(); ++d) {
            bounds[d] = workload_.dims()[d].bound;
        }
        for (std::int64_t i = 0; i < total; ++i) {
            if (effectualAt(unflatten(i, bounds))) {
                ++hits;
            }
        }
        return static_cast<double>(hits) / static_cast<double>(total);
    }
    std::mt19937_64 rng(0x5EED5EED);
    Point p(workload_.dimCount());
    for (std::int64_t s = 0; s < kSamples; ++s) {
        for (int d = 0; d < workload_.dimCount(); ++d) {
            std::uniform_int_distribution<std::int64_t> pick(
                0, workload_.dims()[d].bound - 1);
            p[d] = pick(rng);
        }
        if (effectualAt(p)) {
            ++hits;
        }
    }
    return static_cast<double>(hits) / static_cast<double>(kSamples);
}

SparseTraffic
SparseAnalysis::analyze(const DenseTraffic &dense) const
{
    const int S = mapping_.levelCount();
    const int T = workload_.tensorCount();

    SparseTraffic out;
    out.levels.assign(S, T);
    out.instances = dense.instances;
    out.compute_instances = dense.compute_instances;

    // Per-SAF elimination probabilities. p depends only on the
    // workload, mapping and density models, not on the flow being
    // filtered, so it is computed once per SAF. Entries stay in
    // specification order.
    struct CachedSaf
    {
        int level;
        int target;
        SafKind kind;
        double p;
    };
    SmallVector<CachedSaf, 8> cached;
    {
        std::vector<std::int64_t> dim_tiles;
        Shape extents;
        for (const auto &saf : safs_.intersections) {
            cached.push_back({saf.level, saf.target, saf.kind,
                              eliminationProbability(saf, dim_tiles,
                                                     extents)});
        }
    }

    // Propagation (Sec. 5.3.4), the one elimination chain: the SAFs
    // `select` picks apply outermost first, each eliminating the
    // fraction p of what the outer ones left into its gated or skipped
    // bucket; what survives stays actual. Every caller sorts a
    // specification-order subset with the same comparator, so the tie
    // order, and with it every double, is fixed.
    auto chain = [&](auto select, double base) {
        SmallVector<const CachedSaf *, 8> applied;
        for (const CachedSaf &c : cached) {
            if (select(c)) {
                applied.push_back(&c);
            }
        }
        std::sort(applied.begin(), applied.end(),
                  [](const CachedSaf *a, const CachedSaf *b) {
                      return a->level < b->level;
                  });
        ActionBreakdown split;
        double rem = base;
        for (const CachedSaf *saf : applied) {
            double elim = rem * saf->p;
            (saf->kind == SafKind::Skip ? split.skipped : split.gated) +=
                elim;
            rem -= elim;
        }
        split.actual = rem;
        return split;
    };
    // Flows crossing boundary level `boundary` of tensor t are
    // filtered by t's SAFs above that boundary.
    auto filter = [&](int t, int boundary, double base) {
        return chain(
            [&](const CachedSaf &c) {
                return c.target == t && c.level < boundary;
            },
            base);
    };

    // First-match format lookup grid (same semantics as formatAt).
    // Every design in the zoo has S*T <= 9, so the grid stays inline.
    SmallVector<const TensorFormat *, 12> fmt_grid(
        static_cast<std::size_t>(S) * T, nullptr);
    for (const auto &f : safs_.formats) {
        const TensorFormat *&slot =
            fmt_grid[static_cast<std::size_t>(f.level) * T + f.tensor];
        if (!slot) {
            slot = &f.format;
        }
    }

    // Fallback density models for format analysis of dense tensors,
    // one per tensor instead of one per (level, tensor): the model is
    // a pure function of its parameters, so sharing an instance
    // yields identical statistics.
    SmallVector<DensityModelPtr, 4> fallback;
    fallback.resize(static_cast<std::size_t>(T));

    // Per-tensor probEmpty memo shared across this tensor's format
    // bindings at every level: probEmpty is a pure function of
    // (density model, subtile volume), and each tensor keeps one model
    // for the whole analysis, so a hit returns the identical double
    // the recomputation would.
    SmallVector<ProbEmptyMemo, 4> memos;
    memos.resize(static_cast<std::size_t>(T));

    // ---- Compute action breakdown -------------------------------------
    // Every storage SAF's elimination propagates to the compute.
    double effectual_frac = effectualFraction();
    ActionBreakdown comp =
        chain([](const CachedSaf &) { return true; }, 1.0);
    double remaining = comp.actual;
    double comp_skipped = comp.skipped;
    double comp_gated = comp.gated;
    // Eliminations can only remove ineffectual computes: clamp and
    // hand back any over-elimination proportionally.
    if (remaining < effectual_frac) {
        double excess = effectual_frac - remaining;
        double elim_total = comp_skipped + comp_gated;
        if (elim_total > 0.0) {
            comp_skipped -= excess * comp_skipped / elim_total;
            comp_gated -= excess * comp_gated / elim_total;
        }
        remaining = effectual_frac;
    }
    // Remaining ineffectual computes go to the compute SAF.
    double ineff = std::max(0.0, remaining - effectual_frac);
    if (!safs_.compute.empty() && ineff > 0.0) {
        if (safs_.compute.front().kind == SafKind::Skip) {
            comp_skipped += ineff;
        } else {
            comp_gated += ineff;
        }
        remaining -= ineff;
    }
    out.computes.actual = dense.computes * remaining;
    out.computes.gated = dense.computes * comp_gated;
    out.computes.skipped = dense.computes * comp_skipped;
    out.effectual_computes = dense.computes * effectual_frac;

    double compute_total_frac = remaining + comp_gated + comp_skipped;

    // ---- Per-level traffic --------------------------------------------
    // Reused across every (level, tensor) format binding so the
    // per-rank vectors inside keep their capacity; tileStatsPair
    // computes the Expected and WorstCase estimates in one rank sweep
    // with bit-identical results to two tileStats() calls.
    TileFormatStats stats;
    TileFormatStats worst;
    SmallVector<std::int64_t, 4> fmt_extents;
    for (int l = 0; l < S; ++l) {
        for (int t = 0; t < T; ++t) {
            const auto &d = dense.at(l, t);
            auto &s = out.levels[l][t];
            s.tile_dense_words = d.footprint;

            const TensorFormat *fmt =
                fmt_grid[static_cast<std::size_t>(l) * T + t];
            double data_ratio = 1.0;  // stored words per dense element
            double meta_ratio = 0.0;  // metadata words per dense element
            if (fmt) {
                const DensityModelPtr &tensor_model =
                    workload_.tensor(t).density;
                if (!tensor_model && !fallback[t]) {
                    fallback[t] = makeUniformDensity(
                        workload_.tensorVolume(t), 1.0);
                }
                const DensityModel &model =
                    tensor_model ? *tensor_model : *fallback[t];
                fmt->flattenExtentsInto(d.tile_extents.data(),
                                        d.tile_extents.size(),
                                        fmt_extents);
                fmt->tileStatsPair(model, fmt_extents.data(),
                                   fmt_extents.size(), stats, worst,
                                   &memos[static_cast<std::size_t>(t)]);
                int wb = arch_.level(l).word_bits;
                if (d.kept) {
                    s.tile_data_words = stats.data_words;
                    s.tile_metadata_words = stats.metadataWords(wb);
                    s.tile_worst_words =
                        worst.data_words + worst.metadataWords(wb);
                }
                if (stats.dense_words > 0) {
                    data_ratio = stats.data_words /
                        static_cast<double>(stats.dense_words);
                    meta_ratio = stats.metadataWords(wb) /
                        static_cast<double>(stats.dense_words);
                }
            } else if (d.kept) {
                s.tile_data_words = d.footprint;
                s.tile_worst_words = d.footprint;
            }

            const bool is_output = workload_.tensor(t).is_output;
            if (!is_output) {
                // Reads out of this level cross boundary l+1 and
                // beyond; fills arrived across boundary l.
                s.reads = filter(t, l + 1, d.reads * data_ratio);
                s.fills = filter(t, l, d.fills * data_ratio);
                double read_actual_frac = s.reads.total() > 0.0
                    ? s.reads.actual / s.reads.total() : 1.0;
                double fill_actual_frac = s.fills.total() > 0.0
                    ? s.fills.actual / s.fills.total() : 1.0;
                s.meta_reads = d.reads * meta_ratio * read_actual_frac;
                s.meta_fills = d.fills * meta_ratio * fill_actual_frac;
            } else {
                // Output updates at the innermost keeping level follow
                // the compute breakdown; other levels keep their dense
                // flow (zeros still drain upward) modulo level-local
                // SAFs and compression.
                if (l == nest_.innermostKeepLevel(t) &&
                    compute_total_frac > 0.0) {
                    double total = d.updates * data_ratio;
                    s.updates.actual =
                        total * remaining / compute_total_frac;
                    s.updates.gated =
                        total * comp_gated / compute_total_frac;
                    s.updates.skipped =
                        total * comp_skipped / compute_total_frac;
                } else {
                    s.updates = filter(t, l + 1, d.updates * data_ratio);
                }
                // Accumulation reads mirror the updates' breakdown:
                // a gated update still spends the read-modify-write
                // cycle, a skipped one does not.
                double upd_total = s.updates.total();
                double acc_total = d.acc_reads * data_ratio;
                if (upd_total > 0.0) {
                    s.acc_reads.actual =
                        acc_total * s.updates.actual / upd_total;
                    s.acc_reads.gated =
                        acc_total * s.updates.gated / upd_total;
                    s.acc_reads.skipped =
                        acc_total * s.updates.skipped / upd_total;
                } else {
                    s.acc_reads.actual = acc_total;
                }
                double actual_frac = upd_total > 0.0
                    ? s.updates.actual / upd_total : 1.0;
                s.drains = filter(t, l + 1, d.drains * data_ratio);
                s.meta_updates = d.updates * meta_ratio * actual_frac;
            }
        }
    }
    return out;
}

} // namespace sparseloop
