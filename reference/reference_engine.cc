/**
 * @file
 * Naive reference evaluation path (see header). Transcribed from the
 * modeling rules with per-use recomputation everywhere; the arithmetic
 * here — every multiplication order, every accumulation order — is the
 * specification the optimized engine must reproduce bit-for-bit.
 */

#include "reference/reference_engine.hh"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "density/actual_data.hh"
#include "density/hypergeometric.hh"
#include "sparse/sparse_analysis.hh"

namespace sparseloop {
namespace refmodel {
namespace {

// ---------------------------------------------------------------------------
// Step 1: dataflow modeling (naive).
// ---------------------------------------------------------------------------

double
temporalMultiplier(const Workload &w, const Mapping &m, int t, int lvl)
{
    double mult = 1.0;
    bool seen_relevant = false;
    for (int l = std::min(lvl, m.levelCount()); l-- > 0;) {
        const auto &loops = m.level(l).loops;
        for (std::size_t i = loops.size(); i-- > 0;) {
            const Loop &loop = loops[i];
            if (loop.spatial || loop.bound == 1) {
                continue;
            }
            if (!seen_relevant && !w.dimRelevant(t, loop.dim)) {
                continue;
            }
            seen_relevant = true;
            mult *= static_cast<double>(loop.bound);
        }
    }
    return mult;
}

double
transferCount(const Workload &w, const Mapping &m, int t, int lvl)
{
    double footprint;
    std::int64_t instances;
    if (lvl >= m.levelCount()) {
        footprint = 1.0;
        instances = m.computeInstances();
        lvl = m.levelCount();
    } else {
        auto tiles = m.dimTilesAtLevel(w, lvl);
        footprint =
            static_cast<double>(volume(w.tensorTileExtents(t, tiles)));
        instances = m.instancesAtLevel(lvl);
    }
    return footprint * static_cast<double>(instances) *
           temporalMultiplier(w, m, t, lvl);
}

double
multicastFactor(const Workload &w, const Mapping &m, int t, int from,
                int to)
{
    double mcast = 1.0;
    for (int l = from; l < to && l < m.levelCount(); ++l) {
        for (const auto &loop : m.level(l).loops) {
            if (loop.spatial && !w.dimRelevant(t, loop.dim)) {
                mcast *= static_cast<double>(loop.bound);
            }
        }
    }
    return mcast;
}

std::vector<int>
keepLevels(const Mapping &m, int t)
{
    std::vector<int> ks;
    for (int l = 0; l < m.levelCount(); ++l) {
        if (l == 0 || m.level(l).keeps(t)) {
            ks.push_back(l);
        }
    }
    SL_ASSERT(!ks.empty() && ks.front() == 0,
              "keepLevels invariant violated for tensor ", t);
    return ks;
}

int
innermostKeepLevel(const Mapping &m, int t)
{
    return keepLevels(m, t).back();
}

DenseTraffic
analyzeDataflow(const Workload &workload, const Architecture &arch,
                const Mapping &mapping)
{
    mapping.validate(workload, arch);

    const int S = mapping.levelCount();
    const int T = workload.tensorCount();
    DenseTraffic out;
    out.levels.assign(S, T);
    out.instances.resize(S);
    for (int l = 0; l < S; ++l) {
        out.instances[l] = mapping.instancesAtLevel(l);
    }
    out.compute_instances = mapping.computeInstances();
    out.computes = static_cast<double>(workload.denseComputeCount());

    for (int l = 0; l < S; ++l) {
        auto tiles = mapping.dimTilesAtLevel(workload, l);
        for (int t = 0; t < T; ++t) {
            auto &rec = out.levels[l][t];
            rec.kept = (l == 0) || mapping.level(l).keeps(t);
            Shape extents = workload.tensorTileExtents(t, tiles);
            rec.tile_extents.assign(extents.size(), 0);
            std::copy(extents.begin(), extents.end(),
                      rec.tile_extents.begin());
            rec.footprint = static_cast<double>(volume(extents));
        }
    }

    for (int t = 0; t < T; ++t) {
        const bool is_output = workload.tensor(t).is_output;
        auto keeps = keepLevels(mapping, t);
        for (std::size_t i = 0; i + 1 < keeps.size(); ++i) {
            int a = keeps[i];
            int b = keeps[i + 1];
            double x = transferCount(workload, mapping, t, b);
            double mcast = multicastFactor(workload, mapping, t, a, b);
            if (is_output) {
                out.levels[b][t].drains += x;
                out.levels[a][t].updates += x / mcast;
            } else {
                out.levels[b][t].fills += x;
                out.levels[a][t].reads += x / mcast;
            }
        }
        int inner = keeps.back();
        double x = transferCount(workload, mapping, t, S);
        double mcast = multicastFactor(workload, mapping, t, inner, S);
        if (is_output) {
            out.levels[inner][t].updates += x / mcast;
        } else {
            out.levels[inner][t].reads += x / mcast;
        }
        if (is_output) {
            for (int a : keeps) {
                auto &rec = out.levels[a][t];
                double residencies = transferCount(workload, mapping, t, a);
                rec.acc_reads = std::max(0.0, rec.updates - residencies);
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Step 2: sparse modeling (naive).
// ---------------------------------------------------------------------------

int
safBoundary(const Mapping &m, const IntersectionSaf &saf)
{
    auto keeps = keepLevels(m, saf.target);
    for (int k : keeps) {
        if (k > saf.level) {
            return k;
        }
    }
    return m.levelCount();
}

std::vector<std::int64_t>
leaderRegionDimTiles(const Workload &w, const Mapping &m,
                     const IntersectionSaf &saf)
{
    int b = safBoundary(m, saf);
    std::vector<std::int64_t> dim_tiles;
    if (b < m.levelCount()) {
        dim_tiles = m.dimTilesAtLevel(w, b);
    } else {
        dim_tiles.assign(w.dimCount(), 1);
    }
    bool stopped = false;
    for (int l = std::min(b, m.levelCount()); l-- > 0 && !stopped;) {
        const auto &loops = m.level(l).loops;
        for (std::size_t i = loops.size(); i-- > 0;) {
            const Loop &loop = loops[i];
            if (loop.bound == 1) {
                continue;
            }
            if (w.dimRelevant(saf.target, loop.dim)) {
                stopped = true;
                break;
            }
            dim_tiles[loop.dim] *= loop.bound;
        }
    }
    return dim_tiles;
}

double
eliminationProbability(const Workload &w, const Mapping &m,
                       const IntersectionSaf &saf)
{
    auto dim_tiles = leaderRegionDimTiles(w, m, saf);
    double p_keep = 1.0;
    for (int leader : saf.leaders) {
        const auto &ds = w.tensor(leader);
        if (!ds.density) {
            continue;
        }
        Shape extents = w.tensorTileExtents(leader, dim_tiles);
        double p_empty = ds.density->probEmptyShaped(extents);
        p_keep *= (1.0 - p_empty);
    }
    return 1.0 - p_keep;
}

ActionBreakdown
filterByIntersections(const Workload &w, const Mapping &m,
                      const SafSpec &safs, int t, int boundary,
                      double base)
{
    std::vector<const IntersectionSaf *> applicable;
    for (const auto &saf : safs.intersections) {
        if (saf.target == t && saf.level < boundary) {
            applicable.push_back(&saf);
        }
    }
    std::sort(applicable.begin(), applicable.end(),
              [](const IntersectionSaf *a, const IntersectionSaf *b) {
                  return a->level < b->level;
              });
    ActionBreakdown out;
    double remaining = base;
    for (const auto *saf : applicable) {
        double p = eliminationProbability(w, m, *saf);
        double elim = remaining * p;
        if (saf->kind == SafKind::Skip) {
            out.skipped += elim;
        } else {
            out.gated += elim;
        }
        remaining -= elim;
    }
    out.actual = remaining;
    return out;
}

double
effectualFraction(const Workload &workload)
{
    const int T = workload.tensorCount();
    double marginal = 1.0;
    std::vector<const ActualDataDensity *> actual(T, nullptr);
    bool all_actual = true;
    bool any_sparse = false;
    for (int t = 0; t < T; ++t) {
        const auto &ds = workload.tensor(t);
        if (ds.is_output) {
            continue;
        }
        marginal *= ds.densityValue();
        if (!ds.density) {
            continue;
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
    std::int64_t total = workload.denseComputeCount();
    constexpr std::int64_t kEnumerateLimit = 1 << 22;
    constexpr std::int64_t kSamples = 1 << 15;
    auto effectualAt = [&](const Point &p) {
        for (int t = 0; t < T; ++t) {
            if (workload.tensor(t).is_output ||
                !workload.tensor(t).density) {
                continue;
            }
            Point q = workload.project(t, p);
            if (!actual[t]->data().isNonzero(q)) {
                return false;
            }
        }
        return true;
    };
    std::int64_t hits = 0;
    if (total <= kEnumerateLimit) {
        Shape bounds(workload.dimCount());
        for (int d = 0; d < workload.dimCount(); ++d) {
            bounds[d] = workload.dims()[d].bound;
        }
        for (std::int64_t i = 0; i < total; ++i) {
            if (effectualAt(unflatten(i, bounds))) {
                ++hits;
            }
        }
        return static_cast<double>(hits) / static_cast<double>(total);
    }
    std::mt19937_64 rng(0x5EED5EED);
    Point p(workload.dimCount());
    for (std::int64_t s = 0; s < kSamples; ++s) {
        for (int d = 0; d < workload.dimCount(); ++d) {
            std::uniform_int_distribution<std::int64_t> pick(
                0, workload.dims()[d].bound - 1);
            p[d] = pick(rng);
        }
        if (effectualAt(p)) {
            ++hits;
        }
    }
    return static_cast<double>(hits) / static_cast<double>(kSamples);
}

SparseTraffic
analyzeSparse(const Workload &workload, const Architecture &arch,
              const Mapping &mapping, const SafSpec &safs,
              const DenseTraffic &dense)
{
    const int S = mapping.levelCount();
    const int T = workload.tensorCount();

    SparseTraffic out;
    out.levels.assign(S, T);
    out.instances = dense.instances;
    out.compute_instances = dense.compute_instances;

    // ---- Compute action breakdown -------------------------------------
    double effectual_frac = effectualFraction(workload);
    double remaining = 1.0;
    double comp_skipped = 0.0;
    double comp_gated = 0.0;
    {
        std::vector<const IntersectionSaf *> all;
        for (const auto &saf : safs.intersections) {
            all.push_back(&saf);
        }
        std::sort(all.begin(), all.end(),
                  [](const IntersectionSaf *a, const IntersectionSaf *b) {
                      return a->level < b->level;
                  });
        for (const auto *saf : all) {
            double p = eliminationProbability(workload, mapping, *saf);
            double elim = remaining * p;
            if (saf->kind == SafKind::Skip) {
                comp_skipped += elim;
            } else {
                comp_gated += elim;
            }
            remaining -= elim;
        }
        if (remaining < effectual_frac) {
            double excess = effectual_frac - remaining;
            double elim_total = comp_skipped + comp_gated;
            if (elim_total > 0.0) {
                comp_skipped -= excess * comp_skipped / elim_total;
                comp_gated -= excess * comp_gated / elim_total;
            }
            remaining = effectual_frac;
        }
        double ineff = std::max(0.0, remaining - effectual_frac);
        if (!safs.compute.empty() && ineff > 0.0) {
            if (safs.compute.front().kind == SafKind::Skip) {
                comp_skipped += ineff;
            } else {
                comp_gated += ineff;
            }
            remaining -= ineff;
        }
    }
    out.computes.actual = dense.computes * remaining;
    out.computes.gated = dense.computes * comp_gated;
    out.computes.skipped = dense.computes * comp_skipped;
    out.effectual_computes = dense.computes * effectual_frac;

    double compute_total_frac = remaining + comp_gated + comp_skipped;

    // ---- Per-level traffic --------------------------------------------
    for (int l = 0; l < S; ++l) {
        for (int t = 0; t < T; ++t) {
            const auto &d = dense.at(l, t);
            auto &s = out.levels[l][t];
            s.tile_dense_words = d.footprint;

            const TensorFormat *fmt = safs.formatAt(l, t);
            double data_ratio = 1.0;
            double meta_ratio = 0.0;
            if (fmt) {
                DensityModelPtr model = workload.tensor(t).density;
                if (!model) {
                    model = makeUniformDensity(
                        workload.tensorVolume(t), 1.0);
                }
                std::vector<std::int64_t> tensor_extents(
                    d.tile_extents.begin(), d.tile_extents.end());
                auto extents = fmt->flattenExtents(tensor_extents);
                auto stats = fmt->tileStats(*model, extents,
                                            OccupancyEstimate::Expected);
                auto worst = fmt->tileStats(*model, extents,
                                            OccupancyEstimate::WorstCase);
                int wb = arch.level(l).word_bits;
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

            const bool is_output = workload.tensor(t).is_output;
            if (!is_output) {
                s.reads = filterByIntersections(
                    workload, mapping, safs, t, l + 1,
                    d.reads * data_ratio);
                s.fills = filterByIntersections(
                    workload, mapping, safs, t, l, d.fills * data_ratio);
                double read_actual_frac = s.reads.total() > 0.0
                    ? s.reads.actual / s.reads.total() : 1.0;
                double fill_actual_frac = s.fills.total() > 0.0
                    ? s.fills.actual / s.fills.total() : 1.0;
                s.meta_reads = d.reads * meta_ratio * read_actual_frac;
                s.meta_fills = d.fills * meta_ratio * fill_actual_frac;
            } else {
                int inner_keep = innermostKeepLevel(mapping, t);
                if (l == inner_keep && compute_total_frac > 0.0) {
                    double total = d.updates * data_ratio;
                    s.updates.actual =
                        total * remaining / compute_total_frac;
                    s.updates.gated =
                        total * comp_gated / compute_total_frac;
                    s.updates.skipped =
                        total * comp_skipped / compute_total_frac;
                } else {
                    s.updates = filterByIntersections(
                        workload, mapping, safs, t, l + 1,
                        d.updates * data_ratio);
                }
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
                s.drains = filterByIntersections(
                    workload, mapping, safs, t, l + 1,
                    d.drains * data_ratio);
                s.meta_updates = d.updates * meta_ratio * actual_frac;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Step 3: micro-architecture modeling (naive).
// ---------------------------------------------------------------------------

double
blockInflation(double occupying, double total, std::int64_t block)
{
    if (block <= 1 || occupying <= 0.0 || total <= occupying) {
        return 1.0;
    }
    double d = occupying / total;
    double effective =
        total * (1.0 - std::pow(1.0 - d, static_cast<double>(block)));
    return std::max(1.0, effective / occupying);
}

double
occupyingWords(const TensorLevelSparse &s)
{
    return s.reads.occupying() + s.fills.occupying() +
           s.updates.occupying() + s.acc_reads.occupying() +
           s.drains.occupying() + s.meta_reads + s.meta_fills +
           s.meta_updates;
}

double
totalDenseWords(const TensorLevelDense &d)
{
    return d.reads + d.fills + d.updates + d.acc_reads + d.drains;
}

EvalResult
evaluateMicroArch(const Architecture &arch, const EnergyModel &energy,
                  const SparseTraffic &sparse, const DenseTraffic &dense,
                  bool check_capacity)
{
    const int S = arch.levelCount();
    const int T = static_cast<int>(sparse.levels.cols());
    EvalResult res;
    res.sparse = sparse;
    res.computes = sparse.computes;
    res.effectual_computes = sparse.effectual_computes;
    res.compute_instances = sparse.compute_instances;
    res.levels.resize(S);

    for (int l = 0; l < S; ++l) {
        auto &lr = res.levels[l];
        lr.name = arch.level(l).name;
        double occupied = 0.0;
        double worst = 0.0;
        for (int t = 0; t < T; ++t) {
            const auto &s = sparse.at(l, t);
            occupied += s.occupiedWords();
            worst += s.tile_worst_words;
        }
        lr.occupied_words = occupied;
        lr.worst_case_words = worst;
        double cap = arch.level(l).capacity_words;
        if (check_capacity && !std::isinf(cap) && worst > cap) {
            res.valid = false;
            std::ostringstream oss;
            oss << "level " << lr.name << " worst-case occupancy "
                << worst << " words exceeds capacity " << cap;
            res.invalid_reason = oss.str();
        }
    }

    double inst_d = static_cast<double>(
        std::max<std::int64_t>(1, sparse.compute_instances));
    res.compute_cycles = sparse.computes.occupying() / inst_d;
    double latency = res.compute_cycles;
    std::vector<double> level_words(S, 0.0);
    for (int l = 0; l < S; ++l) {
        std::int64_t block = arch.level(l).block_size_words;
        double words = 0.0;
        for (int t = 0; t < T; ++t) {
            const auto &s = sparse.at(l, t);
            double occ = occupyingWords(s);
            words += occ * blockInflation(
                occ, totalDenseWords(dense.at(l, t)), block);
        }
        level_words[l] = words;
        double inst = static_cast<double>(
            std::max<std::int64_t>(1, sparse.instances[l]));
        double bw = arch.level(l).bandwidth_words_per_cycle;
        double cyc = std::isinf(bw) ? 0.0 : (words / inst) / bw;
        res.levels[l].cycles = cyc;
        latency = std::max(latency, cyc);
    }
    res.cycles = std::max(1.0, latency);
    for (int l = 0; l < S; ++l) {
        double inst = static_cast<double>(
            std::max<std::int64_t>(1, sparse.instances[l]));
        res.levels[l].bandwidth_demand =
            (level_words[l] / inst) / res.cycles;
    }

    double total_energy = 0.0;
    for (int l = 0; l < S; ++l) {
        std::int64_t block = arch.level(l).block_size_words;
        double e = 0.0;
        for (int t = 0; t < T; ++t) {
            const auto &s = sparse.at(l, t);
            double inflate = blockInflation(
                occupyingWords(s), totalDenseWords(dense.at(l, t)),
                block);
            double reads = s.reads.actual + s.acc_reads.actual +
                           s.drains.actual;
            double gated_reads = s.reads.gated + s.acc_reads.gated +
                                 s.drains.gated;
            double writes = s.fills.actual + s.updates.actual;
            double gated_writes = s.fills.gated + s.updates.gated;
            e += inflate * reads *
                 energy.storageEnergy(l, ActionKind::Read);
            e += inflate * gated_reads *
                 energy.storageEnergy(l, ActionKind::GatedRead);
            e += inflate * writes *
                 energy.storageEnergy(l, ActionKind::Write);
            e += inflate * gated_writes *
                 energy.storageEnergy(l, ActionKind::GatedWrite);
            e += (s.meta_reads) *
                 energy.storageEnergy(l, ActionKind::MetadataRead);
            e += (s.meta_fills + s.meta_updates) *
                 energy.storageEnergy(l, ActionKind::MetadataWrite);
        }
        res.levels[l].energy_pj = e;
        total_energy += e;
    }
    res.compute_energy_pj =
        sparse.computes.actual *
            energy.computeEnergy(ActionKind::Compute) +
        sparse.computes.gated *
            energy.computeEnergy(ActionKind::GatedCompute);
    total_energy += res.compute_energy_pj;
    res.energy_pj = total_energy;
    return res;
}

} // namespace

DenseTraffic
referenceAnalyzeDataflow(const Workload &workload,
                         const Architecture &arch, const Mapping &mapping)
{
    return analyzeDataflow(workload, arch, mapping);
}

EvalResult
referenceEvaluate(const Workload &workload, const Architecture &arch,
                  const Mapping &mapping, const SafSpec &safs,
                  const EngineOptions &options)
{
    // Validate the SAF spec the way the production SparseAnalysis
    // constructor does, so malformed specs fail identically.
    for (const auto &saf : safs.intersections) {
        if (saf.target < 0 || saf.target >= workload.tensorCount()) {
            SL_FATAL("intersection SAF targets unknown tensor ",
                     saf.target);
        }
        if (saf.level < 0 || saf.level >= arch.levelCount()) {
            SL_FATAL("intersection SAF at unknown level ", saf.level);
        }
        if (saf.leaders.empty()) {
            SL_FATAL("intersection SAF needs at least one leader");
        }
        for (int leader : saf.leaders) {
            if (leader < 0 || leader >= workload.tensorCount()) {
                SL_FATAL("intersection SAF has unknown leader tensor ",
                         leader);
            }
        }
    }
    for (const auto &f : safs.formats) {
        if (f.tensor < 0 || f.tensor >= workload.tensorCount() ||
            f.level < 0 || f.level >= arch.levelCount()) {
            SL_FATAL("format SAF references unknown tensor or level");
        }
        if (f.format.empty()) {
            SL_FATAL("format SAF for tensor ", f.tensor, " at level ",
                     f.level, " has no ranks");
        }
    }

    DenseTraffic dense = analyzeDataflow(workload, arch, mapping);
    SparseTraffic sparse =
        analyzeSparse(workload, arch, mapping, safs, dense);
    EnergyModel energy(arch, options.gated_energy_fraction,
                       options.metadata_bits_per_word);
    return evaluateMicroArch(arch, energy, sparse, dense,
                             options.check_capacity);
}

} // namespace refmodel
} // namespace sparseloop
