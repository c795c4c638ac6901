/**
 * @file
 * Micro-architecture modeling implementation.
 */

#include "microarch/microarch_model.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/small_vector.hh"

namespace sparseloop {

MicroArchModel::MicroArchModel(const Architecture &arch,
                               const EnergyModel &energy)
    : arch_(arch), energy_(energy)
{
}

namespace {

/**
 * Segmented block accesses (Sec. 5.4): a stream that touches
 * @p occupying of @p total word positions, moved in blocks of
 * @p block words, touches total/block * (1 - (1 - d)^block) blocks,
 * i.e. sparse streams stop saving bandwidth proportionally once their
 * density falls below the block granularity. Returns the inflation
 * factor to apply to the occupying word count (>= 1).
 */
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

/** Total occupying words of one tensor's traffic at a level. */
double
occupyingWords(const TensorLevelSparse &s)
{
    return s.reads.occupying() + s.fills.occupying() +
           s.updates.occupying() + s.acc_reads.occupying() +
           s.drains.occupying() + s.meta_reads + s.meta_fills +
           s.meta_updates;
}

/** Total dense word positions of one tensor's traffic at a level. */
double
totalDenseWords(const TensorLevelDense &d)
{
    return d.reads + d.fills + d.updates + d.acc_reads + d.drains;
}

} // namespace

EvalResult
MicroArchModel::evaluate(SparseTraffic sparse_in, const DenseTraffic &dense,
                         bool check_capacity) const
{
    const int S = arch_.levelCount();
    const int T = static_cast<int>(sparse_in.levels.cols());
    EvalResult res;
    res.sparse = std::move(sparse_in);
    const SparseTraffic &sparse = res.sparse;
    res.computes = sparse.computes;
    res.effectual_computes = sparse.effectual_computes;
    res.compute_instances = sparse.compute_instances;
    res.levels.resize(S);

    // Per-(level, tensor) block-inflation factors, computed once in
    // the cycles pass and reused by the energy pass (the two passes
    // used to recompute the identical value). Every design in the zoo
    // has S*T <= 9 and S <= 3, so this scratch stays inline.
    SmallVector<double, 12> inflate(static_cast<std::size_t>(S) * T);

    // ---- Capacity / validity ------------------------------------------
    for (int l = 0; l < S; ++l) {
        auto &lr = res.levels[l];
        lr.name = arch_.level(l).name;
        double occupied = 0.0;
        double worst = 0.0;
        for (int t = 0; t < T; ++t) {
            const auto &s = sparse.at(l, t);
            occupied += s.occupiedWords();
            worst += s.tile_worst_words;
        }
        lr.occupied_words = occupied;
        lr.worst_case_words = worst;
        double cap = arch_.level(l).capacity_words;
        if (check_capacity && !std::isinf(cap) && worst > cap) {
            res.valid = false;
            std::ostringstream oss;
            oss << "level " << lr.name << " worst-case occupancy "
                << worst << " words exceeds capacity " << cap;
            res.invalid_reason = oss.str();
        }
    }

    // ---- Cycles ---------------------------------------------------------
    double inst_d =
        static_cast<double>(std::max<std::int64_t>(1,
            sparse.compute_instances));
    res.compute_cycles = sparse.computes.occupying() / inst_d;
    double latency = res.compute_cycles;
    SmallVector<double, 4> level_words(static_cast<std::size_t>(S));
    for (int l = 0; l < S; ++l) {
        std::int64_t block = arch_.level(l).block_size_words;
        double words = 0.0;
        for (int t = 0; t < T; ++t) {
            const auto &s = sparse.at(l, t);
            double occ = occupyingWords(s);
            double infl = blockInflation(
                occ, totalDenseWords(dense.at(l, t)), block);
            inflate[static_cast<std::size_t>(l) * T + t] = infl;
            words += occ * infl;
        }
        level_words[l] = words;
        double inst = static_cast<double>(
            std::max<std::int64_t>(1, sparse.instances[l]));
        double bw = arch_.level(l).bandwidth_words_per_cycle;
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

    // ---- Energy ----------------------------------------------------------
    double total_energy = 0.0;
    for (int l = 0; l < S; ++l) {
        double e = 0.0;
        for (int t = 0; t < T; ++t) {
            const auto &s = sparse.at(l, t);
            double infl = inflate[static_cast<std::size_t>(l) * T + t];
            double reads = s.reads.actual + s.acc_reads.actual +
                           s.drains.actual;
            double gated_reads = s.reads.gated + s.acc_reads.gated +
                                 s.drains.gated;
            double writes = s.fills.actual + s.updates.actual;
            double gated_writes = s.fills.gated + s.updates.gated;
            e += infl * reads *
                 energy_.storageEnergy(l, ActionKind::Read);
            e += infl * gated_reads *
                 energy_.storageEnergy(l, ActionKind::GatedRead);
            e += infl * writes *
                 energy_.storageEnergy(l, ActionKind::Write);
            e += infl * gated_writes *
                 energy_.storageEnergy(l, ActionKind::GatedWrite);
            e += (s.meta_reads) *
                 energy_.storageEnergy(l, ActionKind::MetadataRead);
            e += (s.meta_fills + s.meta_updates) *
                 energy_.storageEnergy(l, ActionKind::MetadataWrite);
        }
        res.levels[l].energy_pj = e;
        total_energy += e;
    }
    res.compute_energy_pj =
        sparse.computes.actual *
            energy_.computeEnergy(ActionKind::Compute) +
        sparse.computes.gated *
            energy_.computeEnergy(ActionKind::GatedCompute);
    total_energy += res.compute_energy_pj;
    res.energy_pj = total_energy;
    return res;
}

} // namespace sparseloop
