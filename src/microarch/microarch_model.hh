/**
 * @file
 * Step three of Sparseloop's modeling pipeline (Sec. 5.4):
 * micro-architecture modeling. Validates the mapping (compressed tile
 * footprints must fit each level's capacity), converts the sparse
 * traffic into processing cycles under per-level bandwidth throttling,
 * and rolls up energy through the Accelergy-lite back end.
 *
 * Cycle rule: cycles are spent for actual and gated accesses and
 * computes; skipped actions cost nothing. The latency of the design is
 * the maximum over all components of its per-instance occupied cycles
 * (bandwidth throttling).
 */

#ifndef SPARSELOOP_MICROARCH_MICROARCH_MODEL_HH
#define SPARSELOOP_MICROARCH_MICROARCH_MODEL_HH

#include <string>
#include <vector>

#include "arch/energy_model.hh"
#include "sparse/sparse_analysis.hh"

namespace sparseloop {

/** Per-storage-level evaluation output. */
struct LevelResult
{
    std::string name;
    /** Occupied cycles (per instance) implied by this level's traffic. */
    double cycles = 0.0;
    /** Energy consumed by this level in pJ (all instances). */
    double energy_pj = 0.0;
    /** Words of capacity used per instance (expected, incl. metadata). */
    double occupied_words = 0.0;
    /** Worst-case occupied words per instance. */
    double worst_case_words = 0.0;
    /** Data + metadata words moved per cycle (bandwidth demand). */
    double bandwidth_demand = 0.0;
};

template <typename A>
auto
fields(A &a, LevelResult &level)
{
    return a(level.name, level.cycles, level.energy_pj,
             level.occupied_words, level.worst_case_words,
             level.bandwidth_demand);
}

inline bool
operator==(const LevelResult &a, const LevelResult &b)
{
    return fieldTie(a) == fieldTie(b);
}
inline bool
operator!=(const LevelResult &a, const LevelResult &b)
{
    return !(a == b);
}

/** Full evaluation result for one (workload, arch, mapping, SAFs). */
struct EvalResult
{
    bool valid = true;
    std::string invalid_reason;

    /** Processing latency in cycles. */
    double cycles = 0.0;
    /** Total energy in pJ. */
    double energy_pj = 0.0;
    /** Energy-delay product (pJ x cycles). */
    double edp() const { return energy_pj * cycles; }

    /** Compute action breakdown. */
    ActionBreakdown computes;
    double effectual_computes = 0.0;
    double compute_energy_pj = 0.0;
    double compute_cycles = 0.0;
    std::int64_t compute_instances = 1;

    std::vector<LevelResult> levels;

    /** Step-2 sparse traffic retained for inspection (Step 1's dense
     *  traffic is `Engine::analyzeDataflow`). */
    SparseTraffic sparse;

    /** Utilization of the compute array over the runtime. */
    double computeUtilization() const
    {
        return cycles > 0.0
            ? computes.actual /
                  (cycles * static_cast<double>(compute_instances))
            : 0.0;
    }

    /**
     * Peak on-chip storage pressure: the maximum over storage levels
     * *below* the outermost backing store of the worst-case occupied
     * words per instance (data + metadata) — the capacity metric of
     * the objective layer (`Metric::PeakCapacity`). The outermost
     * level is excluded because it always holds the full tensor
     * footprint regardless of the mapping, which would flatten the
     * metric into a constant; with a single-level hierarchy that
     * level is the answer.
     */
    double peakCapacityWords() const
    {
        double peak = 0.0;
        for (std::size_t l = 1; l < levels.size(); ++l) {
            if (levels[l].worst_case_words > peak) {
                peak = levels[l].worst_case_words;
            }
        }
        if (levels.size() == 1) {
            peak = levels.front().worst_case_words;
        }
        return peak;
    }

    /**
     * Expected metadata footprint summed over every (level, tensor)
     * tile, in data-word equivalents — the format-overhead metric of
     * the objective layer (`Metric::MetadataOverhead`).
     */
    double metadataOverheadWords() const
    {
        double total = 0.0;
        for (const TensorLevelSparse &tensor : sparse.levels.flat()) {
            total += tensor.tile_metadata_words;
        }
        return total;
    }
};

template <typename A>
auto
fields(A &a, EvalResult &result)
{
    return a(result.valid, result.invalid_reason, result.cycles,
             result.energy_pj, result.computes, result.effectual_computes,
             result.compute_energy_pj, result.compute_cycles,
             result.compute_instances, result.levels, result.sparse);
}

/** Exact equality over every field: the bit-identity contract of the
 *  evaluation cache (see bitIdentical in engine.hh). */
inline bool
operator==(const EvalResult &a, const EvalResult &b)
{
    return fieldTie(a) == fieldTie(b);
}
inline bool
operator!=(const EvalResult &a, const EvalResult &b)
{
    return !(a == b);
}

class MicroArchModel
{
  public:
    MicroArchModel(const Architecture &arch, const EnergyModel &energy);

    /**
     * Evaluate validity, cycles, and energy for sparse traffic. The
     * sparse traffic is retained inside the returned EvalResult, so it
     * is taken by value (callers move it in); the dense traffic is
     * only read.
     * @param check_capacity disable to rank invalid mappings anyway.
     */
    EvalResult evaluate(SparseTraffic sparse, const DenseTraffic &dense,
                        bool check_capacity = true) const;

  private:
    const Architecture &arch_;
    const EnergyModel &energy_;
};

} // namespace sparseloop

#endif // SPARSELOOP_MICROARCH_MICROARCH_MODEL_HH
