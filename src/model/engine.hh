/**
 * @file
 * The Sparseloop engine: the public entry point that chains the three
 * modeling steps (dataflow -> sparse -> micro-architecture, Fig. 5)
 * for one (workload, architecture, mapping, SAFs) quadruple.
 *
 * Quickstart:
 * @code
 *   Workload w = makeMatmul(128, 128, 128);
 *   bindUniformDensities(w, {{"A", 0.25}, {"B", 0.5}});
 *   Architecture arch = ...;
 *   Mapping m = MappingBuilder(w, arch)...buildComplete();
 *   SafSpec safs;
 *   safs.addFormat(1, w.tensorIndex("A"), makeCsr())
 *       .addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});
 *   EvalResult r = Engine(arch).evaluate(w, m, safs);
 * @endcode
 *
 * Evaluating many points (a DSE sweep, a mapper search)? Use the
 * cached/batched paths instead of calling evaluate() in a loop: see
 * model/eval_cache.hh (EvalCache, evaluateCached) and
 * model/batch_evaluator.hh (BatchEvaluator::evaluateBatch).
 */

#ifndef SPARSELOOP_MODEL_ENGINE_HH
#define SPARSELOOP_MODEL_ENGINE_HH

#include "arch/energy_model.hh"
#include "microarch/microarch_model.hh"

namespace sparseloop {

/** Tunables for the evaluation. */
struct EngineOptions
{
    /** Reject mappings whose worst-case tiles overflow capacity. */
    bool check_capacity = true;
    /** Energy of gated actions relative to actual ones. */
    double gated_energy_fraction = 0.12;
    /** Metadata word width assumed by the energy model. */
    int metadata_bits_per_word = 8;
};

class Engine
{
  public:
    explicit Engine(Architecture arch, EngineOptions options = {});

    /** Run all three modeling steps. */
    EvalResult evaluate(const Workload &workload, const Mapping &mapping,
                        const SafSpec &safs) const;

    /** Evaluate with no SAFs (dense baseline). */
    EvalResult evaluateDense(const Workload &workload,
                             const Mapping &mapping) const;

    /**
     * Step 1 only (Fig. 5 dataflow modeling): the dense traffic implied
     * by the mapping, independent of any SAF. Exposed so caches can
     * reuse one dense analysis across many SAF specifications.
     */
    DenseTraffic analyzeDataflow(const Workload &workload,
                                 const Mapping &mapping) const;

    /**
     * Steps 2-3 (sparse + micro-architecture modeling) on precomputed
     * dense traffic. `evaluateFromDense(w, m, s, analyzeDataflow(w, m))`
     * is exactly `evaluate(w, m, s)`; passing dense traffic from any
     * other (workload, mapping) pair is undefined.
     */
    EvalResult evaluateFromDense(const Workload &workload,
                                 const Mapping &mapping,
                                 const SafSpec &safs,
                                 const DenseTraffic &dense) const;

    const Architecture &architecture() const { return arch_; }
    const EnergyModel &energyModel() const { return energy_; }
    const EngineOptions &options() const { return options_; }

    /**
     * Evaluation-cache identity of this engine configuration
     * (architecture structure + EngineOptions). Part of every EvalKey,
     * so engines that would evaluate a point differently can never
     * share a cache entry.
     */
    std::uint64_t signature() const { return signature_; }

  private:
    Architecture arch_;
    EngineOptions options_;
    EnergyModel energy_;
    std::uint64_t signature_ = 0;
};

/** Render a compact human-readable report of an evaluation. */
std::string formatReport(const EvalResult &result,
                         const Workload &workload,
                         const Architecture &arch);

/**
 * Whether two evaluation results are bit-identical: every scalar
 * (compared with exact floating-point equality), every per-level
 * record, and the retained sparse traffic must match. This is
 * the contract the evaluation cache and batch evaluator guarantee
 * relative to uncached sequential evaluation.
 */
bool bitIdentical(const EvalResult &a, const EvalResult &b);

} // namespace sparseloop

#endif // SPARSELOOP_MODEL_ENGINE_HH
