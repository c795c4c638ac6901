/**
 * @file
 * The naive reference evaluation path: a deliberately unoptimized,
 * straight-line transcription of the three modeling steps (dataflow ->
 * sparse -> micro-architecture) that recomputes every intermediate
 * quantity at its point of use — per-level dim tiles, per-SAF
 * elimination probabilities, keep-level lists, block-inflation factors
 * — with no precomputation, no scratch reuse, and no shared state.
 *
 * This is the oracle of the differential test layer
 * (tests/test_engine_differential.cc): the production `Engine` carries
 * inline/flat-array scratch, hoisted per-SAF invariants, and fused
 * passes, and every one of those optimizations must be *provably
 * invisible* — `referenceEvaluate` produces the `EvalResult` the naive
 * algorithm defines, and the test asserts the optimized engine matches
 * it bit-for-bit over hundreds of randomized (workload, mapping, SAF,
 * format) tuples. Keep this file boring: clarity and fidelity to the
 * modeling rules beat speed here, by design. Do not "optimize" it —
 * its slowness is its purpose.
 */

#ifndef SPARSELOOP_REFERENCE_REFERENCE_ENGINE_HH
#define SPARSELOOP_REFERENCE_REFERENCE_ENGINE_HH

#include "model/engine.hh"

namespace sparseloop {
namespace refmodel {

/** Step 1 only: the dense traffic of the naive path. */
DenseTraffic referenceAnalyzeDataflow(const Workload &workload,
                                      const Architecture &arch,
                                      const Mapping &mapping);

/**
 * All three steps on the naive path. Equivalent, value-for-value, to
 * `Engine(arch, options).evaluate(workload, mapping, safs)` — the
 * differential suite enforces exactly that.
 */
EvalResult referenceEvaluate(const Workload &workload,
                             const Architecture &arch,
                             const Mapping &mapping, const SafSpec &safs,
                             const EngineOptions &options = {});

} // namespace refmodel
} // namespace sparseloop

#endif // SPARSELOOP_REFERENCE_REFERENCE_ENGINE_HH
