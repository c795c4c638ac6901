/**
 * @file
 * Engine implementation.
 */

#include "model/engine.hh"

#include <iomanip>
#include <sstream>
#include <utility>

#include "common/mathutil.hh"
#include "sparse/sparse_analysis.hh"

namespace sparseloop {

Engine::Engine(Architecture arch, EngineOptions options)
    : arch_(std::move(arch)), options_(options),
      energy_(arch_, options.gated_energy_fraction,
              options.metadata_bits_per_word)
{
    std::uint64_t h = arch_.signature();
    h = math::hashCombine(h, options_.check_capacity ? 1 : 0);
    h = math::hashDouble(h, options_.gated_energy_fraction);
    signature_ = math::hashCombine(
        h, static_cast<std::uint64_t>(options_.metadata_bits_per_word));
}

EvalResult
Engine::evaluate(const Workload &workload, const Mapping &mapping,
                 const SafSpec &safs) const
{
    return evaluateFromDense(workload, mapping, safs,
                             analyzeDataflow(workload, mapping));
}

DenseTraffic
Engine::analyzeDataflow(const Workload &workload,
                        const Mapping &mapping) const
{
    NestAnalysis nest(workload, arch_, mapping);
    return nest.analyze();
}

EvalResult
Engine::evaluateFromDense(const Workload &workload, const Mapping &mapping,
                          const SafSpec &safs,
                          const DenseTraffic &dense) const
{
    SparseAnalysis sparse_step(workload, arch_, mapping, safs);
    SparseTraffic sparse = sparse_step.analyze(dense);
    MicroArchModel micro(arch_, energy_);
    return micro.evaluate(std::move(sparse), dense,
                          options_.check_capacity);
}

EvalResult
Engine::evaluateDense(const Workload &workload,
                      const Mapping &mapping) const
{
    SafSpec none;
    return evaluate(workload, mapping, none);
}

std::string
formatReport(const EvalResult &result, const Workload &workload,
             const Architecture &arch)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(1);
    oss << "=== " << workload.name() << " on " << arch.name() << " ===\n";
    if (!result.valid) {
        oss << "INVALID MAPPING: " << result.invalid_reason << "\n";
    }
    oss << "cycles:            " << result.cycles << "\n";
    oss << "energy (uJ):       " << result.energy_pj / 1e6 << "\n";
    oss << "EDP (uJ*cycles):   " << result.edp() / 1e6 << "\n";
    oss << "computes actual:   " << result.computes.actual
        << "  gated: " << result.computes.gated
        << "  skipped: " << result.computes.skipped << "\n";
    oss << "effectual computes:" << result.effectual_computes << "\n";
    oss << std::setprecision(3);
    oss << "compute util:      " << result.computeUtilization() << "\n";
    for (std::size_t l = 0; l < result.levels.size(); ++l) {
        const auto &lr = result.levels[l];
        oss << "  [" << lr.name << "] cycles=" << lr.cycles
            << " energy_uJ=" << lr.energy_pj / 1e6
            << " occ_words=" << lr.occupied_words
            << " bw_demand=" << lr.bandwidth_demand << "\n";
    }
    return oss.str();
}

bool
bitIdentical(const EvalResult &a, const EvalResult &b)
{
    // operator== walks each record's field list, defined next to its
    // struct (microarch_model.hh, sparse_analysis.hh), so a new field
    // cannot be missed.
    return a == b;
}

} // namespace sparseloop
