/**
 * @file
 * Mapspace search (Sec. 5.1 "mapspace constraints"): characterizing a
 * design properly requires finding its best mapping for each workload.
 *
 * The search is layered:
 *  - `MapSpace` (mapper/mapspace.hh) — the IR: constraint-pruned
 *    tiling / permutation / spatial / keep axes with size accounting.
 *  - `SearchStrategy` (mapper/search_strategy.hh) — candidate
 *    generation: random, exhaustive, hybrid refinement, simulated
 *    annealing, or genetic search.
 *  - `ObjectiveSpec` (mapper/objective.hh) — how candidates are
 *    ranked: metric extraction from `EvalResult`, scalarization for
 *    the strategies' feedback, the shared total-order comparator, and
 *    the `ParetoArchive` of non-dominated candidates.
 *  - `Mapper` (this file) — the driver: pulls candidate batches from
 *    the strategy, evaluates them through `BatchEvaluator` (dedupe,
 *    dense-prefix grouping, optional shared `EvalCache`, worker pool),
 *    reduces to the best valid mapping under the objective spec with
 *    a deterministic (objective, proposal index) tie-break, and
 *    maintains the Pareto archive alongside the incumbent
 *    (`MapperResult::pareto_front`).
 *
 * `search()` runs the driver with one evaluation worker and
 * `searchWithThreads(n)` with `n`; the results are bit-identical at
 * every thread count, for every strategy.
 *
 * Quickstart:
 * @code
 *   MapperOptions opts;
 *   opts.samples = 4000;
 *   opts.objective = ObjectiveSpec::single(Metric::Edp);
 *   opts.strategy = SearchStrategyKind::Auto;   // exhaustive if small
 *   opts.cache = std::make_shared<EvalCache>(); // optional, shared
 *   MapperResult best =
 *       Mapper(workload, arch, safs, opts).searchWithThreads(0);
 *   if (best.found) {
 *       std::puts(best.mapping.toString(workload).c_str());
 *   }
 * @endcode
 */

#ifndef SPARSELOOP_MAPPER_MAPPER_HH
#define SPARSELOOP_MAPPER_MAPPER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "mapper/objective.hh"
#include "mapper/search_strategy.hh"
#include "mapper/warm_start.hh"
#include "model/batch_evaluator.hh"

namespace sparseloop {

struct MapperOptions
{
    /**
     * How candidates are ranked (mapper/objective.hh): the metric the
     * search minimizes and the dimensions of its Pareto front.
     * Defaults to EDP with a {Cycles, Energy} front.
     */
    ObjectiveSpec objective;
    /** Candidate budget: proposals evaluated before stopping (an
     *  exhaustive search may finish earlier). */
    int samples = 2000;
    std::uint64_t seed = 0xC0FFEE;
    /** Strategy selection; Auto upgrades to exhaustive whenever the
     *  pruned mapspace fits within `samples`. */
    SearchStrategyKind strategy = SearchStrategyKind::Auto;
    /**
     * Candidates evaluated per batch. Affects wall-clock only, never
     * the result: a strategy's proposal sequence and the
     * (objective, index) reduction are batch-size independent.
     */
    int batch_size = 256;
    /** HybridSearch warmup/restart window; 0 = samples / 4. */
    int hybrid_warmup = 0;
    /** AnnealingSearch knobs (used when strategy == Annealing). */
    AnnealingOptions annealing;
    /** GeneticSearch knobs (used when strategy == Genetic). */
    GeneticOptions genetic;
    /** HierarchicalSearch knobs (used when strategy == Hierarchical). */
    HierarchicalOptions hierarchical;
    /**
     * Optional cross-design-point warm-start pool for sweep drivers.
     * When set, pool elites that re-encode into this search's pruned
     * mapspace are offered to the strategy as starting points
     * (annealing chains, genetic generation 0, hybrid pre-warmup
     * candidates; random and exhaustive ignore them), and on success
     * the search's best mapping is recorded back into the pool. Warm
     * candidates the strategy does use are
     * proposed and evaluated like any others, so they count against
     * `samples` and results stay bit-identical across thread counts.
     */
    std::shared_ptr<WarmStartPool> warm_start;
    /**
     * Bound of the Pareto archive maintained alongside the scalar
     * incumbent (`MapperResult::pareto_front`), over the objective
     * spec's `frontMetrics()`. Beyond the bound, the least-crowded
     * prefix of the front is kept (see `ParetoArchive`). 0 disables
     * front tracking entirely.
     */
    std::size_t pareto_capacity = 32;
    /**
     * Bypass exploration (on by default) and the construction
     * pipeline's pruning passes; the mapspace's size limits are
     * constants (see mapspace.hh). The capacity-dominance pass is
     * automatically disabled when the search's SAF spec carries
     * compression formats (it is only provable against dense
     * footprints).
     */
    MapSpaceOptions mapspace;
    /**
     * Optional shared evaluation cache. When set, every candidate
     * evaluation goes through it, so repeated searches (restarts with
     * the same seed), concurrent evaluation workers, and sibling
     * design points sharing tile shapes reuse results and Step-1 dense
     * analyses. The search outcome is bit-identical with or without a
     * cache (up to 64-bit signature collisions between distinct
     * candidates, ~2^-64 per pair). Keys cover the engine
     * configuration, so one cache can serve searches over different
     * architectures without cross-talk.
     */
    std::shared_ptr<EvalCache> cache;
};

/** Why a search did (not) produce a mapping. */
enum class SearchStatus
{
    /** A valid mapping was found. */
    kFound,
    /** Candidates were evaluated but every one was invalid (e.g.
     *  capacity overflow at every tiling the budget reached). */
    kNoValidCandidate,
    /** The constraints prune the mapspace to nothing; no candidate
     *  was ever generated. */
    kEmptyMapSpace,
};

/** Search outcome. */
struct MapperResult
{
    bool found = false;
    SearchStatus status = SearchStatus::kNoValidCandidate;
    Mapping mapping;
    EvalResult eval;
    /** Candidates proposed and evaluated (never exceeds the budget). */
    std::int64_t candidates_evaluated = 0;
    /** Evaluated candidates that were valid. */
    std::int64_t candidates_valid = 0;
    /** Name of the strategy that ran ("random", "exhaustive", ...). */
    std::string strategy;
    /** Size report of the pruned mapspace the search ran over. */
    MapSpaceSize mapspace_size;
    /**
     * Per-pass pruned-point counts of the mapspace construction
     * pipeline (symmetry reduction, keep-dominance, capacity
     * dominance); see `MapSpacePruneStats`. Exact whenever the tiling
     * cross-product was enumerable.
     */
    MapSpacePruneStats prune_stats;
    /**
     * Warm-start elites that re-encoded into this search's mapspace
     * and were offered to the strategy (0 without a pool). The
     * strategy may use fewer: annealing seeds at most
     * `AnnealingOptions::chains`, genetic at most
     * `GeneticOptions::population`, and random/exhaustive ignore
     * starting points entirely.
     */
    std::int64_t warm_start_candidates = 0;
    /**
     * The non-dominated (mapping, metric-vector) candidates the
     * search encountered, over the objective spec's `frontMetrics()`
     * (cycles vs energy by default), bounded by
     * `MapperOptions::pareto_capacity` and sorted by (first front
     * metric, proposal index). Deterministic: bit-identical across
     * runs, driver batch sizes, and thread counts. Empty when no
     * candidate was valid or front tracking is disabled.
     */
    std::vector<ParetoEntry> pareto_front;
};

class Mapper
{
  public:
    /**
     * Validates @p constraints up front (level count, index ranges,
     * duplicates — fatal with a message naming the offending level).
     */
    Mapper(const Workload &workload, const Architecture &arch,
           const SafSpec &safs, MapperOptions options = {},
           const MapspaceConstraints &constraints = {});

    /** Run the search with a single evaluation worker. */
    MapperResult search() const;

    /**
     * Run the search with @p num_threads evaluation workers (0 = all
     * cores; each batch clamps the count to its size). The result is
     * bit-identical to `search()` for every strategy: candidates are
     * proposed in the same order and the batched evaluation is
     * bit-identical to sequential evaluation.
     */
    MapperResult searchWithThreads(int num_threads) const;

    /** The options this mapper was constructed with. */
    const MapperOptions &options() const { return options_; }
    /** The constraint-pruned mapspace the search runs over. */
    const MapSpace &mapspace() const { return *space_; }

  private:
    const Workload &workload_;
    const Architecture &arch_;
    const SafSpec &safs_;
    MapperOptions options_;
    std::unique_ptr<MapSpace> space_;
};

} // namespace sparseloop

#endif // SPARSELOOP_MAPPER_MAPPER_HH
