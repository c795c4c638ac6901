/**
 * @file
 * Pluggable search strategies over the mapspace IR.
 *
 * A strategy is a candidate generator: the driver (`Mapper`)
 * repeatedly asks it to `propose` a batch of candidates, evaluates
 * the batch through `BatchEvaluator` (so
 * deduplication, dense-prefix grouping, and the worker pool apply
 * during search), feeds scalar objectives back via `observe`, and
 * keeps the (objective, index)-lexicographic best. The scalars come
 * from the driver's `ObjectiveSpec::scalarize` (mapper/objective.hh)
 * — strategies never see metric vectors, so they work unchanged under
 * every spec form (for the default EDP spec the feedback is
 * bit-identical to the historical scalar objective). Splitting
 * generation from evaluation is what makes the strategies
 * interchangeable and the parallelism strategy-agnostic: every
 * strategy is deterministic given its feedback, and the feedback is
 * bit-identical at any thread count.
 *
 * Shipped strategies, by `SearchStrategyKind` (docs/search.md is the
 * full guide); their implementations are private to
 * search_strategy.cc and take no tuning beyond the hybrid warmup:
 *  - `Random` — seeded sampling via the IR; bit-identical to the
 *    pre-IR mapper on unconstrained spaces (same seed -> candidate
 *    derivation), rejection-free under constraints.
 *  - `Exhaustive` — walks `MapSpace::mappingAt`; auto-selected by the
 *    driver when the pruned space fits the sample budget, which
 *    upgrades the search from sampled to provably optimal.
 *  - `Hybrid` — random warmup, then greedy hill-climbing over
 *    `MapSpace::neighbors` with random restarts when a local optimum
 *    stalls.
 *  - `Annealing` — simulated annealing: independent Metropolis chains
 *    over `MapSpace::Point` moves with a shared geometric temperature
 *    schedule.
 *  - `Genetic` — a population evolved by tournament selection,
 *    axis-wise `MapSpace::crossover`, and neighbor-move mutation; all
 *    offspring are in-space by construction.
 *  - `Hierarchical` — coarse-then-refine for billion-point spaces:
 *    sweep the tiling x keep quotient first (one canonical
 *    representative per cell via `MapSpace::coarsePoints`), then
 *    refine the winners' fine axes by greedy neighborhood descent.
 *
 * Every strategy after `Exhaustive` streams fixed rounds of
 * `MapSpace::Point`s and decides only at round boundaries, and on a
 * space whose points cannot be encoded it warns once and samples
 * exactly like `Random`. Each is deterministic given (seed, budget).
 *
 * Strategies may also be seeded with starting points re-encoded from a
 * `WarmStartPool` (mapper/warm_start.hh) via `warmStart`, which is how
 * DSE sweep drivers reuse elite mappings across neighboring design
 * points.
 */

#ifndef SPARSELOOP_MAPPER_SEARCH_STRATEGY_HH
#define SPARSELOOP_MAPPER_SEARCH_STRATEGY_HH

#include <memory>

#include "mapper/mapspace.hh"

namespace sparseloop {

/** Which search strategy a `Mapper` runs. */
enum class SearchStrategyKind
{
    /** Exhaustive when the pruned space fits the sample budget
     *  (exactness for free), random otherwise. */
    Auto,
    Random,
    Exhaustive,
    Hybrid,
    Annealing,
    Genetic,
    /** Coarse-then-refine over the tiling x keep quotient space. */
    Hierarchical,
};

/**
 * Empty: annealing takes no tuning (its parameters are fixed constants
 * in search_strategy.cc). The type has no fields and stays only
 * because the end-to-end benchmark copies `MapperOptions::annealing`
 * into `SearchTuning::annealing`.
 */
struct AnnealingOptions
{
};

/** Empty: genetic search takes no tuning. No fields; stays only for
 *  the benchmark's copy, like `AnnealingOptions`. */
struct GeneticOptions
{
};

/** Empty: hierarchical search takes no tuning. No fields; stays only
 *  for the benchmark's copy, like `AnnealingOptions`. */
struct HierarchicalOptions
{
};

/** Per-strategy tuning handed through `makeSearchStrategy`. */
struct SearchTuning
{
    /** Hybrid warmup/restart window; 0 = budget / 4. */
    std::int64_t hybrid_warmup = 0;
    AnnealingOptions annealing;        ///< empty; see `AnnealingOptions`
    GeneticOptions genetic;            ///< empty; see `AnnealingOptions`
    HierarchicalOptions hierarchical;  ///< empty; see `AnnealingOptions`
};

/** One proposed candidate: a mapping plus its global proposal index
 *  (the deterministic tie-break for equal objectives). */
struct SearchCandidate
{
    std::int64_t index = 0;
    Mapping mapping;
};

/**
 * Candidate-generation interface. Not thread-safe: one driver owns and
 * drives a strategy sequentially; parallelism lives in the batched
 * evaluation of whatever the strategy proposes.
 */
class SearchStrategy
{
  public:
    virtual ~SearchStrategy() = default;

    virtual const char *name() const = 0;

    /**
     * Propose up to @p max_count candidates. Indices are unique and
     * strictly increasing across the whole search. An empty batch
     * means the strategy is exhausted and the search stops early.
     */
    virtual std::vector<SearchCandidate> propose(int max_count) = 0;

    /**
     * Feedback for the batch returned by the previous `propose` call:
     * `objectives[i]` is the scalarized objective of `batch[i]` under
     * the driver's `ObjectiveSpec` (+infinity for invalid
     * candidates; lower is better).
     */
    virtual void observe(const std::vector<SearchCandidate> &,
                         const std::vector<double> &)
    {
    }

    /**
     * Seed the strategy with in-space starting points — typically
     * elite mappings from a `WarmStartPool` re-encoded into this
     * search's `MapSpace` — before the first `propose` call. Seeded
     * points are proposed (and therefore evaluated and counted
     * against the budget) like any other candidate. The default
     * ignores them; random and exhaustive search gain nothing from
     * starting points, while the round-based strategies override
     * this.
     */
    virtual void warmStart(const std::vector<MapSpace::Point> &) {}
};

/**
 * Build the strategy for @p kind. `Auto` resolves to exhaustive when
 * `space.size().enumerable` fits within @p budget, else random.
 * @p budget also sizes the hybrid search's default warmup window, the
 * annealing cooling schedule, and the hierarchical coarse phase.
 */
std::unique_ptr<SearchStrategy>
makeSearchStrategy(SearchStrategyKind kind, const MapSpace &space,
                   std::uint64_t seed, std::int64_t budget,
                   const SearchTuning &tuning = {});

} // namespace sparseloop

#endif // SPARSELOOP_MAPPER_SEARCH_STRATEGY_HH
