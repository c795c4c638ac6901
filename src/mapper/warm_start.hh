/**
 * @file
 * Cross-design-point warm starts for DSE sweeps.
 *
 * A sweep searches many neighboring design points — SAF variants over
 * one dataflow, density regimes over one workload shape, scaled
 * architectures — whose best mappings are strongly correlated. Without
 * reuse, every design point's search restarts from scratch and spends
 * most of its budget rediscovering the same structure. A
 * `WarmStartPool` closes that loop: each search records its best
 * (mapping, metric-vector) into the shared pool, and the next design
 * point's search re-ranks the pool under its *own* `ObjectiveSpec`,
 * re-encodes the elites into its own constraint-pruned `MapSpace`,
 * and uses them as starting points (annealing chain seeds, genetic
 * generation-0 members, hybrid pre-warmup candidates).
 *
 * Storing full metric vectors (not just the recording search's
 * scalar) is what lets heterogeneous sweeps share one pool: an
 * energy-minimizing search can warm-start from the elites of an
 * EDP-optimized sibling, ranked by what *it* cares about.
 *
 * Re-encoding is the safety valve: `MapSpace::encode` fails cleanly
 * for a mapping that does not fit the consuming space (different
 * storage-level count, tile factors that do not divide the new
 * workload's bounds, a constraint violation), so elites from an
 * incompatible design point are silently skipped instead of breaking
 * the search. Warm candidates are proposed and evaluated like any
 * others — they count against the sample budget and preserve the
 * bit-identity of results across thread counts.
 *
 * Quickstart (a sweep driver):
 * @code
 *   auto pool = std::make_shared<WarmStartPool>();
 *   for (const DesignPoint &design : sweep) {
 *       MapperOptions opts;
 *       opts.strategy = SearchStrategyKind::Annealing;
 *       opts.warm_start = pool;  // seeded by earlier design points
 *       MapperResult r = Mapper(w, design.arch, design.safs, opts)
 *                            .searchWithThreads(0);
 *       // r.warm_start_candidates: elites that re-encoded and seeded
 *       // this search; r.mapping was recorded back into the pool.
 *   }
 * @endcode
 */

#ifndef SPARSELOOP_MAPPER_WARM_START_HH
#define SPARSELOOP_MAPPER_WARM_START_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "mapper/objective.hh"
#include "mapping/mapping.hh"

namespace sparseloop {

/**
 * A bounded, thread-safe pool of elite (mapping, metric-vector) pairs
 * shared across the searches of a DSE sweep. Entries are ranked by
 * the objective the recording search reported (lower is better;
 * insertion order breaks ties, older first) and the pool keeps only
 * the `capacity` best under that ranking. Objectives from different
 * design points are not strictly comparable — the ranking is a
 * heuristic for which structures are worth re-seeding, and every
 * consuming search re-ranks the elites under its own `ObjectiveSpec`
 * (and re-evaluates them under its own design) anyway.
 */
class WarmStartPool
{
  public:
    /** @param capacity elites retained (the `capacity` best seen). */
    explicit WarmStartPool(std::size_t capacity = 16);

    /**
     * Record one elite with its full metric vector and the recording
     * search's scalar objective (the pool's retention ranking). A
     * mapping equal to an existing entry never duplicates: it keeps
     * the better of the two objectives (and that record's metrics).
     * Entries beyond the capacity best are dropped. O(n) per call:
     * the pool stays sorted by insertion into position, never by
     * re-sorting.
     */
    void record(const Mapping &mapping, const MetricVector &metrics,
                double objective);

    /** The pooled elite mappings, best recorded objective first. */
    std::vector<Mapping> elites() const;

    /**
     * The pooled elite mappings re-ranked under a consuming search's
     * spec: best first by `ObjectiveSpec::compare` over the stored
     * metric vectors, insertion order breaking ties (older first).
     * This is how an energy-minimizing search warm-starts from an
     * EDP-optimized sibling's elites.
     */
    std::vector<Mapping> elites(const ObjectiveSpec &spec) const;

    /**
     * One exported elite: the full (objective, metrics, mapping)
     * record, the currency of disk persistence
     * (service/persistence.hh). Feeding an `Elite` back through
     * `record()` reproduces the entry (ticks are re-assigned in
     * export order, which preserves the retention ranking).
     */
    struct Elite
    {
        double objective = 0.0;
        MetricVector metrics;
        Mapping mapping;
    };

    /** The pooled elites in retention order (best recorded first). */
    std::vector<Elite> exportElites() const;

    /** Current entry count (<= capacity). */
    std::size_t size() const;

    /** The retention bound. */
    std::size_t capacity() const { return capacity_; }

  private:
    /** One pooled elite; `tick` is the insertion rank (tie-break). */
    struct Entry
    {
        double objective;
        MetricVector metrics;
        std::int64_t tick;
        Mapping mapping;
    };

    /** The retention order: (recorded objective, tick), best first. */
    static bool entryBefore(const Entry &a, const Entry &b);

    mutable std::mutex mutex_;
    std::size_t capacity_;
    std::int64_t next_tick_ = 0;
    /** Sorted by `entryBefore`, best first. */
    std::vector<Entry> entries_;
};

} // namespace sparseloop

#endif // SPARSELOOP_MAPPER_WARM_START_HH
