/**
 * @file
 * First-class search objectives and Pareto-front bookkeeping.
 *
 * Real accelerator co-design questions (the paper's Fig. 17 study is
 * the canonical example) are trade-offs between cycles, energy, and
 * storage capacity, not a single scalar. This module turns the
 * mapper's objective into an explicit subsystem with three pieces:
 *
 *  - `MetricVector` — the metric vector extracted once per evaluated
 *    candidate (cycles, energy, EDP, peak storage capacity, metadata
 *    overhead).
 *  - `ObjectiveSpec` — how a search ranks candidates: one metric
 *    (EDP by default) plus the dimensions of the Pareto front the
 *    drivers maintain alongside it. The spec provides both the scalar
 *    feedback `SearchStrategy::observe` consumes (`scalarize`) and the
 *    total-order comparator the drivers and the warm-start pool reduce
 *    with (`compare`/`better`), so the tie-break rule lives in exactly
 *    one place. Trade-offs between metrics are read off the front.
 *  - `ParetoArchive` — a deterministic bounded archive of
 *    non-dominated (mapping, metric-vector) candidates maintained by
 *    the drivers alongside the scalar incumbent and surfaced as
 *    `MapperResult::pareto_front`.
 *
 * Determinism contract: `scalarize`/`better` reproduce the historical
 * scalar (objective, proposal-index) reduction bit-for-bit, so every
 * strategy's `MapperResult` is unchanged by this layer; and because
 * the archive is fed candidates in proposal order with all decisions
 * depending only on archive contents, fronts are bit-identical across
 * driver batch sizes and thread counts (tests/test_pareto_search.cc
 * asserts both).
 */

#ifndef SPARSELOOP_MAPPER_OBJECTIVE_HH
#define SPARSELOOP_MAPPER_OBJECTIVE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mapping/mapping.hh"
#include "microarch/microarch_model.hh"

namespace sparseloop {

/** One dimension of the metric vector extracted from an `EvalResult`. */
enum class Metric : int
{
    Cycles = 0,        ///< processing latency in cycles
    Energy,            ///< total energy in pJ
    Edp,               ///< energy-delay product (pJ x cycles)
    PeakCapacity,      ///< max per-level worst-case occupied words
    MetadataOverhead,  ///< expected metadata footprint words, all levels
};

/** Number of `Metric` dimensions (size of a `MetricVector`). */
inline constexpr int kMetricCount = 5;

/** Short lowercase name of @p metric ("cycles", "energy", ...). */
const char *toString(Metric metric);

/**
 * The metric vector of one evaluated candidate: one value per
 * `Metric`, extracted once via `of()` and carried through the
 * objective layer (scalarization, incumbent reduction, Pareto
 * archive, warm-start pool).
 */
struct MetricVector
{
    /** Values indexed by `static_cast<int>(Metric)`. */
    std::array<double, kMetricCount> values{};

    /** Value of @p metric. */
    double at(Metric metric) const
    {
        return values[static_cast<std::size_t>(metric)];
    }
    /** Mutable value of @p metric. */
    double &at(Metric metric)
    {
        return values[static_cast<std::size_t>(metric)];
    }

    /**
     * Extract the vector from a (valid) evaluation: cycles and energy
     * verbatim, EDP as `EvalResult::edp()`, peak capacity and
     * metadata overhead via the `EvalResult` helpers.
     */
    static MetricVector of(const EvalResult &eval);
};

template <typename A>
auto
fields(A &a, MetricVector &metrics)
{
    return a(metrics.values);
}

/** Exact equality over every metric. */
inline bool
operator==(const MetricVector &a, const MetricVector &b)
{
    return fieldTie(a) == fieldTie(b);
}
inline bool
operator!=(const MetricVector &a, const MetricVector &b)
{
    return !(a == b);
}

/**
 * How a search ranks candidates: minimize one metric, and track the
 * Pareto front over `frontMetrics()`. The default is EDP with a
 * {Cycles, Energy} front, which reproduces the historical scalar
 * search bit-identically.
 *
 * The spec provides:
 *  - `scalarize` — the scalar feedback handed to
 *    `SearchStrategy::observe` (the metric value, lower is better),
 *    and
 *  - `compare`/`better` — the total order the drivers reduce with;
 *    `better` folds in the proposal-index tie-break, so the Mapper
 *    driver and the warm-start pool share one rule.
 */
class ObjectiveSpec
{
  public:
    /** Default: single-metric EDP (the historical objective). */
    ObjectiveSpec() = default;

    /** Minimize @p metric. */
    static ObjectiveSpec single(Metric metric);

    /**
     * Copy of this spec with the Pareto-archive dimensions overridden.
     * Fatal (SL_FATAL) when @p metrics is empty. The default is
     * {Cycles, Energy} — the canonical co-design trade-off.
     */
    ObjectiveSpec withFrontMetrics(std::vector<Metric> metrics) const;

    /** The minimized metric. */
    Metric primary() const { return primary_; }
    /** Dominance dimensions of the Pareto archive this spec asks the
     *  driver to maintain. */
    const std::vector<Metric> &frontMetrics() const { return front_; }

    /** Scalar feedback for `SearchStrategy::observe` (lower is
     *  better): the value of the primary metric. */
    double scalarize(const MetricVector &m) const
    {
        return m.at(primary_);
    }

    /**
     * Total preorder on metric vectors: negative when @p a ranks
     * strictly better than @p b, positive when strictly worse, 0 when
     * tied — the historical exact `<` / `==` double comparison of the
     * primary metric.
     */
    int compare(const MetricVector &a, const MetricVector &b) const;

    /**
     * The shared total-order reduction rule: @p a (proposed at
     * @p index_a) beats @p b (proposed at @p index_b) when `compare`
     * ranks it strictly better, or on a tie when it was proposed
     * first. This is the single tie-break used by `Mapper` and
     * `WarmStartPool` re-ranking.
     */
    bool better(const MetricVector &a, std::int64_t index_a,
                const MetricVector &b, std::int64_t index_b) const;

  private:
    Metric primary_ = Metric::Edp;
    /** Default front: the canonical co-design trade-off. */
    std::vector<Metric> front_{Metric::Cycles, Metric::Energy};
};

/** One archived non-dominated candidate. */
struct ParetoEntry
{
    /** Global proposal index (the deterministic identity/tie-break). */
    std::int64_t index = 0;
    /** The candidate's full metric vector. */
    MetricVector metrics;
    /** The candidate mapping. */
    Mapping mapping;
};

/**
 * A deterministic bounded archive of mutually non-dominated
 * (mapping, metric-vector) candidates over a fixed set of dominance
 * metrics.
 *
 * Semantics:
 *  - An insert is rejected when an existing entry dominates it or
 *    has an identical metric vector (first proposal wins the dedupe).
 *  - An accepted insert evicts every entry it dominates.
 *  - When the bound is exceeded, the entry with the smallest NSGA-II
 *    crowding distance is evicted (largest proposal index on ties),
 *    i.e. the archive keeps the prefix of the (dominance, crowding,
 *    proposal-index) ordering — boundary points are never evicted
 *    before interior ones.
 *
 * Fed in proposal order (as the drivers do), every decision depends
 * only on the current contents, so the final front is bit-identical
 * across driver batch sizes and thread counts.
 */
class ParetoArchive
{
  public:
    /**
     * Fatal (SL_FATAL) when @p metrics is empty.
     *
     * @param metrics dominance dimensions (at least one).
     * @param capacity max entries retained; 0 disables the archive
     *        (every insert is a no-op).
     */
    explicit ParetoArchive(std::vector<Metric> metrics,
                           std::size_t capacity = 32);

    /**
     * Offer one candidate. Returns true when the candidate is in the
     * archive afterwards (it was non-dominated and survived any
     * capacity eviction).
     */
    bool insert(const Mapping &mapping, const MetricVector &metrics,
                std::int64_t index);

    /** Entries sorted by (first dominance metric, proposal index)
     *  ascending — front order for printing/plotting. */
    const std::vector<ParetoEntry> &entries() const { return entries_; }

    /** Move the entries out (the archive is left empty). */
    std::vector<ParetoEntry> takeEntries();

    /** Current entry count (<= capacity). */
    std::size_t size() const { return entries_.size(); }
    /** The archive bound. */
    std::size_t capacity() const { return capacity_; }
    /** The dominance dimensions. */
    const std::vector<Metric> &metrics() const { return metrics_; }

    /** Whether @p a dominates @p b over this archive's metrics:
     *  no worse on every one and strictly better on at least one. */
    bool dominates(const MetricVector &a, const MetricVector &b) const;

    /**
     * NSGA-II crowding distance per entry (aligned with `entries()`):
     * per metric, boundary entries get +infinity and interior ones
     * accumulate the normalized span of their neighbors. Deterministic
     * — per-metric orders break value ties by proposal index.
     */
    std::vector<double> crowdingDistances() const;

  private:
    /** Evict the crowding-ordered last entry (smallest distance,
     *  largest proposal index on ties). */
    void evictMostCrowded();

    std::vector<Metric> metrics_;
    std::size_t capacity_;
    /** Mutually non-dominated, sorted by (metrics[0], index). */
    std::vector<ParetoEntry> entries_;
};

/**
 * Exact hypervolume of a two-metric front w.r.t. @p reference: the
 * area dominated by the front within the box it spans to the
 * reference point (larger is better). Entries at or beyond the
 * reference on either metric contribute nothing. Fatal (SL_FATAL)
 * unless @p metrics has exactly two entries.
 */
double hypervolume2d(const std::vector<ParetoEntry> &front,
                     const std::vector<Metric> &metrics,
                     const MetricVector &reference);

} // namespace sparseloop

#endif // SPARSELOOP_MAPPER_OBJECTIVE_HH
