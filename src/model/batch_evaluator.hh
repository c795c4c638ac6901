/**
 * @file
 * Batched engine evaluation for DSE sweeps.
 *
 * A design-space sweep is a pile of independent evaluation points, many
 * of which repeat work: duplicate points (the same design reached from
 * different sweep axes) and shared Step-1 dense prefixes (many SAF
 * specifications over one tile shape). `BatchEvaluator` exploits both
 * in one pass: it deduplicates points by `EvalKey`, probes the shared
 * `EvalCache` once per distinct key, orders the misses group by group
 * by `DenseKey`, and fans them out in a single chunk-scheduled wave
 * over the persistent worker pool (common/thread_pool.hh, the same
 * pool `Mapper::searchWithThreads` and the search strategies ride).
 * Whichever member of a group runs first fetches or computes the
 * group's Step-1 dense traffic under the group's lock; the others
 * reuse it. The worker that evaluates a miss writes the result into
 * the output slot of the first point that asked for it; the caller
 * then copies cache hits and in-batch duplicates into theirs. Fresh
 * entries are merged into the cache shards in bulk after the wave, so
 * repeated batches — and any mapper sharing the cache — keep hitting.
 *
 * A `FatalError` from the engine stays on its point: a Step-1 error
 * marks every point of its dense group, a Step-2/3 error only its own
 * point. The rest of the batch is evaluated and cached as usual.
 *
 * Results are bit-identical to calling `Engine::evaluate` on every
 * point sequentially: every point with one `EvalKey` receives a copy
 * of the one `EvalResult` computed (or cached) for it, and steps 2-3
 * always run on the exact Step-1 output they would have computed
 * locally. (As everywhere in the cache subsystem, identity is judged
 * by `EvalKey`, so the guarantee holds up to 64-bit signature
 * collisions — ~2^-64 per pair of distinct designs.)
 *
 * Quickstart:
 * @code
 *   BatchEvaluator evaluator(Engine(arch));
 *   std::vector<EvalPoint> points;
 *   for (const SafSpec &safs : safSweep) {
 *       points.push_back({&workload, &mapping, &safs});
 *   }
 *   std::vector<EvalResult> results = evaluator.evaluateBatch(points);
 *   double hit_rate = evaluator.cache().stats().denseHitRate();
 * @endcode
 */

#ifndef SPARSELOOP_MODEL_BATCH_EVALUATOR_HH
#define SPARSELOOP_MODEL_BATCH_EVALUATOR_HH

#include "model/eval_cache.hh"

namespace sparseloop {

/**
 * One evaluation point of a batch. The pointed-to objects must stay
 * alive until `evaluateBatch` returns; the evaluator never copies them.
 */
struct EvalPoint
{
    const Workload *workload = nullptr;
    const Mapping *mapping = nullptr;
    const SafSpec *safs = nullptr;
};

/** Worker-pool knobs. */
struct BatchEvaluatorOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int num_threads = 0;
};

/** Work-sharing accounting of one evaluateBatch call. */
struct BatchStats
{
    std::int64_t points = 0;        ///< points submitted
    std::int64_t unique_points = 0; ///< distinct EvalKeys in the batch
    /** Distinct Step-1 prefixes among points the result cache did not
     *  already hold (0 for a batch of pure repeats). */
    std::int64_t dense_groups = 0;
};

/**
 * Cached, deduplicated, multi-threaded evaluation of point batches.
 * Thread-safe: concurrent calls on one instance share the cache.
 */
class BatchEvaluator
{
  public:
    /**
     * @param engine evaluation engine (owns the architecture).
     * @param cache shared cache; null creates a private one. Inject
     *        a cache to share hits with a `Mapper` (via
     *        `MapperOptions::cache`) or other evaluators; keys cover
     *        the engine configuration, so sharing is always safe.
     * @param options worker-pool knobs.
     */
    explicit BatchEvaluator(Engine engine,
                            std::shared_ptr<EvalCache> cache = nullptr,
                            BatchEvaluatorOptions options = {});

    /** Evaluate one point through the cache. */
    EvalResult evaluate(const Workload &workload, const Mapping &mapping,
                        const SafSpec &safs) const;

    /**
     * Evaluate a batch. Returns one result per input point, in input
     * order, each bit-identical to `engine().evaluate` on that point:
     * a fresh point's slot is filled by the worker that evaluated it,
     * every other slot by a copy of the cached result.
     * Invalid mappings (capacity overflow) come back as results with
     * `valid == false`. When malformed mappings make the engine throw
     * `FatalError`, the rest of the batch is still evaluated and
     * cached, then the first failing point's error (in input order)
     * is thrown.
     *
     * @param points evaluation points (pointers must be non-null).
     * @param stats optional out-parameter for work-sharing accounting.
     */
    std::vector<EvalResult>
    evaluateBatch(const std::vector<EvalPoint> &points,
                  BatchStats *stats = nullptr) const;

    /**
     * Batch hook for candidate searches: evaluate many mappings of one
     * (workload, SAF-spec) pair in the same single pass. Unlike
     * `evaluateBatch`, a mapping that makes the engine throw
     * `FatalError` does not fail the call: it comes back as an invalid
     * result carrying the error text in `invalid_reason`. The
     * well-formed mappings' results stay bit-identical to
     * `engine().evaluate` on them.
     *
     * @param mappings candidate mappings (pointers must be non-null
     *        and alive until the call returns).
     */
    std::vector<EvalResult>
    evaluateMappings(const Workload &workload,
                     const std::vector<const Mapping *> &mappings,
                     const SafSpec &safs,
                     BatchStats *stats = nullptr) const;

    /** Resolved worker count for @p jobs parallel jobs. */
    int threadCount(std::size_t jobs) const;

    const Engine &engine() const { return engine_; }
    EvalCache &cache() const { return *cache_; }
    const std::shared_ptr<EvalCache> &cachePtr() const { return cache_; }
    const BatchEvaluatorOptions &options() const { return options_; }

  private:
    /**
     * The one pass behind both entry points: dedupe, probe, then
     * evaluate every miss in one fan-out. Points whose evaluation
     * threw `FatalError` come back invalid with the error text in
     * `invalid_reason`; @p first_failure receives the input index of
     * the first of them (or `points.size()` when none failed).
     */
    std::vector<EvalResult>
    evaluatePoints(const std::vector<EvalPoint> &points, BatchStats *stats,
                   std::size_t &first_failure) const;

    Engine engine_;
    std::shared_ptr<EvalCache> cache_;
    BatchEvaluatorOptions options_;
};

} // namespace sparseloop

#endif // SPARSELOOP_MODEL_BATCH_EVALUATOR_HH
