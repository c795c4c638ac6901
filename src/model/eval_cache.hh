/**
 * @file
 * Evaluation caching for design-space-exploration sweeps.
 *
 * DSE sweeps revisit evaluation points constantly: the mapper re-draws
 * the same candidate mappings across restarts, SAF sweeps rerun a fixed
 * (workload, mapping) pair under dozens of SAF specifications, and
 * co-design grids share tile shapes between design points. The cache
 * memoizes two levels of Sparseloop's pipeline (Fig. 5):
 *
 *  - **Result level** — full `EvalResult`s keyed by `EvalKey`
 *    (workload id, mapping signature, SAF signature). A hit skips all
 *    three modeling steps.
 *  - **Dense level** — Step-1 `DenseTraffic` keyed by `DenseKey`
 *    (workload id, mapping signature). SAF sweeps over a fixed mapping
 *    miss the result level but hit here, skipping the dataflow step.
 *
 * The store is sharded by key hash: each shard owns its own mutex and
 * maps, so concurrent mapper workers rarely contend. Cached values are
 * immutable `shared_ptr`s; a hit returns the exact object produced by
 * the original evaluation, which keeps results bit-identical to
 * uncached sequential evaluation by construction.
 *
 * Keys cover the engine configuration (architecture structure +
 * `EngineOptions`) as well, so one cache may safely be shared between
 * engines — entries from differing configurations never collide.
 *
 * Quickstart:
 * @code
 *   Engine engine(arch);
 *   EvalCache cache;
 *   for (const SafSpec &safs : sweep) {
 *       EvalResult r = evaluateCached(engine, cache, w, mapping, safs);
 *       // first iteration computes Step 1; later ones reuse it
 *   }
 *   EvalCacheStats s = cache.stats();   // hit rates, entry counts
 * @endcode
 */

#ifndef SPARSELOOP_MODEL_EVAL_CACHE_HH
#define SPARSELOOP_MODEL_EVAL_CACHE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "model/engine.hh"

namespace sparseloop {

/** Identity of a Step-1 (dense dataflow) computation. */
struct DenseKey
{
    std::uint64_t engine = 0;    ///< Engine::signature()
    std::uint64_t workload = 0;  ///< Workload::signature()
    std::uint64_t mapping = 0;   ///< Mapping::signature()

    /** Build the key for one (engine, workload, mapping) triple. */
    static DenseKey of(const Engine &engine, const Workload &workload,
                       const Mapping &mapping);

    /** Combined 64-bit hash of the signatures. */
    std::uint64_t hash() const;
};

template <typename A>
auto
fields(A &a, DenseKey &key)
{
    return a(key.engine, key.workload, key.mapping);
}

inline bool
operator==(const DenseKey &a, const DenseKey &b)
{
    return fieldTie(a) == fieldTie(b);
}
inline bool
operator!=(const DenseKey &a, const DenseKey &b)
{
    return !(a == b);
}

/**
 * Canonical identity of one evaluation point. Two points with equal
 * keys produce bit-identical `EvalResult`s (the component signatures
 * are injective over the semantically relevant fields, up to 64-bit
 * hash collisions). The engine component covers the architecture
 * structure and `EngineOptions`, so one cache can safely be shared
 * across engine configurations.
 */
struct EvalKey
{
    std::uint64_t engine = 0;    ///< Engine::signature()
    std::uint64_t workload = 0;  ///< Workload::signature()
    std::uint64_t mapping = 0;   ///< Mapping::signature()
    std::uint64_t safs = 0;      ///< SafSpec::signature()

    /** Build the key for one (engine, workload, mapping, SAFs) point. */
    static EvalKey of(const Engine &engine, const Workload &workload,
                      const Mapping &mapping, const SafSpec &safs);

    /** The Step-1 prefix of this key (SAF-independent). */
    DenseKey densePrefix() const { return {engine, workload, mapping}; }

    /** Combined 64-bit hash of the signatures. */
    std::uint64_t hash() const;
};

template <typename A>
auto
fields(A &a, EvalKey &key)
{
    return a(key.engine, key.workload, key.mapping, key.safs);
}

inline bool
operator==(const EvalKey &a, const EvalKey &b)
{
    return fieldTie(a) == fieldTie(b);
}
inline bool operator!=(const EvalKey &a, const EvalKey &b) { return !(a == b); }

/** std::unordered_map adaptor for EvalKey. */
struct EvalKeyHash
{
    std::size_t operator()(const EvalKey &k) const
    {
        return static_cast<std::size_t>(k.hash());
    }
};

/** std::unordered_map adaptor for DenseKey. */
struct DenseKeyHash
{
    std::size_t operator()(const DenseKey &k) const
    {
        return static_cast<std::size_t>(k.hash());
    }
};

/** Monotonic hit/miss counters (since construction or clear()). */
struct EvalCacheStats
{
    std::int64_t result_hits = 0;    ///< full-result lookups served
    std::int64_t result_misses = 0;  ///< full-result lookups missed
    std::int64_t dense_hits = 0;     ///< Step-1 lookups served
    std::int64_t dense_misses = 0;   ///< Step-1 lookups missed
    std::size_t result_entries = 0;  ///< resident full results
    std::size_t dense_entries = 0;   ///< resident dense analyses

    /** Fraction of result lookups that hit (0 when none). */
    double resultHitRate() const
    {
        std::int64_t n = result_hits + result_misses;
        return n > 0 ? static_cast<double>(result_hits) / n : 0.0;
    }
    /** Fraction of dense lookups that hit (0 when none). */
    double denseHitRate() const
    {
        std::int64_t n = dense_hits + dense_misses;
        return n > 0 ? static_cast<double>(dense_hits) / n : 0.0;
    }
};

/**
 * Thread-safe sharded two-level evaluation cache. All members may be
 * called concurrently from any number of threads.
 *
 * Hot batch paths pass a precomputed `key.hash()` to the overloads
 * below so a key's lookup and store share one hash, and buffer their
 * insertions into `storeResults`/`storeDenses`, which merge into each
 * shard under one lock acquisition instead of one per entry.
 */
class EvalCache
{
  public:
    /** Independent lock domains; more shards = less contention. */
    static constexpr std::size_t kShards = 16;
    /**
     * Per-shard entry bound of each cache level. When a full shard
     * admits a new entry it evicts a resident one chosen by a
     * hash-derived bucket probe (pseudo-random replacement,
     * uncorrelated with insertion order).
     */
    static constexpr std::size_t kMaxEntriesPerShard = 4096;

    /** One buffered full-result insertion (see `storeResults`). */
    struct ResultEntry
    {
        EvalKey key;
        std::uint64_t hash = 0;  ///< must equal key.hash()
        std::shared_ptr<const EvalResult> result;
    };

    /** One buffered Step-1 insertion (see `storeDenses`). */
    struct DenseEntry
    {
        DenseKey key;
        std::uint64_t hash = 0;  ///< must equal key.hash()
        std::shared_ptr<const DenseTraffic> dense;
    };

    EvalCache();

    /** Cached full result for a key, or null (counts a hit/miss). */
    std::shared_ptr<const EvalResult> findResult(const EvalKey &key) const;

    /** `findResult` with a precomputed `key.hash()`. */
    std::shared_ptr<const EvalResult>
    findResult(const EvalKey &key, std::uint64_t hash) const;

    /** Memoize a full result (keeps the first value on races). */
    void storeResult(const EvalKey &key,
                     std::shared_ptr<const EvalResult> result);

    /** `storeResult` with a precomputed `key.hash()`. */
    void storeResult(const EvalKey &key, std::uint64_t hash,
                     std::shared_ptr<const EvalResult> result);

    /** Cached Step-1 output for a key, or null (counts a hit/miss). */
    std::shared_ptr<const DenseTraffic>
    findDense(const DenseKey &key) const;

    /** `findDense` with a precomputed `key.hash()`. */
    std::shared_ptr<const DenseTraffic>
    findDense(const DenseKey &key, std::uint64_t hash) const;

    /** Memoize a Step-1 output (keeps the first value on races). */
    void storeDense(const DenseKey &key,
                    std::shared_ptr<const DenseTraffic> dense);

    /** `storeDense` with a precomputed `key.hash()`. */
    void storeDense(const DenseKey &key, std::uint64_t hash,
                    std::shared_ptr<const DenseTraffic> dense);

    /**
     * Bulk full-result insertion: entries are grouped by shard and
     * each touched shard is locked exactly once, so a worker can
     * buffer a whole batch wave and merge it with O(shards) mutex
     * acquisitions instead of O(entries).
     */
    void storeResults(std::vector<ResultEntry> entries);

    /** Bulk Step-1 insertion (same contract as `storeResults`). */
    void storeDenses(std::vector<DenseEntry> entries);

    /**
     * Snapshot of every resident full-result entry (hash field
     * filled), in shard order. Entries share ownership with the cache
     * (`shared_ptr` values are immutable), so exporting is cheap and
     * safe against concurrent mutation — the disk-persistence layer
     * (service/persistence.hh) serializes from this view.
     */
    std::vector<ResultEntry> exportResults() const;

    /** Snapshot of every resident Step-1 entry (see `exportResults`). */
    std::vector<DenseEntry> exportDenses() const;

    /** Snapshot of the counters and entry counts. */
    EvalCacheStats stats() const;

    /** Drop all entries and reset the counters. */
    void clear();

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<EvalKey, std::shared_ptr<const EvalResult>,
                           EvalKeyHash> results;
        std::unordered_map<DenseKey, std::shared_ptr<const DenseTraffic>,
                           DenseKeyHash> dense;
    };

    std::vector<std::unique_ptr<Shard>> shards_;
    mutable std::atomic<std::int64_t> result_hits_{0};
    mutable std::atomic<std::int64_t> result_misses_{0};
    mutable std::atomic<std::int64_t> dense_hits_{0};
    mutable std::atomic<std::int64_t> dense_misses_{0};

    Shard &shardFor(std::uint64_t hash) const;
};

/**
 * Evaluate one point through the cache: serve a memoized result when
 * available, otherwise reuse (or compute and memoize) the Step-1 dense
 * traffic and run steps 2-3. Returns exactly what
 * `engine.evaluate(workload, mapping, safs)` would return.
 */
EvalResult evaluateCached(const Engine &engine, EvalCache &cache,
                          const Workload &workload, const Mapping &mapping,
                          const SafSpec &safs);

} // namespace sparseloop

#endif // SPARSELOOP_MODEL_EVAL_CACHE_HH
