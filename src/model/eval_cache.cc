/**
 * @file
 * Sharded two-level evaluation cache implementation.
 */

#include "model/eval_cache.hh"

#include <algorithm>
#include <utility>

#include "common/mathutil.hh"

namespace sparseloop {

DenseKey
DenseKey::of(const Engine &engine, const Workload &workload,
             const Mapping &mapping)
{
    return {engine.signature(), workload.signature(),
            mapping.signature()};
}

std::uint64_t
DenseKey::hash() const
{
    std::uint64_t h = math::hashCombine(math::kHashSeed, engine);
    h = math::hashCombine(h, workload);
    return math::hashCombine(h, mapping);
}

EvalKey
EvalKey::of(const Engine &engine, const Workload &workload,
            const Mapping &mapping, const SafSpec &safs)
{
    return {engine.signature(), workload.signature(),
            mapping.signature(), safs.signature()};
}

std::uint64_t
EvalKey::hash() const
{
    std::uint64_t h = math::hashCombine(math::kHashSeed, engine);
    h = math::hashCombine(h, workload);
    h = math::hashCombine(h, mapping);
    return math::hashCombine(h, safs);
}

EvalCache::EvalCache()
{
    shards_.reserve(kShards);
    for (std::size_t i = 0; i < kShards; ++i) {
        shards_.push_back(std::make_unique<Shard>());
    }
}

EvalCache::Shard &
EvalCache::shardFor(std::uint64_t hash) const
{
    return *shards_[hash % kShards];
}

namespace {

/** Shared lock-lookup-count body of both cache levels. */
template <typename Map>
typename Map::mapped_type
findEntry(const Map &map, std::mutex &mutex,
          const typename Map::key_type &key,
          std::atomic<std::int64_t> &hits,
          std::atomic<std::int64_t> &misses)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = map.find(key);
    if (it == map.end()) {
        misses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

/** Shared evict-emplace body of both cache levels; the caller must
 *  hold the shard mutex and pass the entry's precomputed key.hash(). */
template <typename Map>
void
storeEntryLocked(Map &map, const typename Map::key_type &key,
                 std::uint64_t hash, typename Map::mapped_type value)
{
    if (map.size() >= EvalCache::kMaxEntriesPerShard &&
        map.find(key) == map.end()) {
        // Pseudo-random replacement: probe buckets starting from a
        // position derived from the incoming key's hash and evict the
        // first resident entry found. Deliberately NOT erase(begin()):
        // unordered_map iteration order correlates with insertion
        // recency (libstdc++ inserts at the head), which would pin the
        // oldest sweep's entries and churn every new one.
        const std::size_t buckets = map.bucket_count();
        std::size_t start = static_cast<std::size_t>(hash);
        for (std::size_t probe = 0; probe < buckets; ++probe) {
            std::size_t b = (start + probe) % buckets;
            auto it = map.begin(b);
            if (it != map.end(b)) {
                map.erase(it->first);
                break;
            }
        }
    }
    map.emplace(key, std::move(value));
}

} // namespace

std::shared_ptr<const EvalResult>
EvalCache::findResult(const EvalKey &key) const
{
    return findResult(key, key.hash());
}

std::shared_ptr<const EvalResult>
EvalCache::findResult(const EvalKey &key, std::uint64_t hash) const
{
    Shard &shard = shardFor(hash);
    return findEntry(shard.results, shard.mutex, key, result_hits_,
                     result_misses_);
}

void
EvalCache::storeResult(const EvalKey &key,
                       std::shared_ptr<const EvalResult> result)
{
    storeResult(key, key.hash(), std::move(result));
}

void
EvalCache::storeResult(const EvalKey &key, std::uint64_t hash,
                       std::shared_ptr<const EvalResult> result)
{
    Shard &shard = shardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    storeEntryLocked(shard.results, key, hash, std::move(result));
}

std::shared_ptr<const DenseTraffic>
EvalCache::findDense(const DenseKey &key) const
{
    return findDense(key, key.hash());
}

std::shared_ptr<const DenseTraffic>
EvalCache::findDense(const DenseKey &key, std::uint64_t hash) const
{
    Shard &shard = shardFor(hash);
    return findEntry(shard.dense, shard.mutex, key, dense_hits_,
                     dense_misses_);
}

void
EvalCache::storeDense(const DenseKey &key,
                      std::shared_ptr<const DenseTraffic> dense)
{
    storeDense(key, key.hash(), std::move(dense));
}

void
EvalCache::storeDense(const DenseKey &key, std::uint64_t hash,
                      std::shared_ptr<const DenseTraffic> dense)
{
    Shard &shard = shardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    storeEntryLocked(shard.dense, key, hash, std::move(dense));
}

namespace {

/** Shared bulk-insert body of both cache levels: @p entries are
 *  grouped by shard so each touched shard is locked exactly once;
 *  @p level picks a shard's map and @p value an entry's payload. */
template <typename Shards, typename Entry, typename Shard, typename Map,
          typename Value>
void
storeGrouped(const Shards &shards, std::vector<Entry> &entries,
             Map Shard::*level, Value Entry::*value)
{
    if (entries.empty()) {
        return;
    }
    std::vector<std::vector<std::size_t>> per_shard(EvalCache::kShards);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        per_shard[entries[i].hash % EvalCache::kShards].push_back(i);
    }
    for (std::size_t s = 0; s < EvalCache::kShards; ++s) {
        if (per_shard[s].empty()) {
            continue;
        }
        Shard &shard = *shards[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (std::size_t i : per_shard[s]) {
            storeEntryLocked(shard.*level, entries[i].key,
                             entries[i].hash,
                             std::move(entries[i].*value));
        }
    }
}

} // namespace

void
EvalCache::storeResults(std::vector<ResultEntry> entries)
{
    storeGrouped(shards_, entries, &Shard::results, &ResultEntry::result);
}

void
EvalCache::storeDenses(std::vector<DenseEntry> entries)
{
    storeGrouped(shards_, entries, &Shard::dense, &DenseEntry::dense);
}

std::vector<EvalCache::ResultEntry>
EvalCache::exportResults() const
{
    std::vector<ResultEntry> out;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.reserve(out.size() + shard->results.size());
        for (const auto &[key, value] : shard->results) {
            out.push_back({key, key.hash(), value});
        }
    }
    return out;
}

std::vector<EvalCache::DenseEntry>
EvalCache::exportDenses() const
{
    std::vector<DenseEntry> out;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.reserve(out.size() + shard->dense.size());
        for (const auto &[key, value] : shard->dense) {
            out.push_back({key, key.hash(), value});
        }
    }
    return out;
}

EvalCacheStats
EvalCache::stats() const
{
    EvalCacheStats s;
    s.result_hits = result_hits_.load(std::memory_order_relaxed);
    s.result_misses = result_misses_.load(std::memory_order_relaxed);
    s.dense_hits = dense_hits_.load(std::memory_order_relaxed);
    s.dense_misses = dense_misses_.load(std::memory_order_relaxed);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        s.result_entries += shard->results.size();
        s.dense_entries += shard->dense.size();
    }
    return s;
}

void
EvalCache::clear()
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->results.clear();
        shard->dense.clear();
    }
    result_hits_.store(0, std::memory_order_relaxed);
    result_misses_.store(0, std::memory_order_relaxed);
    dense_hits_.store(0, std::memory_order_relaxed);
    dense_misses_.store(0, std::memory_order_relaxed);
}

EvalResult
evaluateCached(const Engine &engine, EvalCache &cache,
               const Workload &workload, const Mapping &mapping,
               const SafSpec &safs)
{
    const EvalKey key = EvalKey::of(engine, workload, mapping, safs);
    if (auto hit = cache.findResult(key)) {
        return *hit;
    }
    const DenseKey dense_key = key.densePrefix();
    std::shared_ptr<const DenseTraffic> dense = cache.findDense(dense_key);
    if (!dense) {
        dense = std::make_shared<const DenseTraffic>(
            engine.analyzeDataflow(workload, mapping));
        cache.storeDense(dense_key, dense);
    }
    auto result = std::make_shared<const EvalResult>(
        engine.evaluateFromDense(workload, mapping, safs, *dense));
    cache.storeResult(key, result);
    return *result;
}

} // namespace sparseloop
