/**
 * @file
 * Batched evaluation: dedupe by EvalKey, probe the cache, and evaluate
 * every miss in one fan-out, sharing Step 1 within each dense group.
 */

#include "model/batch_evaluator.hh"

#include <algorithm>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace sparseloop {

BatchEvaluator::BatchEvaluator(Engine engine,
                               std::shared_ptr<EvalCache> cache,
                               BatchEvaluatorOptions options)
    : engine_(std::move(engine)), cache_(std::move(cache)),
      options_(options)
{
    if (!cache_) {
        cache_ = std::make_shared<EvalCache>();
    }
}

EvalResult
BatchEvaluator::evaluate(const Workload &workload, const Mapping &mapping,
                         const SafSpec &safs) const
{
    return evaluateCached(engine_, *cache_, workload, mapping, safs);
}

int
BatchEvaluator::threadCount(std::size_t jobs) const
{
    return parallel::resolveThreadCount(
        options_.num_threads, static_cast<std::int64_t>(jobs));
}

namespace {

/**
 * The result-cache misses of one batch that share a Step-1 prefix.
 * A null `dense` after `resolve` means Step 1 threw, with the text in
 * `error`.
 */
struct DenseGroup
{
    // A plain mutex, not std::call_once: glibc's pthread_once makes a
    // futex syscall on every first call, ~20x an uncontended lock.
    std::mutex mutex;
    bool resolved = false;
    DenseKey key;
    std::uint64_t hash = 0;
    std::shared_ptr<const DenseTraffic> dense;
    bool computed = false;  ///< `dense` is fresh, not a cache hit
    std::string error;

    /** On the group's first call, from whichever member runs first:
     *  fetch Step 1 from @p cache, or compute it for @p p. */
    void resolve(const Engine &engine, EvalCache &cache,
                 const DenseKey &prefix, const EvalPoint &p)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (resolved) {
            return;
        }
        key = prefix;
        hash = key.hash();
        dense = cache.findDense(key, hash);
        if (!dense) {
            try {
                dense = std::make_shared<const DenseTraffic>(
                    engine.analyzeDataflow(*p.workload, *p.mapping));
                computed = true;
            } catch (const FatalError &err) {
                error = err.what();
            }
        }
        resolved = true;
    }
};

} // namespace

std::vector<EvalResult>
BatchEvaluator::evaluatePoints(const std::vector<EvalPoint> &points,
                               BatchStats *stats,
                               std::size_t &first_failure) const
{
    // 1. Dedupe: one job per distinct EvalKey; remember which job
    //    serves each input point.
    struct Job
    {
        EvalKey key;
        std::uint64_t hash = 0;  ///< key.hash(), for probe and store
        const EvalPoint *point = nullptr;
        std::size_t group = 0;   ///< DenseGroup of a result-cache miss
        std::shared_ptr<const EvalResult> result;
        std::string error;  ///< FatalError text when result stays null
    };
    std::vector<Job> jobs;
    std::vector<std::size_t> point_to_job(points.size());
    std::unordered_map<EvalKey, std::size_t, EvalKeyHash> job_of;
    job_of.reserve(points.size());
    // Sweeps share workloads/mappings/SAF specs across many points;
    // memoize each object's signature by address so it hashes once
    // (one map per type: different-typed objects may share addresses).
    auto memoized = [](auto &memo, const auto *ptr) {
        auto [it, inserted] = memo.emplace(ptr, 0);
        if (inserted) {
            it->second = ptr->signature();
        }
        return it->second;
    };
    std::unordered_map<const Workload *, std::uint64_t> workload_sigs;
    std::unordered_map<const Mapping *, std::uint64_t> mapping_sigs;
    std::unordered_map<const SafSpec *, std::uint64_t> saf_sigs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const EvalPoint &p = points[i];
        if (!p.workload || !p.mapping || !p.safs) {
            SL_FATAL("EvalPoint ", i, " has a null component");
        }
        const EvalKey key{engine_.signature(),
                          memoized(workload_sigs, p.workload),
                          memoized(mapping_sigs, p.mapping),
                          memoized(saf_sigs, p.safs)};
        auto [it, inserted] = job_of.emplace(key, jobs.size());
        if (inserted) {
            Job &job = jobs.emplace_back();
            job.key = key;
            job.hash = key.hash();
            job.point = &p;
        }
        point_to_job[i] = it->second;
    }

    // 2. Probe the result cache once per job, group the misses by
    //    Step-1 prefix and order them group by group, so a chunk of
    //    the fan-out mostly shares one dense analysis.
    std::vector<std::size_t> misses;
    misses.reserve(jobs.size());
    std::unordered_map<DenseKey, std::size_t, DenseKeyHash> group_of;
    group_of.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        Job &job = jobs[j];
        job.result = cache_->findResult(job.key, job.hash);
        if (!job.result) {
            job.group = group_of.emplace(job.key.densePrefix(),
                                         group_of.size())
                            .first->second;
            misses.push_back(j);
        }
    }
    std::sort(misses.begin(), misses.end(),
              [&](std::size_t a, std::size_t b) {
                  return jobs[a].group < jobs[b].group;
              });
    std::vector<DenseGroup> groups(group_of.size());

    if (stats) {
        stats->points = static_cast<std::int64_t>(points.size());
        stats->unique_points = static_cast<std::int64_t>(jobs.size());
        stats->dense_groups = static_cast<std::int64_t>(groups.size());
    }

    // 3. Evaluate every miss in one fan-out over the persistent pool.
    //    Workers write only their own job slot, and a group only
    //    under its lock. A FatalError stays on its point (from
    //    Step 1, on its whole group); any other exception aborts the
    //    batch.
    parallel::parallelFor(
        threadCount(misses.size()), misses.size(), [&](std::size_t m) {
            Job &job = jobs[misses[m]];
            DenseGroup &group = groups[job.group];
            const EvalPoint &p = *job.point;
            group.resolve(engine_, *cache_, job.key.densePrefix(), p);
            if (!group.dense) {
                job.error = group.error;
                return;
            }
            try {
                job.result = std::make_shared<const EvalResult>(
                    engine_.evaluateFromDense(*p.workload, *p.mapping,
                                              *p.safs, *group.dense));
            } catch (const FatalError &err) {
                job.error = err.what();
            }
        });

    // 4. Merge the fresh entries into the cache shards in bulk.
    std::vector<EvalCache::DenseEntry> fresh_dense;
    for (const DenseGroup &group : groups) {
        if (group.computed) {
            fresh_dense.push_back({group.key, group.hash, group.dense});
        }
    }
    cache_->storeDenses(std::move(fresh_dense));
    std::vector<EvalCache::ResultEntry> fresh_results;
    fresh_results.reserve(misses.size());
    for (std::size_t j : misses) {
        if (jobs[j].result) {
            fresh_results.push_back(
                {jobs[j].key, jobs[j].hash, jobs[j].result});
        }
    }
    cache_->storeResults(std::move(fresh_results));

    // 5. Scatter the deduplicated results back to input order.
    first_failure = points.size();
    std::vector<EvalResult> results;
    results.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Job &job = jobs[point_to_job[i]];
        if (job.result) {
            results.push_back(*job.result);
            continue;
        }
        first_failure = std::min(first_failure, i);
        EvalResult bad;
        bad.valid = false;
        bad.invalid_reason = job.error;
        results.push_back(std::move(bad));
    }
    return results;
}

std::vector<EvalResult>
BatchEvaluator::evaluateBatch(const std::vector<EvalPoint> &points,
                              BatchStats *stats) const
{
    std::size_t failed = 0;
    std::vector<EvalResult> results = evaluatePoints(points, stats, failed);
    if (failed < results.size()) {
        throw FatalError(results[failed].invalid_reason);
    }
    return results;
}

std::vector<EvalResult>
BatchEvaluator::evaluateMappings(
    const Workload &workload,
    const std::vector<const Mapping *> &mappings, const SafSpec &safs,
    BatchStats *stats) const
{
    std::vector<EvalPoint> points;
    points.reserve(mappings.size());
    for (const Mapping *mapping : mappings) {
        points.push_back({&workload, mapping, &safs});
    }
    std::size_t failed = 0;
    return evaluatePoints(points, stats, failed);
}

} // namespace sparseloop
