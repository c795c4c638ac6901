/**
 * @file
 * Mapspace-search driver: pulls candidate batches from a
 * `SearchStrategy`, evaluates them through `BatchEvaluator`, and
 * reduces deterministically to the best valid mapping.
 */

#include "mapper/mapper.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace sparseloop {

namespace {

/** Capacity-dominance pruning is only provable against dense
 *  footprints; a format SAF can compress a kept tile below it, so the
 *  pass is forced off whenever formats are in play. */
MapSpaceOptions
resolveMapSpaceOptions(MapSpaceOptions opts, const SafSpec &safs)
{
    opts.prune_capacity_tilings =
        opts.prune_capacity_tilings && safs.formats.empty();
    return opts;
}

} // namespace

Mapper::Mapper(const Workload &workload, const Architecture &arch,
               const SafSpec &safs, MapperOptions options,
               const MapspaceConstraints &constraints)
    : workload_(workload), arch_(arch), safs_(safs), options_(options),
      space_(std::make_unique<MapSpace>(
          workload_, arch_, constraints,
          resolveMapSpaceOptions(options_.mapspace, safs)))
{
}

MapperResult
Mapper::search() const
{
    return searchWithThreads(1);
}

MapperResult
Mapper::searchWithThreads(int num_threads) const
{
    MapperResult result;
    result.mapspace_size = space_->size();
    result.prune_stats = space_->pruneStats();
    if (space_->empty()) {
        SL_WARN("mapper: the constraints prune the mapspace to ",
                "nothing; no candidate can be generated");
        result.status = SearchStatus::kEmptyMapSpace;
        result.strategy = "none";
        return result;
    }

    SearchTuning tuning;
    tuning.hybrid_warmup = options_.hybrid_warmup;
    tuning.annealing = options_.annealing;
    tuning.genetic = options_.genetic;
    tuning.hierarchical = options_.hierarchical;
    auto strategy = makeSearchStrategy(
        options_.strategy, *space_, options_.seed, options_.samples,
        tuning);
    result.strategy = strategy->name();

    // Warm starts: re-rank the pool's elites under this search's
    // objective spec, re-encode them into the pruned space (elites
    // from incompatible design points fail to encode and are
    // skipped), and seed the strategy.
    if (options_.warm_start) {
        std::vector<MapSpace::Point> starts;
        for (const Mapping &elite :
             options_.warm_start->elites(options_.objective)) {
            if (auto point = space_->encode(elite)) {
                starts.push_back(*std::move(point));
            }
        }
        result.warm_start_candidates =
            static_cast<std::int64_t>(starts.size());
        if (!starts.empty()) {
            strategy->warmStart(starts);
        }
    }

    BatchEvaluatorOptions bopts;
    bopts.num_threads = num_threads;
    BatchEvaluator evaluator(Engine(arch_), options_.cache, bopts);

    const std::int64_t budget = options_.samples;
    const int batch_max = std::max(1, options_.batch_size);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const ObjectiveSpec &spec = options_.objective;
    ParetoArchive archive(spec.frontMetrics(),
                          options_.pareto_capacity);
    MetricVector best_metrics;
    std::int64_t best_index = -1;

    while (result.candidates_evaluated < budget) {
        const int want = static_cast<int>(std::min<std::int64_t>(
            batch_max, budget - result.candidates_evaluated));
        std::vector<SearchCandidate> batch = strategy->propose(want);
        if (batch.empty()) {
            break;  // strategy exhausted (e.g. full exhaustive pass)
        }

        std::vector<const Mapping *> mappings;
        mappings.reserve(batch.size());
        for (const SearchCandidate &c : batch) {
            mappings.push_back(&c.mapping);
        }
        std::vector<EvalResult> evals =
            evaluator.evaluateMappings(workload_, mappings, safs_);

        std::vector<double> objectives(batch.size(), kInf);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            ++result.candidates_evaluated;
            if (!evals[i].valid) {
                continue;
            }
            ++result.candidates_valid;
            const MetricVector metrics = MetricVector::of(evals[i]);
            objectives[i] = spec.scalarize(metrics);
            // Candidates reach the archive in proposal order at every
            // batch size and thread count, so the front is as
            // deterministic as the incumbent.
            archive.insert(batch[i].mapping, metrics, batch[i].index);
            // (objective, proposal index) lexicographic minimum under
            // the spec's shared total order: the same winner a
            // sequential first-strictly-better scan keeps,
            // independent of batch size and thread count.
            if (!result.found ||
                spec.better(metrics, batch[i].index, best_metrics,
                            best_index)) {
                result.found = true;
                result.mapping = batch[i].mapping;
                result.eval = evals[i];
                best_metrics = metrics;
                best_index = batch[i].index;
            }
        }
        strategy->observe(batch, objectives);
    }

    result.pareto_front = archive.takeEntries();
    if (result.found) {
        result.status = SearchStatus::kFound;
        if (options_.warm_start) {
            options_.warm_start->record(result.mapping, best_metrics,
                                        spec.scalarize(best_metrics));
        }
    } else {
        result.status = SearchStatus::kNoValidCandidate;
        if (result.candidates_evaluated > 0) {
            SL_WARN("mapper: all ", result.candidates_evaluated,
                    " evaluated candidates were invalid (strategy ",
                    result.strategy, "); the architecture likely ",
                    "cannot hold any tiling of this workload");
        }
    }
    return result;
}

} // namespace sparseloop
