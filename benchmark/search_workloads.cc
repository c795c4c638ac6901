/**
 * @file
 * The search workloads. One operation is one single-threaded annealing
 * search, `Mapper` constructor included.
 *
 *  - search-dnn: the paper's per-layer methodology (Sec. 6.1). 24 conv
 *    layers (AlexNet, VGG16, representative ResNet50) x {Eyeriss,
 *    Eyeriss v2 PE, SCNN} x {shipped densities, weights pruned to
 *    0.35}, 2000 samples each. Huge mapspaces keep the result cache
 *    mostly cold, so the modeling steps do real work.
 *  - search-codesign: a Fig. 17-style sweep (Sec. 7.2). spMspM at four
 *    sizes x seven densities x the four dataflow x SAF designs, 5000
 *    samples each; each (size, density) row shares an EvalCache and
 *    each size a WarmStartPool. Small mapspaces make annealing revisit
 *    points, so key hashing, the cache probe and the driver dominate.
 *
 * A pass visits every search once. The seed shuffles search-dnn's
 * layer order and derives every search's seed; the pass is laid out so
 * that any prefix of it mixes the designs evenly. The sample counts
 * are set so that an untraced run times two passes in about 15 s.
 *
 * A traced run drives each search through the same public calls
 * `Mapper::searchWithThreads` makes, with spans around them, then
 * re-runs every search through `Mapper` and fails unless the best
 * mapping, its evaluation and the Pareto front are bit-identical.
 */

#include <deque>
#include <limits>
#include <optional>
#include <random>

#include "apps/designs.hh"
#include "apps/dnn_models.hh"
#include "bench.hh"
#include "mapper/mapper.hh"
#include "trace.hh"

namespace slbench {
namespace {

using namespace sparseloop;

/** One search of a workload's pass. */
struct SearchSpec
{
    const Workload *workload = nullptr;
    const apps::DesignPoint *design = nullptr;
    /** EDP of the design zoo's own mapping; 0 when it is invalid. */
    double zoo_edp = 0.0;
    /** Searches of one group share a WarmStartPool (-1: none). */
    int pool_group = -1;
    /** Searches of one group share an EvalCache (-1: none). */
    int cache_group = -1;
};

/** The inputs of a search workload. Deques keep the addresses that
 *  `SearchSpec` and `Mapper` hold stable. */
struct SearchSetup
{
    std::deque<Workload> workloads;
    std::deque<apps::DesignPoint> designs;
    std::vector<SearchSpec> pass;
    int samples = 0;
    std::uint64_t seed_base = 0;

    void add(const Workload &workload, apps::DesignPoint design,
             int pool_group, int cache_group)
    {
        const apps::DesignPoint &d = designs.emplace_back(std::move(design));
        const EvalResult zoo =
            Engine(d.arch).evaluate(workload, d.mapping, d.safs);
        pass.push_back({&workload, &d, zoo.valid ? zoo.edp() : 0.0,
                        pool_group, cache_group});
    }
};

std::unique_ptr<SearchSetup>
makeDnnSetup(const Options &opt)
{
    auto s = std::make_unique<SearchSetup>();
    s->samples = opt.smoke ? 1000 : 2000;
    s->seed_base = mixSeed(opt.seed);
    std::vector<ConvLayerShape> layers = apps::alexnetConvLayers();
    for (const auto &l : apps::vgg16ConvLayers()) {
        layers.push_back(l);
    }
    for (const auto &l : apps::resnet50RepresentativeLayers()) {
        layers.push_back(l);
    }
    std::mt19937_64 rng(s->seed_base);
    std::shuffle(layers.begin(), layers.end(), rng);
    if (opt.smoke) {
        layers.resize(1);
    }
    using Builder = apps::DesignPoint (*)(const Workload &);
    const Builder builders[] = {apps::buildEyeriss, apps::buildEyerissV2Pe,
                                apps::buildScnn};
    // One block of six searches per layer, so every prefix of the pass
    // is balanced across designs and density variants.
    for (const ConvLayerShape &layer : layers) {
        const ConvLayerShape pruned =
            apps::withDensities({layer}, 0.35, layer.input_density).front();
        for (const ConvLayerShape *shape : {&layer, &pruned}) {
            const Workload &w = s->workloads.emplace_back(makeConv(*shape));
            for (Builder build : builders) {
                s->add(w, build(w), -1, -1);
            }
        }
    }
    return s;
}

std::unique_ptr<SearchSetup>
makeCodesignSetup(const Options &opt)
{
    using DF = apps::CoDesignDataflow;
    using SF = apps::CoDesignSafs;
    const std::pair<DF, SF> combos[] = {{DF::ReuseABZ, SF::InnermostSkip},
                                        {DF::ReuseABZ, SF::HierarchicalSkip},
                                        {DF::ReuseAZ, SF::InnermostSkip},
                                        {DF::ReuseAZ, SF::HierarchicalSkip}};
    std::vector<std::int64_t> sizes{256, 512, 1024, 2048};
    std::vector<double> densities{1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3, 0.5};
    if (opt.smoke) {
        sizes = {256};
        densities = {1e-3, 0.3};
    }
    auto s = std::make_unique<SearchSetup>();
    s->samples = opt.smoke ? 2000 : 5000;
    s->seed_base = mixSeed(opt.seed);
    int row = 0;
    for (std::size_t size = 0; size < sizes.size(); ++size) {
        const std::int64_t n = sizes[size];
        for (double density : densities) {
            Workload &w = s->workloads.emplace_back(makeMatmul(n, n, n));
            bindUniformDensities(w, {{"A", density}, {"B", density}});
            for (const auto &[df, sf] : combos) {
                s->add(w, apps::buildCoDesign(w, df, sf),
                       static_cast<int>(size), row);
            }
            ++row;
        }
    }
    return s;
}

/** Search @p i of a run, counting across passes. */
const SearchSpec &
specOf(const SearchSetup &setup, std::int64_t i)
{
    return setup.pass[static_cast<std::size_t>(
        i % static_cast<std::int64_t>(setup.pass.size()))];
}

/**
 * The pools and caches the current pass's groups share. Every pass
 * starts them fresh and reuses pass 0's seeds, so pass k repeats pass
 * 0 exactly.
 */
class GroupState
{
  public:
    /** Options of search @p i (counting across passes). */
    MapperOptions optionsFor(const SearchSetup &setup, std::int64_t i)
    {
        const SearchSpec &spec = specOf(setup, i);
        const auto size = static_cast<std::int64_t>(setup.pass.size());
        const std::int64_t pass = i / size;
        MapperOptions o;
        o.samples = setup.samples;
        o.seed = setup.seed_base + static_cast<std::uint64_t>(i % size);
        o.strategy = SearchStrategyKind::Annealing;
        if (spec.pool_group >= 0) {
            if (pass != pool_pass_ || spec.pool_group != pool_group_) {
                pool_ = std::make_shared<WarmStartPool>();
                pool_pass_ = pass;
                pool_group_ = spec.pool_group;
            }
            o.warm_start = pool_;
        }
        if (spec.cache_group >= 0) {
            if (pass != cache_pass_ || spec.cache_group != cache_group_) {
                cache_ = std::make_shared<EvalCache>();
                cache_pass_ = pass;
                cache_group_ = spec.cache_group;
            }
            o.cache = cache_;
        }
        return o;
    }

  private:
    std::shared_ptr<WarmStartPool> pool_;
    std::shared_ptr<EvalCache> cache_;
    std::int64_t pool_pass_ = -1, cache_pass_ = -1;
    int pool_group_ = -1, cache_group_ = -1;
};

MapperResult
mapperSearch(const SearchSpec &spec, const MapperOptions &options)
{
    return Mapper(*spec.workload, spec.design->arch, spec.design->safs,
                  options)
        .searchWithThreads(1);
}

RunResult
timedSearches(const Options &opt, const SearchSetup &setup,
              RunResult result)
{
    struct Outcome
    {
        bool found;
        Mapping mapping;
        EvalResult eval;
    };
    std::vector<Outcome> outcomes;
    GroupState groups;
    auto run = [&](std::int64_t i) {
        const SearchSpec &spec = specOf(setup, i);
        const MapperOptions options = groups.optionsFor(setup, i);
        const Clock::time_point t0 = Clock::now();
        MapperResult r = mapperSearch(spec, options);
        const double seconds = secondsSince(t0);
        outcomes.push_back({r.found, std::move(r.mapping),
                            std::move(r.eval)});
        return std::make_pair(seconds, r.candidates_evaluated);
    };

    const auto passes = static_cast<std::int64_t>(setup.pass.size());
    std::vector<double> seconds;
    double pass_evals = 0.0;
    const Clock::time_point start = Clock::now();
    std::int64_t i = 0;
    while (i / passes < kMinPasses ||
           anotherPass(i / passes, secondsSince(start), opt.seconds)) {
        for (const std::int64_t end = i + passes; i < end; ++i) {
            const auto [op_s, candidates] = run(i);
            seconds.push_back(op_s);
            if (i < passes) {
                pass_evals += static_cast<double>(candidates);
            }
        }
    }
    recordFastestPasses(seconds, static_cast<std::size_t>(passes),
                        pass_evals, result);
    result.peak_rss_mb = peakRssMb();

    std::vector<double> ratios;
    for (std::int64_t k = 0; k < i; ++k) {
        const SearchSpec &spec = specOf(setup, k);
        const Outcome &o = outcomes[static_cast<std::size_t>(k)];
        ++result.attempted;
        if (!o.found) {
            result.fail("search " + std::to_string(k) +
                        " found no valid mapping");
            continue;
        }
        // Latencies compare passes, so every pass must redo the same
        // searches.
        const Outcome &first = outcomes[static_cast<std::size_t>(k % passes)];
        if (o.mapping != first.mapping || !bitIdentical(o.eval, first.eval)) {
            result.fail("search " + std::to_string(k) +
                        " differs from the same search in the first pass");
        }
        const EvalResult fresh = Engine(spec.design->arch)
                                     .evaluate(*spec.workload, o.mapping,
                                               spec.design->safs);
        if (!bitIdentical(o.eval, fresh)) {
            result.fail("search " + std::to_string(k) +
                        ": returned eval differs from Engine::evaluate");
        }
        if (k < passes && spec.zoo_edp > 0.0) {
            ratios.push_back(o.eval.edp() / spec.zoo_edp);
        }
    }
    result.best_edp_ratio = geomean(ratios);
    return result;
}

/** Counts a traced search collects beside its spans. */
struct SearchTally
{
    std::int64_t searches = 0, candidates = 0, valid = 0;
    std::int64_t warm_seeds = 0;
    double best_at_sum = 0.0;
    std::int64_t points = 0, unique = 0, dense_groups = 0;
    std::int64_t result_hits = 0, result_lookups = 0;
    std::int64_t dense_hits = 0, dense_lookups = 0;
};

/**
 * `Mapper(...).searchWithThreads(1)` spelled out as the public calls
 * it makes (mapper/mapper.cc), with a span around each.
 */
MapperResult
tracedSearch(Tracer &tr, StepReplay &replay, SearchTally &tally,
             const SearchSpec &search, const MapperOptions &options)
{
    const Workload &workload = *search.workload;
    const Architecture &arch = search.design->arch;
    const SafSpec &safs = search.design->safs;
    MapperResult result;

    std::optional<MapSpace> space;
    {
        ScopedSpan span(tr, "mapper.mapspace.build");
        // As in Mapper: capacity-dominance pruning is only provable
        // against dense footprints, so format SAFs switch it off.
        MapSpaceOptions mopts = options.mapspace;
        mopts.prune_capacity_tilings =
            mopts.prune_capacity_tilings && safs.formats.empty();
        space.emplace(workload, arch, MapspaceConstraints{}, mopts);
    }
    result.mapspace_size = space->size();
    result.prune_stats = space->pruneStats();
    if (space->empty()) {
        result.status = SearchStatus::kEmptyMapSpace;
        result.strategy = "none";
        return result;
    }

    std::unique_ptr<SearchStrategy> strategy;
    {
        ScopedSpan span(tr, "mapper.strategy.make");
        SearchTuning tuning;
        tuning.hybrid_warmup = options.hybrid_warmup;
        tuning.annealing = options.annealing;
        tuning.genetic = options.genetic;
        tuning.hierarchical = options.hierarchical;
        strategy = makeSearchStrategy(options.strategy, *space,
                                      options.seed, options.samples,
                                      tuning);
    }
    result.strategy = strategy->name();
    const ObjectiveSpec &spec = options.objective;
    if (options.warm_start) {
        ScopedSpan span(tr, "mapper.warm_start");
        std::vector<MapSpace::Point> starts;
        for (const Mapping &elite : options.warm_start->elites(spec)) {
            if (auto point = space->encode(elite)) {
                starts.push_back(*std::move(point));
            }
        }
        result.warm_start_candidates =
            static_cast<std::int64_t>(starts.size());
        if (!starts.empty()) {
            strategy->warmStart(starts);
        }
    }

    std::optional<BatchEvaluator> evaluator;
    {
        ScopedSpan span(tr, "model.evaluator.make");
        BatchEvaluatorOptions bopts;
        bopts.num_threads = 1;
        evaluator.emplace(Engine(arch), options.cache, bopts);
    }
    EvalCacheStats before;
    {
        ScopedSpan span(tr, "trace.stats");
        before = evaluator->cache().stats();
    }

    const std::int64_t budget = options.samples;
    const int batch_max = std::max(1, options.batch_size);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    ParetoArchive archive(spec.frontMetrics(), options.pareto_capacity);
    MetricVector best_metrics;
    std::int64_t best_index = -1;
    while (result.candidates_evaluated < budget) {
        const int want = static_cast<int>(std::min<std::int64_t>(
            batch_max, budget - result.candidates_evaluated));
        std::vector<SearchCandidate> batch;
        {
            ScopedSpan span(tr, "mapper.strategy.propose");
            batch = strategy->propose(want);
        }
        if (batch.empty()) {
            break;
        }
        std::vector<const Mapping *> mappings;
        mappings.reserve(batch.size());
        for (const SearchCandidate &c : batch) {
            mappings.push_back(&c.mapping);
        }

        const bool sampled = replay.sampleNext();
        std::vector<EvalPoint> points;
        StepReplay::Plan plan;
        if (sampled) {
            ScopedSpan span(tr, "trace.plan");
            for (const Mapping *m : mappings) {
                points.push_back({&workload, m, &safs});
            }
            plan = replay.plan(*evaluator, points);
        }
        BatchStats stats;
        const int batch_span = tr.open("model.batch");
        std::vector<EvalResult> evals =
            evaluator->evaluateMappings(workload, mappings, safs, &stats);
        tr.close(batch_span);
        tally.points += stats.points;
        tally.unique += stats.unique_points;
        tally.dense_groups += stats.dense_groups;
        if (sampled) {
            ScopedSpan span(tr, "trace.replay");
            const double wall =
                tr.spans()[static_cast<std::size_t>(batch_span)].seconds();
            replay.replay(*evaluator, points, evals, plan, wall, wall);
        }

        std::vector<double> objectives(batch.size(), kInf);
        {
            ScopedSpan span(tr, "mapper.objective");
            for (std::size_t i = 0; i < batch.size(); ++i) {
                ++result.candidates_evaluated;
                if (!evals[i].valid) {
                    continue;
                }
                ++result.candidates_valid;
                const MetricVector metrics = MetricVector::of(evals[i]);
                objectives[i] = spec.scalarize(metrics);
                archive.insert(batch[i].mapping, metrics, batch[i].index);
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
        }
        {
            ScopedSpan span(tr, "mapper.strategy.observe");
            strategy->observe(batch, objectives);
        }
    }

    {
        ScopedSpan span(tr, "mapper.finish");
        result.pareto_front = archive.takeEntries();
        if (result.found) {
            result.status = SearchStatus::kFound;
            if (options.warm_start) {
                options.warm_start->record(result.mapping, best_metrics,
                                           spec.scalarize(best_metrics));
            }
        } else {
            result.status = SearchStatus::kNoValidCandidate;
        }
    }
    {
        ScopedSpan span(tr, "trace.stats");
        const EvalCacheStats after = evaluator->cache().stats();
        tally.result_hits += after.result_hits - before.result_hits;
        tally.result_lookups += after.result_hits + after.result_misses -
                                before.result_hits - before.result_misses;
        tally.dense_hits += after.dense_hits - before.dense_hits;
        tally.dense_lookups += after.dense_hits + after.dense_misses -
                               before.dense_hits - before.dense_misses;
    }
    {
        ScopedSpan span(tr, "model.evaluator.free");
        evaluator.reset();
    }
    {
        ScopedSpan span(tr, "mapper.mapspace.free");
        strategy.reset();
        space.reset();
    }

    ++tally.searches;
    tally.candidates += result.candidates_evaluated;
    tally.valid += result.candidates_valid;
    tally.warm_seeds += result.warm_start_candidates;
    if (result.found && result.candidates_evaluated > 0) {
        tally.best_at_sum += static_cast<double>(best_index + 1) /
                             static_cast<double>(
                                 result.candidates_evaluated);
    }
    return result;
}

bool
sameResult(const MapperResult &a, const MapperResult &b)
{
    if (a.found != b.found || a.status != b.status ||
        a.strategy != b.strategy ||
        a.candidates_evaluated != b.candidates_evaluated ||
        a.candidates_valid != b.candidates_valid ||
        a.warm_start_candidates != b.warm_start_candidates ||
        a.mapping != b.mapping || !bitIdentical(a.eval, b.eval) ||
        a.pareto_front.size() != b.pareto_front.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.pareto_front.size(); ++i) {
        const ParetoEntry &x = a.pareto_front[i];
        const ParetoEntry &y = b.pareto_front[i];
        if (x.index != y.index || x.metrics != y.metrics ||
            x.mapping != y.mapping) {
            return false;
        }
    }
    return true;
}

RunResult
tracedSearches(const Options &opt, const SearchSetup &setup,
               RunResult result)
{
    Tracer tr;
    StepReplay replay(opt.seed);
    SearchTally tally;
    // Each traced search runs beside the same search through Mapper,
    // each with its own group sharing: the bit-identity check, and the
    // untraced time trace.overhead_frac compares against. Which of the
    // two runs first alternates, so drift in the host's speed cancels.
    GroupState traced_groups, mapper_groups;
    double traced_wall = 0.0, mapper_wall = 0.0;
    std::int64_t n = 0;
    const auto passes = static_cast<std::int64_t>(setup.pass.size());
    for (; n % passes != 0 ||
           anotherPass(n / passes, traced_wall, opt.seconds);
         ++n) {
        const SearchSpec &spec = specOf(setup, n);
        MapperResult traced, expected;
        auto runTraced = [&] {
            const MapperOptions options = traced_groups.optionsFor(setup, n);
            tr.setOp(static_cast<int>(n));
            const std::size_t first = tr.spans().size();
            const int op = tr.open("op");
            traced = tracedSearch(tr, replay, tally, spec, options);
            tr.close(op);
            traced_wall += tr.opWall(first);
        };
        auto runMapper = [&] {
            const MapperOptions options = mapper_groups.optionsFor(setup, n);
            const Clock::time_point t0 = Clock::now();
            expected = mapperSearch(spec, options);
            mapper_wall += secondsSince(t0);
        };
        if (n % 2 == 0) {
            runTraced();
            runMapper();
        } else {
            runMapper();
            runTraced();
        }
        ++result.attempted;
        if (!expected.found) {
            result.fail("search " + std::to_string(n) +
                        " found no valid mapping");
        } else if (!sameResult(traced, expected)) {
            result.fail("traced search " + std::to_string(n) +
                        " differs from Mapper::searchWithThreads");
        }
    }

    auto &l = result.layers;
    const double searches = static_cast<double>(tally.searches);
    const auto per = [&](const char *span, double count, double scale) {
        return count > 0.0 ? scale * tr.total(span) / count : 0.0;
    };
    const double candidates = static_cast<double>(tally.candidates);
    l["mapper.mapspace.build_ms"] =
        per("mapper.mapspace.build", searches, 1e3);
    l["mapper.strategy.propose_us"] =
        per("mapper.strategy.propose", candidates, 1e6);
    l["mapper.strategy.observe_us"] =
        per("mapper.strategy.observe", candidates, 1e6);
    l["mapper.objective_us"] = per("mapper.objective", candidates, 1e6);
    const double batch_s = tr.total("model.batch");
    const double op_wall = tr.opWall();
    l["mapper.driver.self_frac"] = ratio(op_wall - batch_s, op_wall);
    l["mapper.valid_frac"] = ratio(tally.valid, candidates);
    l["mapper.best_at_frac"] = ratio(tally.best_at_sum, searches);
    l["mapper.warm_start_seeds"] = ratio(tally.warm_seeds, searches);
    l["model.batch.unique_frac"] = ratio(tally.unique, tally.points);
    l["model.batch.dense_groups_frac"] =
        ratio(tally.dense_groups, tally.unique);
    l["model.cache.result_hit_rate"] = ratio(
        tally.result_hits - replay.probe_result_hits,
        tally.result_lookups - replay.probe_result_hits -
            replay.probe_result_misses);
    l["model.cache.dense_hit_rate"] = ratio(
        tally.dense_hits - replay.probe_dense_hits,
        tally.dense_lookups - replay.probe_dense_hits -
            replay.probe_dense_misses);

    double covered =
        fillModelLayers(replay.totals(), batch_s, tally.points, result);
    for (const char *span :
         {"mapper.mapspace.build", "mapper.strategy.make",
          "mapper.warm_start", "model.evaluator.make",
          "mapper.strategy.propose", "mapper.objective",
          "mapper.strategy.observe", "mapper.finish",
          "model.evaluator.free", "mapper.mapspace.free"}) {
        covered += tr.total(span);
    }
    recordCoverage(covered, op_wall, result);
    l["trace.overhead_frac"] = ratio(op_wall, mapper_wall) - 1.0;
    writeSpans(opt, tr, result);
    return result;
}

RunResult
runSearches(const Options &opt,
            std::unique_ptr<SearchSetup> (*make)(const Options &))
{
    RunResult result;
    auto setup =
        timedSetups(opt.smoke, [&] { return make(opt); }, result.setup_s);
    return opt.trace ? tracedSearches(opt, *setup, std::move(result))
                     : timedSearches(opt, *setup, std::move(result));
}

} // namespace

RunResult
runSearchDnn(const Options &opt)
{
    return runSearches(opt, makeDnnSetup);
}

RunResult
runSearchCodesign(const Options &opt)
{
    return runSearches(opt, makeCodesignSetup);
}

} // namespace slbench
