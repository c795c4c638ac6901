/**
 * @file
 * Span recorder and replay-based step attribution.
 */

#include "trace.hh"

#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "dataflow/dense_traffic.hh"
#include "microarch/microarch_model.hh"
#include "sparse/sparse_analysis.hh"

namespace slbench {

using namespace sparseloop;

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

bool
isTraceSpan(const char *name)
{
    return std::string(name).rfind("trace.", 0) == 0;
}

} // namespace

int
Tracer::open(const char *name)
{
    const int id = static_cast<int>(spans_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, nowNs(), 0, parent, op_});
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end_ns = nowNs();
    stack_.pop_back();
}

void
Tracer::append(const Tracer &other)
{
    const auto base = static_cast<std::int32_t>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0) {
            s.parent += base;
        }
        spans_.push_back(s);
    }
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (name == s.name) {
            sum += s.seconds();
        }
    }
    return sum;
}

double
Tracer::opWall(std::size_t first) const
{
    double sum = 0.0;
    for (std::size_t i = first; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (std::string("op") == s.name) {
            sum += s.seconds();
        } else if (isTraceSpan(s.name)) {
            sum -= s.seconds();
        }
    }
    return sum;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    for (const Span &s : spans_) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                     "%lld, \"parent\": %d, \"op\": %d}\n",
                     s.name, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.parent, s.op);
    }
    return std::fclose(f) == 0;
}

StepReplay::StepReplay(std::uint64_t seed)
    : rng_(mixSeed(seed ^ 0x5EED5A3D1EULL)),
      scratch_value_(std::make_shared<const EvalResult>())
{
}

bool
StepReplay::sampleNext()
{
    return rng_() % 8 == 0;
}

StepReplay::Plan
StepReplay::plan(const BatchEvaluator &evaluator,
                 const std::vector<EvalPoint> &points)
{
    // Mirrors evaluateBatch: dedupe by key, look each distinct key up
    // once, and look up the Step-1 prefix once per group of missed
    // keys. Lookups do not change the cache's contents, only its
    // counters, which the probe_* members let callers correct.
    Plan plan;
    const EvalCache &cache = evaluator.cache();
    std::unordered_set<EvalKey, EvalKeyHash> seen;
    std::unordered_set<DenseKey, DenseKeyHash> groups;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const EvalPoint &p = points[i];
        const EvalKey key = EvalKey::of(evaluator.engine(), *p.workload,
                                        *p.mapping, *p.safs);
        if (!seen.insert(key).second) {
            continue;
        }
        plan.unique.push_back(i);
        if (cache.findResult(key)) {
            ++probe_result_hits;
            continue;
        }
        ++probe_result_misses;
        plan.computed.push_back(i);
        char runs_step1 = 0;
        if (groups.insert(key.densePrefix()).second) {
            if (cache.findDense(key.densePrefix())) {
                ++probe_dense_hits;
            } else {
                ++probe_dense_misses;
                runs_step1 = 1;
            }
        }
        plan.runs_step1.push_back(runs_step1);
    }
    return plan;
}

void
StepReplay::replay(const BatchEvaluator &evaluator,
                   const std::vector<EvalPoint> &points,
                   const std::vector<EvalResult> &results,
                   const Plan &plan, double wall_s, double one_thread_s)
{
    const Engine &engine = evaluator.engine();
    const Architecture &arch = engine.architecture();

    // Keys, built the way evaluateBatch builds them: each workload,
    // mapping and SAF-spec object is signed once per batch, and every
    // key is hashed once.
    auto memoized = [](auto &memo, const auto *ptr) {
        auto [it, inserted] = memo.emplace(ptr, 0);
        if (inserted) {
            it->second = ptr->signature();
        }
        return it->second;
    };
    Clock::time_point t0 = Clock::now();
    std::unordered_map<const Workload *, std::uint64_t> workload_sigs;
    std::unordered_map<const Mapping *, std::uint64_t> mapping_sigs;
    std::unordered_map<const SafSpec *, std::uint64_t> saf_sigs;
    std::vector<EvalKey> keys(points.size());
    std::vector<std::uint64_t> hashes(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const EvalPoint &p = points[i];
        keys[i] = {engine.signature(), memoized(workload_sigs, p.workload),
                   memoized(mapping_sigs, p.mapping),
                   memoized(saf_sigs, p.safs)};
        hashes[i] = keys[i].hash();
    }
    Clock::time_point t1 = Clock::now();
    const double key_s = secondsBetween(t0, t1);

    t0 = Clock::now();
    std::int64_t probes = 0;
    for (std::size_t i : plan.unique) {
        scratch_.findResult(keys[i], hashes[i]);
        ++probes;
    }
    for (std::size_t c = 0; c < plan.computed.size(); ++c) {
        if (plan.runs_step1[c]) {
            const DenseKey dense = keys[plan.computed[c]].densePrefix();
            scratch_.findDense(dense, dense.hash());
            ++probes;
        }
    }
    const double probe_s = secondsSince(t0);

    double step1_s = 0.0, step2_s = 0.0, step3_s = 0.0;
    for (std::size_t c = 0; c < plan.computed.size(); ++c) {
        const std::size_t i = plan.computed[c];
        const EvalPoint &p = points[i];
        DenseTraffic dense;
        if (plan.runs_step1[c]) {
            t0 = Clock::now();
            dense = NestAnalysis(*p.workload, arch, *p.mapping).analyze();
            step1_s += secondsSince(t0);
        } else {
            // The batch took this Step 1 from the cache or from another
            // point of its group; rebuild it untimed.
            dense = NestAnalysis(*p.workload, arch, *p.mapping).analyze();
        }
        t0 = Clock::now();
        SparseTraffic sparse =
            SparseAnalysis(*p.workload, arch, *p.mapping, *p.safs)
                .analyze(dense);
        t1 = Clock::now();
        // The batch hands Step 3 a shared, cached Step-1 result, so it
        // copies it; pass an lvalue to copy likewise.
        EvalResult replayed =
            MicroArchModel(arch, engine.energyModel())
                .evaluate(std::move(sparse), dense,
                          engine.options().check_capacity);
        step2_s += secondsBetween(t0, t1);
        step3_s += secondsSince(t1);
        if (!bitIdentical(replayed, results[i])) {
            ++totals_.mismatches;
        }
        scratch_.storeResult(keys[i], hashes[i], scratch_value_);
    }

    const double replayed_s = key_s + probe_s + step1_s + step2_s + step3_s;
    const double scale = one_thread_s > 0.0 ? wall_s / one_thread_s : 1.0;
    totals_.key_s += key_s;
    totals_.probe_s += probe_s;
    totals_.step1_s += step1_s;
    totals_.step2_s += step2_s;
    totals_.step3_s += step3_s;
    totals_.keyed += static_cast<std::int64_t>(points.size());
    totals_.probed += probes;
    totals_.computed += static_cast<std::int64_t>(plan.computed.size());
    totals_.points += static_cast<std::int64_t>(points.size());
    totals_.sampled_wall_s += wall_s;
    totals_.attributed_s += replayed_s * scale;
}

namespace {

double
perMicro(double seconds, std::int64_t count)
{
    return count > 0 ? 1e6 * seconds / static_cast<double>(count) : 0.0;
}

} // namespace

double
fillModelLayers(const StepReplay::Totals &t, double batch_total_s,
                std::int64_t points_total, RunResult &result)
{
    auto &l = result.layers;
    l["model.key_us"] = perMicro(t.key_s, t.keyed);
    l["model.cache.probe_us"] = perMicro(t.probe_s, t.probed);
    l["dataflow.step1_us"] = perMicro(t.step1_s, t.computed);
    l["sparse.step2_us"] = perMicro(t.step2_s, t.computed);
    l["microarch.step3_us"] = perMicro(t.step3_s, t.computed);
    l["model.batch.bookkeeping_us"] = perMicro(
        std::max(0.0, t.sampled_wall_s - t.attributed_s), t.points);
    l["model.batch.us_per_point"] = perMicro(batch_total_s, points_total);
    if (t.mismatches > 0) {
        result.reject(std::to_string(t.mismatches) +
                    " replayed step results differ from the batch's");
    }
    const double attributed_frac =
        t.sampled_wall_s > 0.0 ? t.attributed_s / t.sampled_wall_s : 1.0;
    return batch_total_s * std::max(1.0, attributed_frac);
}

void
recordCoverage(double covered_s, double op_wall_s, RunResult &result)
{
    const double coverage = op_wall_s > 0.0 ? covered_s / op_wall_s : 0.0;
    result.layers["trace.coverage"] = coverage;
    if (coverage < 0.9 || coverage > 1.1) {
        result.reject("trace.coverage " + std::to_string(coverage) +
                    " outside [0.9, 1.1]");
    }
}

void
writeSpans(const Options &opt, const Tracer &tracer, RunResult &result)
{
    const std::string path =
        opt.work_dir + "/spans-" + opt.workload + ".jsonl";
    if (!tracer.write(path)) {
        result.reject("cannot write " + path);
    }
}

} // namespace slbench
