/**
 * @file
 * Tracing for the benchmark's traced runs: in-memory spans recorded
 * around the benchmark's own calls into each src/ module, and the
 * replay that splits batch-evaluation time into key hashing, cache
 * probe and the three modeling steps.
 *
 * Spans named `trace.*` are the tracer's own work (planning and
 * replaying sampled batches). They are excluded from operation wall
 * time and from every layer sum.
 *
 * Step attribution: the library has no internal timers, so the time a
 * `BatchEvaluator` call spends in each step is measured by replaying a
 * seeded 1-in-8 sample of batches outside the batch's span. Before a
 * sampled batch, `plan` probes the real cache to learn which points the
 * batch will compute (the probe counts are kept so callers can take
 * them out of cache statistics). After it, `replay` times key
 * construction, the cache probe (on a scratch cache) and Step 1, 2 and
 * 3 on exactly those points, and checks each replayed result against
 * the batch's own. Replayed times are single-threaded; for a batch
 * that ran on several threads they are scaled by the batch's wall time
 * over its 1-thread wall time.
 */

#ifndef SPARSELOOP_BENCHMARK_TRACE_HH
#define SPARSELOOP_BENCHMARK_TRACE_HH

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bench.hh"
#include "model/batch_evaluator.hh"

namespace slbench {

/** In-memory span recorder for one thread. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        /** Index of the enclosing span, -1 for a root. */
        std::int32_t parent;
        /** Operation the span belongs to. */
        std::int32_t op;

        double seconds() const { return 1e-9 * (end_ns - start_ns); }
    };

    /** Open a span nested in the innermost open one; returns its id. */
    int open(const char *name);
    void close(int id);
    /** Operation id stamped on spans opened from now on. */
    void setOp(int op) { op_ = op; }

    const std::vector<Span> &spans() const { return spans_; }
    /** Append another thread's spans (re-basing parent ids). */
    void append(const Tracer &other);

    /** Summed duration of the spans named @p name. */
    double total(const std::string &name) const;
    /** Summed duration of the `op` spans minus the `trace.*` spans,
     *  over the spans from index @p first on. */
    double opWall(std::size_t first = 0) const;

    /** Write one JSON line per span to @p path (false on I/O error). */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int op_ = -1;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.open(name))
    {}
    ~ScopedSpan() { tracer_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/** Replay-based step attribution of sampled batches (file comment). */
class StepReplay
{
  public:
    /** Which points of a batch the batch itself will compute. */
    struct Plan
    {
        /** First occurrence of each distinct key. */
        std::vector<std::size_t> unique;
        /** Unique points the result cache does not hold. */
        std::vector<std::size_t> computed;
        /** Per computed point: it runs its group's Step 1. */
        std::vector<char> runs_step1;
    };

    struct Totals
    {
        double key_s = 0.0, probe_s = 0.0;
        double step1_s = 0.0, step2_s = 0.0, step3_s = 0.0;
        std::int64_t keyed = 0;     ///< points keyed
        std::int64_t probed = 0;    ///< cache lookups replayed
        std::int64_t computed = 0;  ///< points that ran Steps 2-3
        std::int64_t points = 0;    ///< points of the sampled batches
        /** Wall time of the sampled batches as traced. */
        double sampled_wall_s = 0.0;
        /** Replayed time scaled to that wall time (see file comment). */
        double attributed_s = 0.0;
        /** Replayed results that differ from the batch's. */
        std::int64_t mismatches = 0;
    };

    explicit StepReplay(std::uint64_t seed);

    /** Seeded 1-in-8 draw: should the next batch be replayed? */
    bool sampleNext();

    Plan plan(const sparseloop::BatchEvaluator &evaluator,
              const std::vector<sparseloop::EvalPoint> &points);

    /**
     * Time the planned points' steps. @p wall_s is the batch's traced
     * wall time and @p one_thread_s its wall time on one thread (equal
     * for a 1-thread batch).
     */
    void replay(const sparseloop::BatchEvaluator &evaluator,
                const std::vector<sparseloop::EvalPoint> &points,
                const std::vector<sparseloop::EvalResult> &results,
                const Plan &plan, double wall_s, double one_thread_s);

    const Totals &totals() const { return totals_; }

    /** Real-cache lookups `plan` made, for correcting cache stats. */
    std::int64_t probe_result_hits = 0, probe_result_misses = 0;
    std::int64_t probe_dense_hits = 0, probe_dense_misses = 0;

  private:
    std::mt19937_64 rng_;
    /** Stands in for the real cache during probe timing. Every entry
     *  shares one value, so it costs a key and a pointer. */
    sparseloop::EvalCache scratch_;
    std::shared_ptr<const sparseloop::EvalResult> scratch_value_;
    Totals totals_;
};

/**
 * Fill the `model.*`, `dataflow.*`, `sparse.*` and `microarch.*`
 * layers from a replay and the run's batch totals. Returns the batch
 * time the layers account for: the batch time itself, or more when
 * the replay attributes more than the batches took (which shows up in
 * `trace.coverage`).
 */
double fillModelLayers(const StepReplay::Totals &replay,
                       double batch_total_s, std::int64_t points_total,
                       RunResult &result);

/** Record `trace.coverage`, failing the run outside [0.9, 1.1]. */
void recordCoverage(double covered_s, double op_wall_s, RunResult &result);

/** Write @p tracer's spans to `<work_dir>/spans-<workload>.jsonl`,
 *  replacing the last traced run's (the run fails if the file cannot
 *  be written). */
void writeSpans(const Options &opt, const Tracer &tracer,
                RunResult &result);

} // namespace slbench

#endif // SPARSELOOP_BENCHMARK_TRACE_HH
