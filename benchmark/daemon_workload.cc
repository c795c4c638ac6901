/**
 * @file
 * daemon-replay: `sparseloop_cli serve` in its own process on
 * loopback, driven closed loop by this process's 4 client threads, one
 * connection each. A request is an evaluate-batch of 64 mappings
 * against one of the three standard contexts, drawn with Zipf(1.0)
 * popularity from a seeded pool of 32,768 distinct mappings per
 * context. The 98,304 distinct mappings exceed the daemon's
 * 65,536-entry result cache, so hits, stores and evictions mix. Set-up
 * ends by sending every pool mapping once, so timing starts on a warm
 * daemon, as a long-running one would be.
 *
 * The traced run times half its phase untraced and half traced (the
 * tracing overhead), then replays the traced half's request stream in
 * process twice: through `handleRequest` on a twin registry (dispatch
 * and wire codec time) and through 1-thread `evaluateMappings` (the
 * in-process alternative, and step attribution).
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <tuple>

#include "bench.hh"
#include "mapper/mapspace.hh"
#include "service/client.hh"
#include "service/session.hh"
#include "trace.hh"

extern char **environ;

namespace slbench {
namespace {

using namespace sparseloop;

constexpr int kClients = 4;
constexpr std::size_t kRequestSize = 64;

/** A context as the clients know it, with its mapping pool. */
struct Context
{
    ServiceContextSpec spec;
    std::vector<Mapping> pool;
};

/** Zipf(1.0) ranks over [0, n). */
class Zipf
{
  public:
    explicit Zipf(std::size_t n) : cdf_(n)
    {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            sum += 1.0 / static_cast<double>(i + 1);
            cdf_[i] = sum;
        }
        for (double &c : cdf_) {
            c /= sum;
        }
    }

    std::uint32_t operator()(std::mt19937_64 &rng) const
    {
        const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<std::uint32_t>(
            std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                     static_cast<std::ptrdiff_t>(
                                         cdf_.size() - 1)));
    }

  private:
    std::vector<double> cdf_;
};

/** One request: a context and 64 pool indices. */
struct Request
{
    std::size_t context = 0;
    std::vector<std::uint32_t> picks;
};

/** A request as a client sent it, for the traced run's replays. */
struct SentRequest
{
    Clock::time_point sent;
    Request request;
};

std::vector<Mapping>
mappingsOf(const Context &ctx, const Request &req)
{
    std::vector<Mapping> out;
    out.reserve(req.picks.size());
    for (std::uint32_t i : req.picks) {
        out.push_back(ctx.pool[i]);
    }
    return out;
}

/** The daemon child process. The destructor asks it to shut down and
 *  waits for it, killing it if it does not exit. Its output goes to a
 *  log in the work directory, which is removed when it exits cleanly. */
class DaemonProcess
{
  public:
    explicit DaemonProcess(const std::string &work_dir)
    {
        const std::string stem = work_dir + "/daemon-" +
                                 std::to_string(::getpid());
        const std::string port_file = stem + ".port";
        log_file_ = stem + ".log";
        ::unlink(port_file.c_str());
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         log_file_.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                         STDERR_FILENO);
        std::vector<std::string> args{SPARSELOOP_CLI_PATH, "serve",
                                      "--host", "127.0.0.1",
                                      "--port", "0",
                                      "--port-file", port_file};
        std::vector<char *> argv;
        for (std::string &a : args) {
            argv.push_back(a.data());
        }
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            throw ServiceError("cannot start " + args[0]);
        }
        const Clock::time_point t0 = Clock::now();
        while (port_ == 0) {
            // The daemon writes "<port>\n"; only a complete line counts.
            std::ifstream in(port_file);
            const std::string text((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
            int status = 0;
            if (text.size() > 1 && text.back() == '\n') {
                port_ = std::stoi(text);
            } else if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw ServiceError("daemon exited at start; see " +
                                   log_file_);
            } else if (secondsSince(t0) > 30.0) {
                stop();
                throw ServiceError("daemon did not start within 30 s; "
                                   "see " + log_file_);
            } else {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        }
        ::unlink(port_file.c_str());
    }

    ~DaemonProcess() { stop(); }

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    int port() const { return port_; }

    /** The daemon's peak resident set (VmHWM), in MiB. */
    double peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0) {
                std::istringstream fields(line.substr(6));
                double kib = 0.0;
                fields >> kib;
                return kib / 1024.0;
            }
        }
        return 0.0;
    }

  private:
    /** Ask the daemon to shut down (or signal it when it does not
     *  answer) and wait for it, killing it after 10 s. */
    void stop()
    {
        if (pid_ <= 0) {
            return;
        }
        bool asked = false;
        if (port_ != 0) {
            try {
                ServiceClient client;
                client.connect("127.0.0.1", port_);
                client.shutdownServer();
                asked = true;
            } catch (const std::exception &) {
            }
        }
        if (!asked) {
            ::kill(pid_, SIGTERM);
        }
        const Clock::time_point t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 10.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (asked && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            ::unlink(log_file_.c_str());
        }
        pid_ = -1;
    }

    std::string log_file_;
    pid_t pid_ = -1;
    int port_ = 0;
};

struct DaemonSetup
{
    std::vector<Context> contexts;
    std::unique_ptr<Zipf> zipf;
    double mapspace_s = 0.0;
    double best_edp_ratio = 0.0;
    /** Failed priming requests. */
    std::int64_t prime_failures = 0;
    /** Declared before the clients, so they disconnect first. */
    std::unique_ptr<DaemonProcess> daemon;
    std::vector<ServiceClient> clients;
};

/** The priming pass: every pool mapping once, in request-sized chunks. */
std::vector<Request>
primingRequests(const std::vector<Context> &contexts)
{
    std::vector<Request> out;
    for (std::size_t c = 0; c < contexts.size(); ++c) {
        const auto n = static_cast<std::uint32_t>(contexts[c].pool.size());
        for (std::uint32_t begin = 0; begin < n; begin += kRequestSize) {
            Request req;
            req.context = c;
            for (std::uint32_t i = begin;
                 i < std::min<std::uint32_t>(n, begin + kRequestSize); ++i) {
                req.picks.push_back(i);
            }
            out.push_back(std::move(req));
        }
    }
    return out;
}

std::unique_ptr<DaemonSetup>
makeSetup(const Options &opt)
{
    const std::size_t pool_size = opt.smoke ? 2048 : 32768;
    auto s = std::make_unique<DaemonSetup>();
    for (ServiceContextSpec &spec : standardServiceContexts()) {
        s->contexts.push_back({std::move(spec), {}});
    }
    std::vector<double> mapspace_s(s->contexts.size(), 0.0);
    onThreads(static_cast<int>(s->contexts.size()), [&](int t) {
        const auto c = static_cast<std::size_t>(t);
        Context &ctx = s->contexts[c];
        const Clock::time_point t0 = Clock::now();
        MapSpace space(ctx.spec.workload, ctx.spec.arch);
        mapspace_s[c] = secondsSince(t0);
        // The seeded order is also the Zipf popularity order.
        ctx.pool = drawPool(space, opt.seed * 1000003 + c, pool_size);
    });
    for (double t : mapspace_s) {
        s->mapspace_s += t;
    }
    s->zipf = std::make_unique<Zipf>(pool_size);

    s->daemon = std::make_unique<DaemonProcess>(opt.work_dir);
    s->clients.resize(kClients);
    for (ServiceClient &client : s->clients) {
        client.connect("127.0.0.1", s->daemon->port());
        client.ping();
    }

    // Prime: the clients split the pools' chunks between them.
    const std::vector<Request> priming = primingRequests(s->contexts);
    // Valid EDPs per client and context.
    std::vector<std::vector<std::vector<double>>> edps(
        kClients, std::vector<std::vector<double>>(s->contexts.size()));
    std::atomic<std::int64_t> failures{0};
    onThreads(kClients, [&](int t) {
        const auto client = static_cast<std::size_t>(t);
        for (std::size_t r = client; r < priming.size(); r += kClients) {
            const Context &ctx = s->contexts[priming[r].context];
            try {
                for (const EvalResult &e :
                     s->clients[client].evaluateBatch(
                         ctx.spec.name, mappingsOf(ctx, priming[r]))) {
                    if (e.valid) {
                        edps[client][priming[r].context].push_back(e.edp());
                    }
                }
            } catch (const ServiceError &) {
                ++failures;
            }
        }
    });
    s->prime_failures = failures.load();
    std::vector<double> ratios;
    for (std::size_t c = 0; c < s->contexts.size(); ++c) {
        std::vector<double> pool_edps;
        for (const auto &per_client : edps) {
            pool_edps.insert(pool_edps.end(), per_client[c].begin(),
                             per_client[c].end());
        }
        const double b = nearBestEdp(pool_edps);
        const Context &ctx = s->contexts[c];
        const EvalResult zoo = Engine(ctx.spec.arch)
                                   .evaluate(ctx.spec.workload,
                                             ctx.spec.canonical,
                                             ctx.spec.safs);
        if (b > 0.0 && zoo.valid) {
            ratios.push_back(b / zoo.edp());
        }
    }
    s->best_edp_ratio = geomean(ratios);
    return s;
}

/** FNV-1a of a result's wire encoding: equal digests mean
 *  bit-identical results (the codec round-trips every field). */
std::uint64_t
digest(const EvalResult &result)
{
    WireWriter w;
    encode(w, result);
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::uint8_t b : w.buffer()) {
        h = (h ^ b) * 0x100000001B3ULL;
    }
    return h;
}

/** What one client thread saw in a phase. */
struct ClientLog
{
    std::vector<double> rtt_s;
    /** Completion time of each request, from the phase start. */
    std::vector<double> done_s;
    std::int64_t served = 0, valid = 0, failed = 0;
    Clock::time_point end;
    /** Seeded 1-in-64 sample of results: (context, pool index, digest). */
    std::vector<std::tuple<std::size_t, std::uint32_t, std::uint64_t>>
        samples;
    std::vector<SentRequest> sent;
    Tracer tracer;
};

/** What a phase keeps beyond latencies and checks. */
enum class Keep
{
    kNothing,
    kRequests,          ///< the requests, for the traced run's replays
    kRequestsAndSpans,  ///< and a span per request
};

/** A closed-loop phase of @p seconds; @p phase seeds the streams. */
std::vector<ClientLog>
runPhase(DaemonSetup &setup, const Options &opt, int phase, double seconds,
         Keep keep, Clock::time_point &start)
{
    std::vector<ClientLog> logs(kClients);
    start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    onThreads(kClients, [&](int t) {
        ClientLog &log = logs[static_cast<std::size_t>(t)];
        ServiceClient &client = setup.clients[static_cast<std::size_t>(t)];
        const std::uint64_t stream = mixSeed(
            opt.seed * 131 + static_cast<std::uint64_t>(phase * 17 + t));
        std::mt19937_64 draws(stream);
        std::mt19937_64 sampling(mixSeed(stream));
        int op = 0;
        while (Clock::now() < deadline) {
            Request req;
            req.context = draws() % setup.contexts.size();
            req.picks.reserve(kRequestSize);
            for (std::size_t k = 0; k < kRequestSize; ++k) {
                req.picks.push_back((*setup.zipf)(draws));
            }
            const Context &ctx = setup.contexts[req.context];
            const std::vector<Mapping> mappings = mappingsOf(ctx, req);
            int span = -1;
            if (keep == Keep::kRequestsAndSpans) {
                log.tracer.setOp(op++ * kClients + t);
                span = log.tracer.open("op");
            }
            const Clock::time_point t0 = Clock::now();
            std::vector<EvalResult> results;
            bool served = true;
            try {
                results = client.evaluateBatch(ctx.spec.name, mappings);
            } catch (const ServiceError &) {
                served = false;
            }
            const Clock::time_point t1 = Clock::now();
            if (span >= 0) {
                log.tracer.close(span);
            }
            if (!served) {
                ++log.failed;
                break;
            }
            if (keep != Keep::kNothing) {
                log.sent.push_back({t0, req});
            }
            log.rtt_s.push_back(secondsBetween(t0, t1));
            log.done_s.push_back(secondsBetween(start, t1));
            log.served += static_cast<std::int64_t>(results.size());
            for (std::size_t k = 0; k < results.size(); ++k) {
                log.valid += results[k].valid ? 1 : 0;
                if (sampling() % 64 == 0) {
                    log.samples.emplace_back(req.context, req.picks[k],
                                             digest(results[k]));
                }
            }
        }
        log.end = Clock::now();
    });
    return logs;
}

/** Check the phase's sampled results against `Engine::evaluate`. */
void
checkSamples(const DaemonSetup &setup, const std::vector<ClientLog> &logs,
             RunResult &result)
{
    std::vector<Engine> engines;
    for (const Context &ctx : setup.contexts) {
        engines.emplace_back(ctx.spec.arch);
    }
    for (const ClientLog &log : logs) {
        result.attempted += static_cast<std::int64_t>(log.rtt_s.size()) +
                            log.failed;
        for (std::int64_t f = 0; f < log.failed; ++f) {
            result.fail("evaluate-batch request failed");
        }
        for (const auto &[c, index, expected] : log.samples) {
            const Context &ctx = setup.contexts[c];
            if (digest(engines[c].evaluate(ctx.spec.workload,
                                           ctx.pool[index],
                                           ctx.spec.safs)) != expected) {
                result.fail("daemon result differs from Engine::evaluate");
            }
        }
    }
}

double
phaseWall(const std::vector<ClientLog> &logs, Clock::time_point start)
{
    Clock::time_point end = start;
    for (const ClientLog &log : logs) {
        end = std::max(end, log.end);
    }
    return secondsBetween(start, end);
}

std::vector<double>
allRtts(const std::vector<ClientLog> &logs)
{
    std::vector<double> rtts;
    for (const ClientLog &log : logs) {
        rtts.insert(rtts.end(), log.rtt_s.begin(), log.rtt_s.end());
    }
    return rtts;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v) {
        sum += x;
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

RunResult
timedRequests(const Options &opt, DaemonSetup &setup, RunResult result)
{
    Clock::time_point start;
    const std::vector<ClientLog> logs =
        runPhase(setup, opt, 0, opt.seconds, Keep::kNothing, start);
    constexpr int kWindows = 10;
    const double window_s = phaseWall(logs, start) / kWindows;
    std::vector<double> served(kWindows, 0.0);
    for (const ClientLog &log : logs) {
        for (std::size_t r = 0; r < log.rtt_s.size(); ++r) {
            result.op_ms.push_back(1e3 * log.rtt_s[r]);
            const auto w = std::min<std::size_t>(
                kWindows - 1,
                static_cast<std::size_t>(log.done_s[r] / window_s));
            served[w] += static_cast<double>(kRequestSize);
        }
    }
    for (double n : served) {
        result.rates.push_back(n / window_s);
    }
    result.peak_rss_mb = setup.daemon->peakRssMb();
    result.best_edp_ratio = setup.best_edp_ratio;
    checkSamples(setup, logs, result);
    return result;
}

/** A phase's requests in the order the clients sent them. */
std::vector<Request>
sendOrder(const std::vector<ClientLog> &logs)
{
    std::vector<const SentRequest *> sent;
    for (const ClientLog &log : logs) {
        for (const SentRequest &s : log.sent) {
            sent.push_back(&s);
        }
    }
    std::sort(sent.begin(), sent.end(),
              [](const SentRequest *a, const SentRequest *b) {
                  return a->sent < b->sent;
              });
    std::vector<Request> out;
    for (const SentRequest *s : sent) {
        out.push_back(s->request);
    }
    return out;
}

/** Dispatch and codec costs of the traced stream, replayed through
 *  `handleRequest` on a twin of the daemon's registry. */
struct DispatchReplay
{
    double handle_s = 0.0;      ///< all traced requests
    std::int64_t requests = 0;
    double server_codec_s = 0.0;  ///< decode request + encode reply
    double wire_s = 0.0;          ///< all four codec steps
    double request_bytes = 0.0, reply_bytes = 0.0;
    std::int64_t sampled = 0;
};

DispatchReplay
replayDispatch(const DaemonSetup &setup, const std::vector<Request> &warm,
               const std::vector<Request> &traced, std::uint64_t seed,
               RunResult &result)
{
    ServiceRegistry twin;
    for (const Context &ctx : setup.contexts) {
        twin.addContext(ctx.spec);
    }
    auto payloadOf = [&](const Request &req) {
        EvaluateBatchRequest wire;
        wire.context = setup.contexts[req.context].spec.name;
        wire.mappings = mappingsOf(setup.contexts[req.context], req);
        return wire;
    };
    SessionEffects effects;
    for (const Request &req : warm) {
        const std::vector<std::uint8_t> payload =
            payloadOf(req).encodePayload();
        handleRequest(twin, FrameType::kEvaluateBatch, payload.data(),
                      payload.size(), effects);
    }
    DispatchReplay d;
    std::mt19937_64 rng(mixSeed(seed ^ 0xD15BA7C4ULL));
    for (const Request &req : traced) {
        const EvaluateBatchRequest wire = payloadOf(req);
        const std::vector<std::uint8_t> payload = wire.encodePayload();
        Clock::time_point t0 = Clock::now();
        const std::vector<std::uint8_t> reply_frame =
            handleRequest(twin, FrameType::kEvaluateBatch, payload.data(),
                          payload.size(), effects);
        d.handle_s += secondsSince(t0);
        ++d.requests;
        const FrameHeader header = decodeFrameHeader(reply_frame.data());
        if (header.type != FrameType::kEvalResults) {
            result.reject("twin registry rejected a replayed request");
            continue;
        }
        if (rng() % 8 != 0) {
            continue;
        }
        // Replay the four codec steps of this request on its own.
        t0 = Clock::now();
        const std::vector<std::uint8_t> request_frame =
            encodeFrame(FrameType::kEvaluateBatch, wire.encodePayload());
        const Clock::time_point t1 = Clock::now();
        WireReader request_reader(request_frame.data() + kFrameHeaderBytes,
                                  request_frame.size() - kFrameHeaderBytes);
        EvaluateBatchRequest::decodePayload(request_reader);
        const Clock::time_point t2 = Clock::now();
        WireReader reply_reader(reply_frame.data() + kFrameHeaderBytes,
                                reply_frame.size() - kFrameHeaderBytes);
        const EvaluateBatchReply reply =
            EvaluateBatchReply::decodePayload(reply_reader);
        const Clock::time_point t3 = Clock::now();
        encodeFrame(FrameType::kEvalResults, reply.encodePayload());
        const Clock::time_point t4 = Clock::now();
        d.wire_s += secondsBetween(t0, t4);
        d.server_codec_s += secondsBetween(t1, t2) + secondsBetween(t3, t4);
        d.request_bytes += static_cast<double>(request_frame.size());
        d.reply_bytes += static_cast<double>(reply_frame.size());
        ++d.sampled;
    }
    return d;
}

/** The traced stream through 1-thread in-process `evaluateMappings`
 *  over one shared cache, as the daemon's registry is laid out. */
struct InProcessReplay
{
    double batch_s = 0.0;
    std::int64_t points = 0, unique = 0, dense_groups = 0;
    StepReplay::Totals steps;
};

InProcessReplay
replayInProcess(const DaemonSetup &setup, const std::vector<Request> &warm,
                const std::vector<Request> &traced, std::uint64_t seed)
{
    auto cache = std::make_shared<EvalCache>();
    std::vector<std::unique_ptr<BatchEvaluator>> evaluators;
    BatchEvaluatorOptions options;
    options.num_threads = 1;
    for (const Context &ctx : setup.contexts) {
        evaluators.push_back(std::make_unique<BatchEvaluator>(
            Engine(ctx.spec.arch), cache, options));
    }
    auto pointersOf = [&](const Request &req) {
        std::vector<const Mapping *> out;
        for (std::uint32_t i : req.picks) {
            out.push_back(&setup.contexts[req.context].pool[i]);
        }
        return out;
    };
    for (const Request &req : warm) {
        const Context &ctx = setup.contexts[req.context];
        evaluators[req.context]->evaluateMappings(
            ctx.spec.workload, pointersOf(req), ctx.spec.safs);
    }
    InProcessReplay r;
    StepReplay replay(seed);
    for (const Request &req : traced) {
        const Context &ctx = setup.contexts[req.context];
        const BatchEvaluator &evaluator = *evaluators[req.context];
        const std::vector<const Mapping *> mappings = pointersOf(req);
        const bool sampled = replay.sampleNext();
        std::vector<EvalPoint> points;
        StepReplay::Plan plan;
        if (sampled) {
            for (const Mapping *m : mappings) {
                points.push_back({&ctx.spec.workload, m, &ctx.spec.safs});
            }
            plan = replay.plan(evaluator, points);
        }
        BatchStats stats;
        const Clock::time_point t0 = Clock::now();
        const std::vector<EvalResult> results = evaluator.evaluateMappings(
            ctx.spec.workload, mappings, ctx.spec.safs, &stats);
        const double wall = secondsSince(t0);
        r.batch_s += wall;
        r.points += stats.points;
        r.unique += stats.unique_points;
        r.dense_groups += stats.dense_groups;
        if (sampled) {
            replay.replay(evaluator, points, results, plan, wall, wall);
        }
    }
    r.steps = replay.totals();
    return r;
}

RunResult
tracedRequests(const Options &opt, DaemonSetup &setup, RunResult result)
{
    Clock::time_point start_a, start_b;
    const std::vector<ClientLog> untraced =
        runPhase(setup, opt, 1, opt.seconds / 2, Keep::kRequests, start_a);
    const CacheStatsReply before = setup.clients[0].cacheStats();
    const std::vector<ClientLog> traced =
        runPhase(setup, opt, 2, opt.seconds / 2, Keep::kRequestsAndSpans,
                 start_b);
    const CacheStatsReply after = setup.clients[0].cacheStats();
    const double wall_b = phaseWall(traced, start_b);
    checkSamples(setup, untraced, result);
    checkSamples(setup, traced, result);

    std::vector<Request> warm = primingRequests(setup.contexts);
    for (Request &r : sendOrder(untraced)) {
        warm.push_back(std::move(r));
    }
    const std::vector<Request> stream = sendOrder(traced);
    const DispatchReplay d =
        replayDispatch(setup, warm, stream, opt.seed, result);
    const InProcessReplay in = replayInProcess(setup, warm, stream, opt.seed);

    auto &l = result.layers;
    const std::vector<double> rtt = allRtts(traced);
    const double rtt_mean = mean(rtt);
    l["service.rtt_us_p50"] = 1e6 * quantile(rtt, 0.5);
    l["service.rtt_us_p99"] = 1e6 * quantile(rtt, 0.99);
    const double wire = ratio(d.wire_s, static_cast<double>(d.sampled));
    const double dispatch =
        ratio(d.handle_s, static_cast<double>(d.requests)) -
        ratio(d.server_codec_s, static_cast<double>(d.sampled));
    const double transport = std::max(0.0, rtt_mean - dispatch - wire);
    l["service.dispatch_us"] = 1e6 * dispatch;
    l["service.wire_us"] = 1e6 * wire;
    l["service.transport_us"] = 1e6 * transport;
    l["service.bytes_per_request"] =
        ratio(d.request_bytes, static_cast<double>(d.sampled));
    l["service.bytes_per_reply"] =
        ratio(d.reply_bytes, static_cast<double>(d.sampled));
    l["service.inprocess_frac"] = ratio(in.batch_s, wall_b);
    l["trace.overhead_frac"] = ratio(rtt_mean, mean(allRtts(untraced))) - 1.0;
    recordCoverage(dispatch + wire + transport, rtt_mean, result);

    std::int64_t served = 0, valid = 0;
    Tracer spans;
    for (const ClientLog &log : traced) {
        served += log.served;
        valid += log.valid;
        spans.append(log.tracer);
    }
    l["mapper.valid_frac"] = ratio(valid, served);
    l["mapper.mapspace.build_ms"] = ratio(
        1e3 * setup.mapspace_s, static_cast<double>(setup.contexts.size()));
    l["model.batch.unique_frac"] = ratio(in.unique, in.points);
    l["model.batch.dense_groups_frac"] = ratio(in.dense_groups, in.unique);
    const std::int64_t result_lookups = after.result_hits +
                                        after.result_misses -
                                        before.result_hits -
                                        before.result_misses;
    const std::int64_t dense_lookups = after.dense_hits + after.dense_misses -
                                       before.dense_hits -
                                       before.dense_misses;
    l["model.cache.result_hit_rate"] =
        ratio(after.result_hits - before.result_hits, result_lookups);
    l["model.cache.dense_hit_rate"] =
        ratio(after.dense_hits - before.dense_hits, dense_lookups);
    fillModelLayers(in.steps, in.batch_s, in.points, result);
    writeSpans(opt, spans, result);
    return result;
}

} // namespace

RunResult
runDaemonReplay(const Options &opt)
{
    RunResult result;
    auto setup = timedSetups(
        opt.smoke, [&] { return makeSetup(opt); }, result.setup_s);
    for (std::int64_t f = 0; f < setup->prime_failures; ++f) {
        result.fail("priming request failed");
    }
    return opt.trace ? tracedRequests(opt, *setup, std::move(result))
                     : timedRequests(opt, *setup, std::move(result));
}

} // namespace slbench
