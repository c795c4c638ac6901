/**
 * @file
 * Loopback integration tests for sparseloopd: an in-process server on
 * an ephemeral port, driven by real `ServiceClient`s over TCP.
 *
 * The load-bearing claims:
 *  - socket-served `EvalResult`s are bit-identical to direct
 *    `BatchEvaluator` / `Mapper` calls on the same design,
 *  - concurrent clients get deterministic (run-to-run identical)
 *    answers — this suite runs under TSan in CI,
 *  - a killed-and-restarted daemon resumes from its snapshot with a
 *    nonzero cache hit rate.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "mapper/mapspace.hh"
#include "service/client.hh"

namespace sparseloop {
namespace {

// Small workload so the full suite stays fast under TSan.
constexpr std::int64_t kDim = 16;

std::shared_ptr<ServiceRegistry>
makeRegistry()
{
    auto registry = std::make_shared<ServiceRegistry>();
    for (ServiceContextSpec &spec :
         standardServiceContexts(kDim, kDim, kDim)) {
        registry->addContext(std::move(spec));
    }
    return registry;
}

/** The test batch for one context: its canonical mapping plus seeded
 *  mapspace samples (deterministic across runs and processes). */
std::vector<Mapping>
testMappings(const ServiceRegistry &registry, const std::string &name,
             int samples, std::uint64_t seed_base = 100)
{
    const ServiceRegistry::Context *ctx = registry.find(name);
    MapSpace space(ctx->spec.workload, ctx->spec.arch);
    std::vector<Mapping> mappings{ctx->spec.canonical};
    for (int s = 0; s < samples; ++s) {
        mappings.push_back(space.sampleMapping(seed_base + s));
    }
    return mappings;
}

/** Direct in-process evaluation on an *independent* registry — the
 *  oracle the socket path must match bit-for-bit. */
std::vector<EvalResult>
directEvaluate(const ServiceRegistry &registry, const std::string &name,
               const std::vector<Mapping> &mappings)
{
    const ServiceRegistry::Context *ctx = registry.find(name);
    std::vector<const Mapping *> ptrs;
    for (const Mapping &m : mappings) {
        ptrs.push_back(&m);
    }
    return ctx->evaluator->evaluateMappings(ctx->spec.workload, ptrs,
                                            ctx->spec.safs, nullptr);
}

class ServiceServerTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        registry_ = makeRegistry();
        server_ = std::make_unique<ServiceServer>(registry_);
        server_->start();
    }

    void TearDown() override
    {
        server_->stop();
    }

    ServiceClient connectClient()
    {
        ServiceClient client;
        client.connect("127.0.0.1", server_->port());
        return client;
    }

    std::shared_ptr<ServiceRegistry> registry_;
    std::unique_ptr<ServiceServer> server_;
};

TEST_F(ServiceServerTest, PingAndContextListing)
{
    ServiceClient client = connectClient();
    client.ping();
    std::vector<std::string> names = client.listContexts();
    EXPECT_EQ((std::vector<std::string>{"bitmask", "coord-list",
                                        "dense-baseline"}),
              names);
}

TEST_F(ServiceServerTest, EvaluateBatchIsBitIdenticalToInProcess)
{
    // The oracle runs on its own registry (fresh cache) so this also
    // proves server-side cache state never changes answers.
    auto oracle = makeRegistry();
    ServiceClient client = connectClient();
    for (const std::string &name : registry_->names()) {
        std::vector<Mapping> mappings = testMappings(*registry_, name, 6);
        std::vector<EvalResult> served =
            client.evaluateBatch(name, mappings);
        std::vector<EvalResult> direct =
            directEvaluate(*oracle, name, mappings);
        ASSERT_EQ(direct.size(), served.size());
        for (std::size_t i = 0; i < direct.size(); ++i) {
            EXPECT_TRUE(bitIdentical(direct[i], served[i]))
                << name << " mapping " << i;
        }
    }
}

TEST_F(ServiceServerTest, SearchIsBitIdenticalToInProcessMapper)
{
    ServiceClient client = connectClient();
    ClientSearchOptions options;
    options.samples = 120;
    options.seed = 0x5EED;
    options.batch_size = 32;
    SearchReply served = client.search("coord-list", options);

    // Same options through a local Mapper on an independent design
    // copy (no shared cache; the cache never changes outcomes).
    auto oracle = makeRegistry();
    const ServiceRegistry::Context *ctx = oracle->find("coord-list");
    MapperOptions local;
    local.samples = static_cast<int>(options.samples);
    local.seed = options.seed;
    local.strategy = options.strategy;
    local.batch_size = static_cast<int>(options.batch_size);
    MapperResult direct = Mapper(ctx->spec.workload, ctx->spec.arch,
                                 ctx->spec.safs, local)
                              .search();

    EXPECT_EQ(direct.found, served.found);
    EXPECT_EQ(static_cast<std::uint8_t>(direct.status), served.status);
    EXPECT_EQ(direct.mapping, served.mapping);
    EXPECT_TRUE(bitIdentical(direct.eval, served.eval));
    EXPECT_EQ(direct.candidates_evaluated, served.candidates_evaluated);
    EXPECT_EQ(direct.candidates_valid, served.candidates_valid);
    EXPECT_EQ(direct.strategy, served.strategy);
}

TEST_F(ServiceServerTest, MultiThreadedSearchMatchesSingleThreaded)
{
    ServiceClient client = connectClient();
    ClientSearchOptions options;
    options.samples = 80;
    options.seed = 0xABCD;
    SearchReply one = client.search("bitmask", options);
    options.threads = 4;
    SearchReply four = client.search("bitmask", options);
    EXPECT_EQ(one.mapping, four.mapping);
    EXPECT_TRUE(bitIdentical(one.eval, four.eval));
    EXPECT_EQ(one.candidates_evaluated, four.candidates_evaluated);
}

TEST_F(ServiceServerTest, ConcurrentClientsAreDeterministic)
{
    const std::vector<std::string> names = registry_->names();
    constexpr int kClients = 4;

    // Each round: kClients threads, each with its own connection,
    // mixing evaluate-batch and search traffic. Two rounds must
    // produce byte-for-byte identical outcomes.
    auto runRound = [&] {
        std::vector<std::vector<EvalResult>> batch_results(kClients);
        std::vector<SearchReply> search_results(kClients);
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                ServiceClient client;
                client.connect("127.0.0.1", server_->port());
                const std::string &name = names[c % names.size()];
                std::vector<Mapping> mappings =
                    testMappings(*registry_, name, 5,
                                 200 + static_cast<std::uint64_t>(c));
                batch_results[c] = client.evaluateBatch(name, mappings);
                ClientSearchOptions options;
                options.samples = 40;
                options.seed = 0x1000 + static_cast<std::uint64_t>(c);
                options.batch_size = 16;
                search_results[c] = client.search(name, options);
            });
        }
        for (std::thread &t : threads) {
            t.join();
        }
        return std::make_pair(std::move(batch_results),
                              std::move(search_results));
    };

    auto [batches1, searches1] = runRound();
    auto [batches2, searches2] = runRound();

    for (int c = 0; c < kClients; ++c) {
        ASSERT_EQ(batches1[c].size(), batches2[c].size()) << c;
        for (std::size_t i = 0; i < batches1[c].size(); ++i) {
            EXPECT_TRUE(bitIdentical(batches1[c][i], batches2[c][i]))
                << "client " << c << " mapping " << i;
        }
        EXPECT_EQ(searches1[c].mapping, searches2[c].mapping) << c;
        EXPECT_TRUE(bitIdentical(searches1[c].eval, searches2[c].eval))
            << c;
        EXPECT_EQ(searches1[c].candidates_evaluated,
                  searches2[c].candidates_evaluated)
            << c;
    }

    // And the concurrent answers match a single direct evaluation.
    auto oracle = makeRegistry();
    for (int c = 0; c < kClients; ++c) {
        const std::string &name = names[c % names.size()];
        std::vector<Mapping> mappings = testMappings(
            *registry_, name, 5, 200 + static_cast<std::uint64_t>(c));
        std::vector<EvalResult> direct =
            directEvaluate(*oracle, name, mappings);
        ASSERT_EQ(direct.size(), batches1[c].size());
        for (std::size_t i = 0; i < direct.size(); ++i) {
            EXPECT_TRUE(bitIdentical(direct[i], batches1[c][i]))
                << "client " << c << " mapping " << i;
        }
    }
}

TEST_F(ServiceServerTest, UnknownContextComesBackAsServiceError)
{
    ServiceClient client = connectClient();
    std::vector<Mapping> mappings =
        testMappings(*registry_, "bitmask", 1);
    try {
        client.evaluateBatch("no-such-design", mappings);
        FAIL() << "expected ServiceError";
    } catch (const ServiceError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown context"),
                  std::string::npos)
            << e.what();
    }
    // The connection survives a request-level error.
    client.ping();
}

TEST_F(ServiceServerTest, MalformedMappingComesBackInvalidNotFatal)
{
    ServiceClient client = connectClient();
    // A mapping with no levels cannot cover the workload: the engine
    // rejects it, and the daemon reports that per-point instead of
    // failing the request or the connection.
    std::vector<Mapping> mappings = testMappings(*registry_, "bitmask", 1);
    mappings.push_back(Mapping());
    std::vector<EvalResult> results =
        client.evaluateBatch("bitmask", mappings);
    ASSERT_EQ(mappings.size(), results.size());
    EXPECT_TRUE(results.front().valid);
    EXPECT_FALSE(results.back().valid);
    EXPECT_FALSE(results.back().invalid_reason.empty());
    client.ping();
}

TEST_F(ServiceServerTest, OversizedReplyComesBackAsErrorAndServingContinues)
{
    // One copy more than the 64 MiB frame bound has room for in the
    // reply: the daemon must answer with an error frame instead of
    // dying, while the request itself stays under the bound.
    ServiceClient client = connectClient();
    const ServiceContextSpec &spec = registry_->find("bitmask")->spec;
    WireWriter one;
    encode(one, Engine(spec.arch).evaluate(spec.workload, spec.canonical,
                                           spec.safs));
    EvaluateBatchRequest request;
    request.context = "bitmask";
    request.mappings.assign(kMaxFramePayload / one.size() + 1,
                            spec.canonical);
    ASSERT_LT(request.encodePayload().size(), kMaxFramePayload);
    try {
        client.evaluateBatch(request.context, request.mappings);
        FAIL() << "expected ServiceError";
    } catch (const ServiceError &e) {
        EXPECT_NE(std::string(e.what()).find("64 MiB"), std::string::npos)
            << e.what();
    }
    client.ping();
}

TEST_F(ServiceServerTest, CacheStatsReflectServedTraffic)
{
    ServiceClient client = connectClient();
    CacheStatsReply before = client.cacheStats();
    EXPECT_EQ(3u, before.contexts);
    EXPECT_EQ(0u, before.result_entries);

    std::vector<Mapping> mappings = testMappings(*registry_, "bitmask", 4);
    client.evaluateBatch("bitmask", mappings);   // all misses
    client.evaluateBatch("bitmask", mappings);   // all hits
    CacheStatsReply after = client.cacheStats();
    EXPECT_GT(after.result_entries, 0u);
    EXPECT_GT(after.result_hits, 0);
}

TEST(ServiceServerLifecycle, ShutdownFrameStopsTheServer)
{
    auto registry = makeRegistry();
    ServiceServer server(registry);
    server.start();

    std::thread waiter([&] { server.waitForShutdownRequest(); });
    ServiceClient client;
    client.connect("127.0.0.1", server.port());
    client.shutdownServer();
    waiter.join();  // unblocked by the frame, not by stop()
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(ServiceServerLifecycle, KillAndRestartResumesFromSnapshot)
{
    const std::string path = testing::TempDir() + "/server-restart.snap";
    std::remove(path.c_str());
    ServerOptions options;
    options.snapshot_path = path;

    auto registry = makeRegistry();
    std::vector<Mapping> mappings = testMappings(*registry, "bitmask", 6);
    std::vector<EvalResult> first;
    {
        ServiceServer server(registry, options);
        server.start();
        EXPECT_EQ(0u, server.restoreStats().totalEntries());
        ServiceClient client;
        client.connect("127.0.0.1", server.port());
        first = client.evaluateBatch("bitmask", mappings);
        client.shutdownServer();
        server.waitForShutdownRequest();
        server.stop();  // snapshots on the way down
    }

    // "Restart": a brand-new registry (empty cache) and server over
    // the same snapshot path.
    auto registry2 = makeRegistry();
    ServiceServer server2(registry2, options);
    server2.start();
    EXPECT_GT(server2.restoreStats().totalEntries(), 0u);

    ServiceClient client;
    client.connect("127.0.0.1", server2.port());
    std::vector<EvalResult> replay =
        client.evaluateBatch("bitmask", mappings);
    ASSERT_EQ(first.size(), replay.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(bitIdentical(first[i], replay[i])) << i;
    }

    CacheStatsReply stats = client.cacheStats();
    EXPECT_GT(stats.restored_entries, 0u);
    EXPECT_GT(stats.result_hits, 0);        // nonzero warm hit rate
    EXPECT_EQ(0, stats.result_misses);      // every point restored
    server2.stop();
    std::remove(path.c_str());
}

TEST(ServiceServerLifecycle, SnapshotThresholdWritesDuringService)
{
    const std::string path = testing::TempDir() + "/threshold.snap";
    std::remove(path.c_str());
    ServerOptions options;
    options.snapshot_path = path;
    options.snapshot_every_entries = 1;  // re-save on any growth

    auto registry = makeRegistry();
    ServiceServer server(registry, options);
    server.start();
    ServiceClient client;
    client.connect("127.0.0.1", server.port());
    client.evaluateBatch("bitmask",
                         testMappings(*registry, "bitmask", 3));
    // The threshold save runs on the connection thread after the
    // evaluate response is flushed; a second request on the same
    // connection cannot be served until it finishes, so this stats
    // round-trip is the synchronization point.
    client.cacheStats();

    // The threshold save happened while serving — before any
    // shutdown-path snapshot.
    EvalCache probe;
    SnapshotStats on_disk = loadSnapshot(path, probe, nullptr);
    EXPECT_TRUE(on_disk.error.empty()) << on_disk.error;
    EXPECT_GT(on_disk.totalEntries(), 0u);
    server.stop();
    std::remove(path.c_str());
}

} // namespace
} // namespace sparseloop
