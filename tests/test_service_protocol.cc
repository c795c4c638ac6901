/**
 * @file
 * Wire-format property tests for the evaluation service: randomized
 * round trips over every domain codec (exact, bitwise-double
 * equality), exhaustive truncated-payload rejection, hostile length
 * fields, and the frame-header contract (magic / version / size
 * bounds).
 */

#include <gtest/gtest.h>

#include <random>

#include "model/engine.hh"
#include "service/protocol.hh"
#include "service/registry.hh"
#include "service/session.hh"

namespace sparseloop {
namespace {

using Rng = std::mt19937_64;

double
randomDouble(Rng &rng)
{
    // Mix magnitudes (incl. denormal-ish and huge) so the bit-pattern
    // encoding is exercised far beyond friendly values.
    std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
    std::uniform_int_distribution<int> exponent(-300, 300);
    return std::ldexp(mantissa(rng), exponent(rng));
}

std::string
randomString(Rng &rng, std::size_t max_len = 24)
{
    std::uniform_int_distribution<std::size_t> len(0, max_len);
    std::uniform_int_distribution<int> byte(0, 255);
    std::string s(len(rng), '\0');
    for (char &c : s) {
        c = static_cast<char>(byte(rng));  // arbitrary bytes, incl. NUL
    }
    return s;
}

Mapping
randomMapping(Rng &rng)
{
    std::uniform_int_distribution<int> nlevels(1, 4);
    std::uniform_int_distribution<int> nloops(0, 5);
    std::uniform_int_distribution<int> dim(0, 6);
    std::uniform_int_distribution<std::int64_t> bound(1, 1 << 20);
    std::uniform_int_distribution<int> coin(0, 1);

    std::vector<LevelNest> levels(nlevels(rng));
    for (LevelNest &nest : levels) {
        nest.loops.resize(nloops(rng));
        for (Loop &loop : nest.loops) {
            loop.dim = dim(rng);
            loop.bound = bound(rng);
            loop.spatial = coin(rng) == 1;
        }
        // Half the time leave keep empty (keep-all); the codec must
        // preserve the empty-vs-explicit distinction.
        if (coin(rng) == 1) {
            nest.keep.resize(3);
            for (std::size_t t = 0; t < nest.keep.size(); ++t) {
                nest.keep[t] = coin(rng) == 1;
            }
        }
    }
    return Mapping(std::move(levels));
}

EvalKey
randomEvalKey(Rng &rng)
{
    EvalKey k;
    k.engine = rng();
    k.workload = rng();
    k.mapping = rng();
    k.safs = rng();
    return k;
}

DenseKey
randomDenseKey(Rng &rng)
{
    DenseKey k;
    k.engine = rng();
    k.workload = rng();
    k.mapping = rng();
    return k;
}

ActionBreakdown
randomBreakdown(Rng &rng)
{
    ActionBreakdown a;
    a.actual = randomDouble(rng);
    a.gated = randomDouble(rng);
    a.skipped = randomDouble(rng);
    return a;
}

DenseTraffic
randomDenseTraffic(Rng &rng)
{
    std::uniform_int_distribution<std::size_t> small(1, 3);
    std::uniform_int_distribution<std::size_t> ranks(0, 4);
    std::uniform_int_distribution<std::int64_t> extent(1, 1 << 16);

    DenseTraffic dense;
    std::size_t rows = small(rng);
    std::size_t cols = small(rng);
    dense.levels.assign(rows, cols);
    for (TensorLevelDense &t : dense.levels.flat()) {
        t.kept = (rng() & 1) != 0;
        t.footprint = randomDouble(rng);
        t.tile_extents.assign(ranks(rng), 0);
        for (std::size_t i = 0; i < t.tile_extents.size(); ++i) {
            t.tile_extents[i] = extent(rng);
        }
        t.fills = randomDouble(rng);
        t.reads = randomDouble(rng);
        t.updates = randomDouble(rng);
        t.acc_reads = randomDouble(rng);
        t.drains = randomDouble(rng);
    }
    dense.computes = randomDouble(rng);
    dense.instances.resize(small(rng));
    for (std::int64_t &x : dense.instances) {
        x = extent(rng);
    }
    dense.compute_instances = extent(rng);
    return dense;
}

SparseTraffic
randomSparseTraffic(Rng &rng)
{
    std::uniform_int_distribution<std::size_t> small(1, 3);
    std::uniform_int_distribution<std::int64_t> extent(1, 1 << 16);

    SparseTraffic sparse;
    std::size_t rows = small(rng);
    std::size_t cols = small(rng);
    sparse.levels.assign(rows, cols);
    for (TensorLevelSparse &t : sparse.levels.flat()) {
        t.reads = randomBreakdown(rng);
        t.fills = randomBreakdown(rng);
        t.updates = randomBreakdown(rng);
        t.acc_reads = randomBreakdown(rng);
        t.drains = randomBreakdown(rng);
        t.meta_reads = randomDouble(rng);
        t.meta_fills = randomDouble(rng);
        t.meta_updates = randomDouble(rng);
        t.tile_data_words = randomDouble(rng);
        t.tile_metadata_words = randomDouble(rng);
        t.tile_worst_words = randomDouble(rng);
        t.tile_dense_words = randomDouble(rng);
    }
    sparse.computes = randomBreakdown(rng);
    sparse.effectual_computes = randomDouble(rng);
    sparse.instances.resize(small(rng));
    for (std::int64_t &x : sparse.instances) {
        x = extent(rng);
    }
    sparse.compute_instances = extent(rng);
    return sparse;
}

EvalResult
randomEvalResult(Rng &rng)
{
    std::uniform_int_distribution<std::size_t> nlevels(0, 3);

    EvalResult result;
    result.valid = (rng() & 1) != 0;
    result.invalid_reason = randomString(rng);
    result.cycles = randomDouble(rng);
    result.energy_pj = randomDouble(rng);
    result.computes = randomBreakdown(rng);
    result.effectual_computes = randomDouble(rng);
    result.compute_energy_pj = randomDouble(rng);
    result.compute_cycles = randomDouble(rng);
    result.compute_instances = static_cast<std::int64_t>(rng() >> 32);
    result.levels.resize(nlevels(rng));
    for (LevelResult &level : result.levels) {
        level.name = randomString(rng);
        level.cycles = randomDouble(rng);
        level.energy_pj = randomDouble(rng);
        level.occupied_words = randomDouble(rng);
        level.worst_case_words = randomDouble(rng);
        level.bandwidth_demand = randomDouble(rng);
    }
    result.dense = randomDenseTraffic(rng);
    result.sparse = randomSparseTraffic(rng);
    return result;
}

MetricVector
randomMetricVector(Rng &rng)
{
    MetricVector m;
    for (double &v : m.values) {
        v = randomDouble(rng);
    }
    return m;
}

template <typename T>
std::vector<std::uint8_t>
encoded(const T &value)
{
    WireWriter w;
    encode(w, value);
    return w.take();
}

/** Every strict prefix of a valid payload must throw WireError —
 *  never crash, never decode successfully. */
template <typename Decode>
void
expectAllPrefixesRejected(const std::vector<std::uint8_t> &bytes,
                          Decode decode)
{
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        WireReader r(bytes.data(), cut);
        EXPECT_THROW(decode(r), WireError) << "prefix length " << cut;
    }
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(ServiceWire, MappingRoundTripsExactly)
{
    Rng rng(0xA11CE);
    for (int i = 0; i < 200; ++i) {
        Mapping m = randomMapping(rng);
        std::vector<std::uint8_t> bytes = encoded(m);
        WireReader r(bytes);
        Mapping back = decodeMapping(r);
        EXPECT_TRUE(r.done());
        EXPECT_EQ(m, back);
    }
}

TEST(ServiceWire, MappingKeepMaskDistinctionSurvives)
{
    // keep-all (empty mask) and explicit all-true behave identically
    // but are distinct values; the codec must not conflate them.
    LevelNest implicit_nest;
    implicit_nest.loops = {{0, 4, false}};
    LevelNest explicit_nest = implicit_nest;
    explicit_nest.keep = {true, true, true};

    Mapping implicit_map({implicit_nest});
    Mapping explicit_map({explicit_nest});
    ASSERT_NE(implicit_map, explicit_map);

    for (const Mapping &m : {implicit_map, explicit_map}) {
        std::vector<std::uint8_t> bytes = encoded(m);
        WireReader r(bytes);
        EXPECT_EQ(m, decodeMapping(r));
    }
}

TEST(ServiceWire, KeysRoundTripExactly)
{
    Rng rng(0xBEEF);
    for (int i = 0; i < 500; ++i) {
        EvalKey ek = randomEvalKey(rng);
        std::vector<std::uint8_t> eb = encoded(ek);
        WireReader er(eb);
        EXPECT_EQ(ek, decodeEvalKey(er));
        EXPECT_TRUE(er.done());

        DenseKey dk = randomDenseKey(rng);
        std::vector<std::uint8_t> db = encoded(dk);
        WireReader dr(db);
        EXPECT_EQ(dk, decodeDenseKey(dr));
        EXPECT_TRUE(dr.done());
    }
}

TEST(ServiceWire, EvalResultRoundTripsBitIdentically)
{
    Rng rng(0xCAFE);
    for (int i = 0; i < 100; ++i) {
        EvalResult result = randomEvalResult(rng);
        std::vector<std::uint8_t> bytes = encoded(result);
        WireReader r(bytes);
        EvalResult back = decodeEvalResult(r);
        EXPECT_TRUE(r.done());
        EXPECT_TRUE(bitIdentical(result, back));
    }
}

TEST(ServiceWire, DenseTrafficRoundTripsExactly)
{
    Rng rng(0xD1CE);
    for (int i = 0; i < 100; ++i) {
        DenseTraffic dense = randomDenseTraffic(rng);
        std::vector<std::uint8_t> bytes = encoded(dense);
        WireReader r(bytes);
        EXPECT_EQ(dense, decodeDenseTraffic(r));
        EXPECT_TRUE(r.done());
    }
}

TEST(ServiceWire, MetricVectorRoundTripsExactly)
{
    Rng rng(0xF00D);
    for (int i = 0; i < 200; ++i) {
        MetricVector m = randomMetricVector(rng);
        std::vector<std::uint8_t> bytes = encoded(m);
        WireReader r(bytes);
        EXPECT_EQ(m, decodeMetricVector(r));
        EXPECT_TRUE(r.done());
    }
}

TEST(ServiceWire, NonFiniteDoublesRoundTrip)
{
    // The bit-pattern encoding must carry NaN / infinities unchanged
    // (NaN payload bits included).
    WireWriter w;
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.f64(std::numeric_limits<double>::infinity());
    w.f64(-std::numeric_limits<double>::infinity());
    w.f64(-0.0);
    std::vector<std::uint8_t> bytes = w.take();

    WireReader r(bytes);
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_EQ(std::numeric_limits<double>::infinity(), r.f64());
    EXPECT_EQ(-std::numeric_limits<double>::infinity(), r.f64());
    double neg_zero = r.f64();
    EXPECT_EQ(0.0, neg_zero);
    EXPECT_TRUE(std::signbit(neg_zero));
}

// ---------------------------------------------------------------------------
// Truncation and hostile inputs
// ---------------------------------------------------------------------------

TEST(ServiceWire, TruncatedMappingAlwaysRejected)
{
    Rng rng(0x7A11);
    for (int i = 0; i < 10; ++i) {
        expectAllPrefixesRejected(
            encoded(randomMapping(rng)),
            [](WireReader &r) { return decodeMapping(r); });
    }
}

TEST(ServiceWire, TruncatedEvalResultAlwaysRejected)
{
    Rng rng(0x7A12);
    for (int i = 0; i < 3; ++i) {
        expectAllPrefixesRejected(
            encoded(randomEvalResult(rng)),
            [](WireReader &r) { return decodeEvalResult(r); });
    }
}

TEST(ServiceWire, TruncatedKeysAlwaysRejected)
{
    Rng rng(0x7A13);
    expectAllPrefixesRejected(
        encoded(randomEvalKey(rng)),
        [](WireReader &r) { return decodeEvalKey(r); });
    expectAllPrefixesRejected(
        encoded(randomDenseKey(rng)),
        [](WireReader &r) { return decodeDenseKey(r); });
}

TEST(ServiceWire, GiantElementCountRejectedBeforeAllocation)
{
    // A mapping claiming 2^32-1 levels in a 4-byte buffer: the count
    // guard must reject it up front instead of attempting a huge
    // resize.
    WireWriter w;
    w.u32(0xFFFFFFFFu);
    std::vector<std::uint8_t> bytes = w.take();
    WireReader r(bytes);
    EXPECT_THROW(decodeMapping(r), WireError);
}

TEST(ServiceWire, GiantGridShapeRejected)
{
    // rows * cols chosen so each factor alone looks plausible but the
    // product cannot possibly fit the remaining bytes.
    WireWriter w;
    w.u32(0x10000u);
    w.u32(0x10000u);
    for (int i = 0; i < 64; ++i) {
        w.u8(0);
    }
    std::vector<std::uint8_t> bytes = w.take();
    WireReader r(bytes);
    EXPECT_THROW(decodeDenseTraffic(r), WireError);
}

TEST(ServiceWire, TrailingBytesDetected)
{
    Rng rng(0x7A14);
    std::vector<std::uint8_t> bytes = encoded(randomEvalKey(rng));
    bytes.push_back(0);
    WireReader r(bytes);
    decodeEvalKey(r);
    EXPECT_FALSE(r.done());
    EXPECT_THROW(r.expectDone("eval key"), WireError);
}

// ---------------------------------------------------------------------------
// Frame header contract
// ---------------------------------------------------------------------------

TEST(ServiceProtocol, FrameRoundTrips)
{
    std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    std::vector<std::uint8_t> frame =
        encodeFrame(FrameType::kEvaluateBatch, payload);
    ASSERT_EQ(kFrameHeaderBytes + payload.size(), frame.size());

    FrameHeader h = decodeFrameHeader(frame.data());
    EXPECT_EQ(FrameType::kEvaluateBatch, h.type);
    EXPECT_EQ(payload.size(), h.payload_size);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           frame.begin() + kFrameHeaderBytes));
}

TEST(ServiceProtocol, BadMagicRejected)
{
    std::vector<std::uint8_t> frame = encodeFrame(FrameType::kPing, {});
    frame[0] ^= 0xFF;
    EXPECT_THROW(decodeFrameHeader(frame.data()), ProtocolError);
}

TEST(ServiceProtocol, BadVersionRejected)
{
    std::vector<std::uint8_t> frame = encodeFrame(FrameType::kPing, {});
    frame[4] ^= 0xFF;  // version low byte
    EXPECT_THROW(decodeFrameHeader(frame.data()), ProtocolError);
}

TEST(ServiceProtocol, OversizedPayloadLengthRejected)
{
    std::vector<std::uint8_t> frame = encodeFrame(FrameType::kPing, {});
    // Patch the length field to kMaxFramePayload + 1 (little-endian).
    std::uint32_t huge = kMaxFramePayload + 1;
    for (int i = 0; i < 4; ++i) {
        frame[8 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
    }
    EXPECT_THROW(decodeFrameHeader(frame.data()), ProtocolError);
}

TEST(ServiceProtocol, MaxPayloadLengthAccepted)
{
    std::vector<std::uint8_t> frame = encodeFrame(FrameType::kPing, {});
    std::uint32_t max = kMaxFramePayload;
    for (int i = 0; i < 4; ++i) {
        frame[8 + i] = static_cast<std::uint8_t>(max >> (8 * i));
    }
    FrameHeader h = decodeFrameHeader(frame.data());
    EXPECT_EQ(kMaxFramePayload, h.payload_size);
}

// ---------------------------------------------------------------------------
// Request/response payload schemas
// ---------------------------------------------------------------------------

TEST(ServiceProtocol, EvaluateBatchRequestRoundTrips)
{
    Rng rng(0x90);
    EvaluateBatchRequest req;
    req.context = "bitmask";
    for (int i = 0; i < 5; ++i) {
        req.mappings.push_back(randomMapping(rng));
    }
    std::vector<std::uint8_t> bytes = req.encodePayload();
    WireReader r(bytes);
    EvaluateBatchRequest back = EvaluateBatchRequest::decodePayload(r);
    EXPECT_EQ(req.context, back.context);
    ASSERT_EQ(req.mappings.size(), back.mappings.size());
    for (std::size_t i = 0; i < req.mappings.size(); ++i) {
        EXPECT_EQ(req.mappings[i], back.mappings[i]);
    }
}

TEST(ServiceProtocol, SearchRequestRoundTrips)
{
    SearchRequest req;
    req.context = "coord-list";
    req.samples = 123;
    req.seed = 0xDEADBEEFCAFEull;
    req.strategy = static_cast<std::uint8_t>(SearchStrategyKind::Genetic);
    req.batch_size = 17;
    req.threads = 4;
    req.use_warm_start = true;
    std::vector<std::uint8_t> bytes = req.encodePayload();
    WireReader r(bytes);
    SearchRequest back = SearchRequest::decodePayload(r);
    EXPECT_EQ(req.context, back.context);
    EXPECT_EQ(req.samples, back.samples);
    EXPECT_EQ(req.seed, back.seed);
    EXPECT_EQ(req.strategy, back.strategy);
    EXPECT_EQ(req.batch_size, back.batch_size);
    EXPECT_EQ(req.threads, back.threads);
    EXPECT_EQ(req.use_warm_start, back.use_warm_start);
}

TEST(ServiceProtocol, SearchRequestRejectsUnknownStrategy)
{
    SearchRequest req;
    req.context = "x";
    req.strategy = 250;  // no such SearchStrategyKind
    std::vector<std::uint8_t> bytes = req.encodePayload();
    WireReader r(bytes);
    EXPECT_THROW(SearchRequest::decodePayload(r), WireError);
}

TEST(ServiceProtocol, SearchRequestRejectsCountsAboveIntMax)
{
    // The session casts these counts to int; 0x80000000 would become a
    // negative sample budget instead of a refused request.
    for (int field = 0; field < 3; ++field) {
        SearchRequest req;
        req.context = "x";
        std::uint32_t &count = field == 0 ? req.samples
            : field == 1                  ? req.batch_size
                                          : req.threads;
        count = 0x80000000u;
        std::vector<std::uint8_t> bytes = req.encodePayload();
        WireReader r(bytes);
        SCOPED_TRACE("field " + std::to_string(field));
        EXPECT_THROW(SearchRequest::decodePayload(r), WireError);

        count = 0x7FFFFFFFu;  // INT_MAX itself is a valid count
        bytes = req.encodePayload();
        WireReader ok(bytes);
        EXPECT_EQ(SearchRequest::decodePayload(ok).context, "x");
    }
}

TEST(ServiceProtocol, SessionRefusesNegativeSampleBudget)
{
    ServiceRegistry registry;
    for (ServiceContextSpec &spec : standardServiceContexts(8, 8, 8)) {
        registry.addContext(std::move(spec));
    }
    SearchRequest req;
    req.context = registry.names().front();
    req.samples = 0x80000000u;
    std::vector<std::uint8_t> payload = req.encodePayload();
    SessionEffects effects;
    std::vector<std::uint8_t> reply =
        handleRequest(registry, FrameType::kSearch, payload.data(),
                      payload.size(), effects);
    ASSERT_GE(reply.size(), kFrameHeaderBytes);
    EXPECT_EQ(decodeFrameHeader(reply.data()).type, FrameType::kError);
    EXPECT_FALSE(effects.wrote_cache);
}

TEST(ServiceProtocol, SearchReplyRoundTripsBitIdentically)
{
    Rng rng(0x91);
    SearchReply reply;
    reply.found = true;
    reply.status = 2;
    reply.mapping = randomMapping(rng);
    reply.eval = randomEvalResult(rng);
    reply.candidates_evaluated = 1000;
    reply.candidates_valid = 900;
    reply.warm_start_candidates = 8;
    reply.strategy = "hybrid";
    std::vector<std::uint8_t> bytes = reply.encodePayload();
    WireReader r(bytes);
    SearchReply back = SearchReply::decodePayload(r);
    EXPECT_EQ(reply.found, back.found);
    EXPECT_EQ(reply.status, back.status);
    EXPECT_EQ(reply.mapping, back.mapping);
    EXPECT_TRUE(bitIdentical(reply.eval, back.eval));
    EXPECT_EQ(reply.candidates_evaluated, back.candidates_evaluated);
    EXPECT_EQ(reply.candidates_valid, back.candidates_valid);
    EXPECT_EQ(reply.warm_start_candidates, back.warm_start_candidates);
    EXPECT_EQ(reply.strategy, back.strategy);
}

TEST(ServiceProtocol, CacheStatsReplyRoundTrips)
{
    CacheStatsReply reply;
    reply.result_hits = 10;
    reply.result_misses = 20;
    reply.dense_hits = 30;
    reply.dense_misses = 40;
    reply.result_entries = 50;
    reply.dense_entries = 60;
    reply.contexts = 3;
    reply.warm_elites = 7;
    reply.restored_entries = 110;
    std::vector<std::uint8_t> bytes = reply.encodePayload();
    WireReader r(bytes);
    CacheStatsReply back = CacheStatsReply::decodePayload(r);
    EXPECT_EQ(reply.result_hits, back.result_hits);
    EXPECT_EQ(reply.result_misses, back.result_misses);
    EXPECT_EQ(reply.dense_hits, back.dense_hits);
    EXPECT_EQ(reply.dense_misses, back.dense_misses);
    EXPECT_EQ(reply.result_entries, back.result_entries);
    EXPECT_EQ(reply.dense_entries, back.dense_entries);
    EXPECT_EQ(reply.contexts, back.contexts);
    EXPECT_EQ(reply.warm_elites, back.warm_elites);
    EXPECT_EQ(reply.restored_entries, back.restored_entries);
}

TEST(ServiceProtocol, PayloadsRejectTrailingGarbage)
{
    SearchRequest req;
    req.context = "bitmask";
    std::vector<std::uint8_t> bytes = req.encodePayload();
    bytes.push_back(0xAB);
    WireReader r(bytes);
    EXPECT_THROW(SearchRequest::decodePayload(r), WireError);
}

} // namespace
} // namespace sparseloop
