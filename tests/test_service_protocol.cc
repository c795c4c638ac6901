/**
 * @file
 * Wire-format property tests for the evaluation service: randomized
 * round trips over every domain codec (exact, bitwise-double
 * equality), exhaustive truncated-payload rejection, hostile length
 * fields, and the frame-header contract (magic / version / size
 * bounds).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "model/engine.hh"
#include "service/persistence.hh"
#include "service/protocol.hh"
#include "service/registry.hh"
#include "service/session.hh"

namespace sparseloop {
namespace {

/** splitmix64. Unlike the std:: distributions, every value drawn here
 *  is a fixed function of the seed under any standard library, so the
 *  pinned-encoding corpus below is portable. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t operator()()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/** An integer in [lo, hi]. */
template <typename T>
T
pick(Rng &rng, T lo, T hi)
{
    return lo + static_cast<T>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
}

double
randomDouble(Rng &rng)
{
    // Mix magnitudes (incl. denormal-ish and huge) so the bit-pattern
    // encoding is exercised far beyond friendly values.
    double mantissa =
        static_cast<double>(static_cast<std::int64_t>(rng()) >> 11) *
        0x1p-52;
    return std::ldexp(mantissa, pick(rng, -300, 300));
}

std::string
randomString(Rng &rng, std::size_t max_len = 24)
{
    std::string s(pick<std::size_t>(rng, 0, max_len), '\0');
    for (char &c : s) {
        c = static_cast<char>(rng() & 0xFF);  // arbitrary bytes, incl. NUL
    }
    return s;
}

bool
coin(Rng &rng)
{
    return (rng() & 1) != 0;
}

Mapping
randomMapping(Rng &rng)
{
    std::vector<LevelNest> levels(pick(rng, 1, 4));
    for (LevelNest &nest : levels) {
        nest.loops.resize(pick(rng, 0, 5));
        for (Loop &loop : nest.loops) {
            loop.dim = pick(rng, 0, 6);
            loop.bound = pick<std::int64_t>(rng, 1, 1 << 20);
            loop.spatial = coin(rng);
        }
        // Half the time leave keep empty (keep-all); the codec must
        // preserve the empty-vs-explicit distinction.
        if (coin(rng)) {
            nest.keep.resize(3);
            for (std::size_t t = 0; t < nest.keep.size(); ++t) {
                nest.keep[t] = coin(rng);
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

std::vector<std::int64_t>
randomInstances(Rng &rng)
{
    std::vector<std::int64_t> v(pick(rng, 1, 3));
    for (std::int64_t &x : v) {
        x = pick<std::int64_t>(rng, 1, 1 << 16);
    }
    return v;
}

DenseTraffic
randomDenseTraffic(Rng &rng)
{
    DenseTraffic dense;
    std::size_t rows = pick(rng, 1, 3);
    dense.levels.assign(rows, pick(rng, 1, 3));
    for (TensorLevelDense &t : dense.levels.flat()) {
        t.kept = coin(rng);
        t.footprint = randomDouble(rng);
        t.tile_extents.assign(pick(rng, 0, 4), 0);
        for (std::size_t i = 0; i < t.tile_extents.size(); ++i) {
            t.tile_extents[i] = pick<std::int64_t>(rng, 1, 1 << 16);
        }
        t.fills = randomDouble(rng);
        t.reads = randomDouble(rng);
        t.updates = randomDouble(rng);
        t.acc_reads = randomDouble(rng);
        t.drains = randomDouble(rng);
    }
    dense.computes = randomDouble(rng);
    dense.instances = randomInstances(rng);
    dense.compute_instances = pick<std::int64_t>(rng, 1, 1 << 16);
    return dense;
}

SparseTraffic
randomSparseTraffic(Rng &rng)
{
    SparseTraffic sparse;
    std::size_t rows = pick(rng, 1, 3);
    sparse.levels.assign(rows, pick(rng, 1, 3));
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
    sparse.instances = randomInstances(rng);
    sparse.compute_instances = pick<std::int64_t>(rng, 1, 1 << 16);
    return sparse;
}

EvalResult
randomEvalResult(Rng &rng)
{
    EvalResult result;
    result.valid = coin(rng);
    result.invalid_reason = randomString(rng);
    result.cycles = randomDouble(rng);
    result.energy_pj = randomDouble(rng);
    result.computes = randomBreakdown(rng);
    result.effectual_computes = randomDouble(rng);
    result.compute_energy_pj = randomDouble(rng);
    result.compute_cycles = randomDouble(rng);
    result.compute_instances = static_cast<std::int64_t>(rng() >> 32);
    result.levels.resize(pick(rng, 0, 3));
    for (LevelResult &level : result.levels) {
        level.name = randomString(rng);
        level.cycles = randomDouble(rng);
        level.energy_pj = randomDouble(rng);
        level.occupied_words = randomDouble(rng);
        level.worst_case_words = randomDouble(rng);
        level.bandwidth_demand = randomDouble(rng);
    }
    // Drawn and discarded: the other pinned encodings were captured
    // from the RNG stream that includes this draw.
    randomDenseTraffic(rng);
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
        Mapping back = decode<Mapping>(r);
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
        EXPECT_EQ(m, decode<Mapping>(r));
    }
}

TEST(ServiceWire, KeysRoundTripExactly)
{
    Rng rng(0xBEEF);
    for (int i = 0; i < 500; ++i) {
        EvalKey ek = randomEvalKey(rng);
        std::vector<std::uint8_t> eb = encoded(ek);
        WireReader er(eb);
        EXPECT_EQ(ek, decode<EvalKey>(er));
        EXPECT_TRUE(er.done());

        DenseKey dk = randomDenseKey(rng);
        std::vector<std::uint8_t> db = encoded(dk);
        WireReader dr(db);
        EXPECT_EQ(dk, decode<DenseKey>(dr));
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
        EvalResult back = decode<EvalResult>(r);
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
        EXPECT_EQ(dense, decode<DenseTraffic>(r));
        EXPECT_TRUE(r.done());
    }
}

TEST(ServiceWire, SparseTrafficRoundTripsExactly)
{
    Rng rng(0x5BA5);
    for (int i = 0; i < 100; ++i) {
        SparseTraffic sparse = randomSparseTraffic(rng);
        std::vector<std::uint8_t> bytes = encoded(sparse);
        WireReader r(bytes);
        EXPECT_EQ(sparse, decode<SparseTraffic>(r));
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
        EXPECT_EQ(m, decode<MetricVector>(r));
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
// Pinned encoding
// ---------------------------------------------------------------------------

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::uint8_t b : bytes) {
        h = (h ^ b) * 0x100000001B3ull;
    }
    return h;
}

/** One of each wire payload, drawn from a fixed seed. */
std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
pinnedCorpus()
{
    Rng rng(0x5EED);
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> out;
    out.emplace_back("Mapping", encoded(randomMapping(rng)));
    out.emplace_back("EvalKey", encoded(randomEvalKey(rng)));
    out.emplace_back("DenseKey", encoded(randomDenseKey(rng)));
    out.emplace_back("DenseTraffic", encoded(randomDenseTraffic(rng)));
    out.emplace_back("SparseTraffic", encoded(randomSparseTraffic(rng)));
    out.emplace_back("EvalResult", encoded(randomEvalResult(rng)));
    out.emplace_back("MetricVector", encoded(randomMetricVector(rng)));

    EvaluateBatchRequest batch;
    batch.context = "bitmask";
    batch.mappings = {randomMapping(rng), randomMapping(rng)};
    out.emplace_back("EvaluateBatchRequest", batch.encodePayload());
    EvaluateBatchReply results;
    results.results = {randomEvalResult(rng), randomEvalResult(rng)};
    results.points = 5;
    results.unique_points = 4;
    results.dense_groups = 3;
    out.emplace_back("EvaluateBatchReply", results.encodePayload());
    SearchRequest search;
    search.context = "coord-list";
    search.samples = 321;
    search.seed = rng();
    search.strategy = 3;
    search.batch_size = 64;
    search.threads = 2;
    search.use_warm_start = true;
    out.emplace_back("SearchRequest", search.encodePayload());
    SearchReply found;
    found.found = true;
    found.status = 1;
    found.mapping = randomMapping(rng);
    found.eval = randomEvalResult(rng);
    found.candidates_evaluated = 2000;
    found.candidates_valid = 1500;
    found.warm_start_candidates = 7;
    found.strategy = "annealing";
    out.emplace_back("SearchReply", found.encodePayload());
    CacheStatsReply stats;
    stats.result_hits = 1;
    stats.result_misses = 2;
    stats.dense_hits = 3;
    stats.dense_misses = 4;
    stats.result_entries = 5;
    stats.dense_entries = 6;
    stats.contexts = 7;
    stats.warm_elites = 8;
    stats.restored_entries = 9;
    out.emplace_back("CacheStatsReply", stats.encodePayload());
    ContextListReply names;
    names.names = {"bitmask", "coord-list", ""};
    out.emplace_back("ContextListReply", names.encodePayload());
    ErrorReply error;
    error.message = "unknown context 'x'";
    out.emplace_back("ErrorReply", error.encodePayload());

    // A snapshot of a cache and pool filled in a fixed order.
    EvalCache cache;
    std::vector<EvalCache::ResultEntry> result_entries;
    std::vector<EvalCache::DenseEntry> dense_entries;
    for (int i = 0; i < 3; ++i) {
        EvalKey rk = randomEvalKey(rng);
        result_entries.push_back(
            {rk, rk.hash(),
             std::make_shared<const EvalResult>(randomEvalResult(rng))});
        DenseKey dk = randomDenseKey(rng);
        dense_entries.push_back(
            {dk, dk.hash(),
             std::make_shared<const DenseTraffic>(randomDenseTraffic(rng))});
    }
    cache.storeResults(std::move(result_entries));
    cache.storeDenses(std::move(dense_entries));
    WarmStartPool pool;
    for (int i = 0; i < 3; ++i) {
        MetricVector metrics = randomMetricVector(rng);
        pool.record(randomMapping(rng), metrics, metrics.values[0]);
    }
    const std::string path = testing::TempDir() + "/pinned.snap";
    saveSnapshot(path, cache, &pool);
    std::ifstream file(path, std::ios::binary);
    out.emplace_back("snapshot",
                     std::vector<std::uint8_t>(
                         (std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>()));
    std::remove(path.c_str());
    return out;
}

TEST(ServiceWire, EncodingIsPinned)
{
    // The round-trip tests cannot see a layout change that both ends
    // make together. These pins can: any field-list change fails here,
    // and must come with a kProtocolVersion / kSnapshotVersion bump
    // and new pins.
    const std::vector<std::tuple<std::string, std::size_t, std::uint64_t>>
        pins = {
            {"Mapping", 77, 0x867809c47e79ad6aull},
            {"EvalKey", 32, 0xfaf65de31e9a491bull},
            {"DenseKey", 24, 0xe4ecfeace1517103ull},
            {"DenseTraffic", 129, 0x577bd73a5e1aaa59ull},
            {"SparseTraffic", 252, 0x46c6132f5dd973a8ull},
            {"EvalResult", 873, 0x4d3515a1279fe818ull},
            {"MetricVector", 40, 0x70f093ab23d98e03ull},
            {"EvaluateBatchRequest", 194, 0xa288ae33db78ae91ull},
            {"EvaluateBatchReply", 1858, 0x3cfb12b1f3b5b16dull},
            {"SearchRequest", 36, 0x3ab712df31415541ull},
            {"SearchReply", 1913, 0x5e7edd74deaaaf4full},
            {"CacheStatsReply", 64, 0x5fbd3fd3070f7984ull},
            {"ContextListReply", 33, 0x3287e59e744759eeull},
            {"ErrorReply", 23, 0xee2de6eac9fb3757ull},
            {"snapshot", 4545, 0x7e3c08c979dbb4d1ull},
        };
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> corpus =
        pinnedCorpus();
    ASSERT_EQ(pins.size(), corpus.size());
    for (std::size_t i = 0; i < pins.size(); ++i) {
        const auto &[name, bytes] = corpus[i];
        EXPECT_EQ(std::get<0>(pins[i]), name);
        EXPECT_EQ(std::get<1>(pins[i]), bytes.size()) << name;
        EXPECT_EQ(std::get<2>(pins[i]), fnv1a(bytes)) << name;
    }
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
            [](WireReader &r) { return decode<Mapping>(r); });
    }
}

TEST(ServiceWire, TruncatedEvalResultAlwaysRejected)
{
    Rng rng(0x7A12);
    for (int i = 0; i < 3; ++i) {
        expectAllPrefixesRejected(
            encoded(randomEvalResult(rng)),
            [](WireReader &r) { return decode<EvalResult>(r); });
    }
}

TEST(ServiceWire, TruncatedKeysAlwaysRejected)
{
    Rng rng(0x7A13);
    expectAllPrefixesRejected(
        encoded(randomEvalKey(rng)),
        [](WireReader &r) { return decode<EvalKey>(r); });
    expectAllPrefixesRejected(
        encoded(randomDenseKey(rng)),
        [](WireReader &r) { return decode<DenseKey>(r); });
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
    EXPECT_THROW(decode<Mapping>(r), WireError);
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
    EXPECT_THROW(decode<DenseTraffic>(r), WireError);
}

TEST(ServiceWire, TrailingBytesDetected)
{
    Rng rng(0x7A14);
    std::vector<std::uint8_t> bytes = encoded(randomEvalKey(rng));
    bytes.push_back(0);
    WireReader r(bytes);
    decode<EvalKey>(r);
    EXPECT_FALSE(r.done());
    EXPECT_THROW(r.expectDone("eval key"), WireError);
}

// ---------------------------------------------------------------------------
// Seeded structure-aware mutation of every decode entry point
// ---------------------------------------------------------------------------

/**
 * Call @p visit on mutants of the valid encoding @p bytes: every
 * truncation; each count or length field — at the offsets in
 * @p count_at, or at every 4-byte window when it is empty — set to
 * 0xFFFFFFFF and to one more than the bytes after it (a count just
 * past what could fit); and seeded single-byte flips.
 */
template <typename Visit>
void
forEachMutant(const std::vector<std::uint8_t> &bytes, std::uint64_t seed,
              Visit visit, std::vector<std::size_t> count_at = {})
{
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        visit(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut));
    }
    if (count_at.empty()) {
        for (std::size_t at = 0; at + 4 <= bytes.size(); ++at) {
            count_at.push_back(at);
        }
    }
    for (std::size_t at : count_at) {
        for (std::uint32_t value :
             {0xFFFFFFFFu,
              static_cast<std::uint32_t>(bytes.size() - at - 4 + 1)}) {
            std::vector<std::uint8_t> mutant = bytes;
            for (int i = 0; i < 4; ++i) {
                mutant[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
            }
            visit(mutant);
        }
    }
    Rng rng(seed);
    for (int i = 0; i < 256 && !bytes.empty(); ++i) {
        std::vector<std::uint8_t> mutant = bytes;
        mutant[pick<std::size_t>(rng, 0, bytes.size() - 1)] ^=
            static_cast<std::uint8_t>(pick(rng, 1, 255));
        visit(mutant);
    }
}

TEST(ServiceWire, MutatedPayloadsDecodeOrRejectCleanly)
{
    using Decoder = void (*)(WireReader &);
    const std::vector<std::pair<std::string, Decoder>> decoders = {
        {"Mapping", [](WireReader &r) { decode<Mapping>(r); }},
        {"EvalKey", [](WireReader &r) { decode<EvalKey>(r); }},
        {"DenseKey", [](WireReader &r) { decode<DenseKey>(r); }},
        {"DenseTraffic", [](WireReader &r) { decode<DenseTraffic>(r); }},
        {"SparseTraffic", [](WireReader &r) { decode<SparseTraffic>(r); }},
        {"EvalResult", [](WireReader &r) { decode<EvalResult>(r); }},
        {"MetricVector", [](WireReader &r) { decode<MetricVector>(r); }},
        {"EvaluateBatchRequest",
         [](WireReader &r) { EvaluateBatchRequest::decodePayload(r); }},
        {"EvaluateBatchReply",
         [](WireReader &r) { EvaluateBatchReply::decodePayload(r); }},
        {"SearchRequest",
         [](WireReader &r) { SearchRequest::decodePayload(r); }},
        {"SearchReply", [](WireReader &r) { SearchReply::decodePayload(r); }},
        {"CacheStatsReply",
         [](WireReader &r) { CacheStatsReply::decodePayload(r); }},
        {"ContextListReply",
         [](WireReader &r) { ContextListReply::decodePayload(r); }},
        {"ErrorReply", [](WireReader &r) { ErrorReply::decodePayload(r); }},
    };
    auto corpus = pinnedCorpus();
    corpus.pop_back();  // the snapshot: see the loadSnapshot test
    ASSERT_EQ(decoders.size(), corpus.size());
    for (std::size_t d = 0; d < decoders.size(); ++d) {
        const auto &[name, decoder] = decoders[d];
        const std::vector<std::uint8_t> &bytes = corpus[d].second;
        ASSERT_EQ(name, corpus[d].first);
        std::size_t rejected = 0;
        forEachMutant(bytes, d, [&](const std::vector<std::uint8_t> &m) {
            WireReader r(m);
            try {
                decoder(r);
            } catch (const WireError &) {
                ++rejected;
            } catch (const ProtocolError &) {
                ++rejected;
            } catch (const std::exception &e) {
                ADD_FAILURE() << name << ": " << e.what();
            }
        });
        // Every truncation, at least, is rejected.
        EXPECT_GE(rejected, bytes.size()) << name;
    }
}

TEST(ServiceWire, MutatedSnapshotsLoadOrRejectCleanly)
{
    const std::vector<std::uint8_t> snapshot = pinnedCorpus().back().second;
    const std::string path = testing::TempDir() + "/mutant.snap";
    auto load = [&](const std::vector<std::uint8_t> &bytes) {
        {
            std::ofstream file(path, std::ios::binary | std::ios::trunc);
            file.write(reinterpret_cast<const char *>(bytes.data()),
                       static_cast<std::streamsize>(bytes.size()));
        }
        EvalCache cache;
        WarmStartPool pool;
        SnapshotStats stats;
        EXPECT_NO_THROW(stats = loadSnapshot(path, cache, &pool));
        EXPECT_LE(stats.totalEntries(), 9u);  // what the corpus saved
    };

    // Records follow a 20-byte file header; each is kind (1), length
    // (4), checksum (8), then the payload.
    constexpr std::size_t kFileHeader = 20, kRecordHeader = 13;
    std::vector<std::size_t> length_at;
    std::vector<std::pair<std::size_t, std::size_t>> first_of_kind;
    std::vector<std::uint8_t> kinds_seen;
    for (std::size_t at = kFileHeader; at < snapshot.size();) {
        WireReader framing(snapshot.data() + at, kRecordHeader);
        const std::uint8_t kind = framing.u8();
        const std::size_t len = framing.u32();
        length_at.push_back(at + 1);
        if (len > 0 && std::find(kinds_seen.begin(), kinds_seen.end(),
                                 kind) == kinds_seen.end()) {
            kinds_seen.push_back(kind);
            first_of_kind.emplace_back(at, len);
        }
        at += kRecordHeader + len;
    }
    ASSERT_EQ(3u, first_of_kind.size());

    // The file as a whole: crash truncation, record lengths, flips.
    forEachMutant(snapshot, 1, load, length_at);

    // One record payload of each kind, its checksum recomputed so the
    // mutation reaches the record decoder instead of the checksum.
    for (const auto &[at, len] : first_of_kind) {
        const auto body = snapshot.begin() +
                          static_cast<std::ptrdiff_t>(at + kRecordHeader);
        const std::size_t rest = at + kRecordHeader + len;
        forEachMutant(
            std::vector<std::uint8_t>(body,
                                      body + static_cast<std::ptrdiff_t>(len)),
            at, [&](const std::vector<std::uint8_t> &payload) {
                WireWriter w;
                w.bytes(snapshot.data(), at + 1);
                w.u32(static_cast<std::uint32_t>(payload.size()));
                w.u64(fnv1a(payload));
                w.bytes(payload.data(), payload.size());
                w.bytes(snapshot.data() + rest, snapshot.size() - rest);
                load(w.buffer());
            });
    }
    std::remove(path.c_str());
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

TEST(ServiceProtocol, OversizedReplyComesBackAsError)
{
    ServiceRegistry registry;
    for (ServiceContextSpec &spec : standardServiceContexts(8, 8, 8)) {
        registry.addContext(std::move(spec));
    }
    // One copy more than the frame bound has room for in the reply:
    // the reply overflows it while the request stays far below it.
    const ServiceContextSpec &spec = registry.find("bitmask")->spec;
    WireWriter one;
    encode(one, Engine(spec.arch).evaluate(spec.workload, spec.canonical,
                                           spec.safs));
    EvaluateBatchRequest req;
    req.context = "bitmask";
    req.mappings.assign(kMaxFramePayload / one.size() + 1, spec.canonical);
    std::vector<std::uint8_t> payload = req.encodePayload();
    ASSERT_LT(payload.size(), kMaxFramePayload);
    SessionEffects effects;
    std::vector<std::uint8_t> reply =
        handleRequest(registry, FrameType::kEvaluateBatch, payload.data(),
                      payload.size(), effects);
    ASSERT_GE(reply.size(), kFrameHeaderBytes);
    EXPECT_EQ(decodeFrameHeader(reply.data()).type, FrameType::kError);
    WireReader r(reply.data() + kFrameHeaderBytes,
                 reply.size() - kFrameHeaderBytes);
    std::string message = ErrorReply::decodePayload(r).message;
    EXPECT_NE(message.find(std::to_string(kMaxFramePayload)),
              std::string::npos)
        << message;
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
