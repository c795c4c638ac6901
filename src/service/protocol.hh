/**
 * @file
 * The sparseloopd framing protocol: versioned, length-prefixed binary
 * frames over a byte stream (TCP in practice; any reliable stream
 * works).
 *
 * Frame layout (all little-endian, 12-byte header):
 *
 *     offset  size  field
 *     0       4     magic       0x53504C44 ("SPLD")
 *     4       2     version     kProtocolVersion
 *     6       2     type        FrameType
 *     8       4     length      payload byte count
 *     12      len   payload     wire.hh-encoded request/response body
 *
 * A peer rejects frames with a wrong magic or version and payloads
 * larger than `kMaxFramePayload` *before* reading the body, so a
 * garbage or hostile stream can never drive a giant allocation. Every
 * request frame gets exactly one response frame; protocol-level
 * failures come back as a `kError` frame carrying a message, and the
 * client surfaces them as `ServiceError` exceptions.
 *
 * Request/response payload schemas live in the structs below, each
 * with its field list (common/fields.hh); the `Payload` base turns that
 * list into `encodePayload` and a static `decodePayload` that must
 * consume the payload exactly (trailing bytes are a protocol error).
 */

#ifndef SPARSELOOP_SERVICE_PROTOCOL_HH
#define SPARSELOOP_SERVICE_PROTOCOL_HH

#include "mapper/mapper.hh"
#include "service/wire.hh"

namespace sparseloop {

/** A well-formed byte stream that violates the framing contract. */
class ProtocolError : public std::runtime_error
{
  public:
    explicit ProtocolError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** "SPLD" — first four bytes of every frame. */
inline constexpr std::uint32_t kFrameMagic = 0x53504C44u;
/** Bumped on any wire-visible schema change. */
inline constexpr std::uint16_t kProtocolVersion = 2;
/** Hard bound on one frame's payload (64 MiB). */
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;
/** Bytes of a frame header on the wire. */
inline constexpr std::size_t kFrameHeaderBytes = 12;

/** Frame discriminator (requests and responses share the space). */
enum class FrameType : std::uint16_t
{
    kError = 0,          ///< response: message (request failed)
    kPing = 1,           ///< request: empty
    kPong = 2,           ///< response: empty
    kEvaluateBatch = 3,  ///< request: EvaluateBatchRequest
    kEvalResults = 4,    ///< response: EvaluateBatchReply
    kSearch = 5,         ///< request: SearchRequest
    kSearchResult = 6,   ///< response: SearchReply
    kCacheStats = 7,     ///< request: empty
    kCacheStatsResult = 8, ///< response: CacheStatsReply
    kShutdown = 9,       ///< request: empty (server stops after Ack)
    kAck = 10,           ///< response: empty
    kListContexts = 11,  ///< request: empty
    kContextList = 12,   ///< response: ContextListReply
};

/** Decoded frame header. */
struct FrameHeader
{
    FrameType type = FrameType::kError;
    std::uint32_t payload_size = 0;
};

/** Serialize one complete frame (header + payload). */
std::vector<std::uint8_t> encodeFrame(FrameType type,
                                      const std::vector<std::uint8_t>
                                          &payload);

/**
 * Decode and validate a 12-byte header. Throws `ProtocolError` on a
 * magic/version mismatch or an oversized payload length.
 */
FrameHeader decodeFrameHeader(const std::uint8_t *bytes);

// ---------------------------------------------------------------------------
// Payload schemas
// ---------------------------------------------------------------------------

/**
 * The two codec members of every payload struct, built from the
 * struct's field list. `Derived` names itself in `kName` (used in
 * trailing-bytes errors) and may hide `check` to validate a decoded
 * value beyond its layout.
 */
template <typename Derived>
struct Payload
{
    std::vector<std::uint8_t> encodePayload() const
    {
        WireWriter w;
        w(static_cast<const Derived &>(*this));
        return w.take();
    }

    static Derived decodePayload(WireReader &r)
    {
        Derived payload;
        r(payload);
        payload.check();
        r.expectDone(Derived::kName);
        return payload;
    }

    void check() const {}
};

/** Evaluate a batch of mappings against one named server context. */
struct EvaluateBatchRequest : Payload<EvaluateBatchRequest>
{
    static constexpr const char *kName = "EvaluateBatchRequest";
    std::string context;
    std::vector<Mapping> mappings;
};

template <typename A>
void
fields(A &a, EvaluateBatchRequest &p)
{
    a(p.context, p.mappings);
}

/** One `EvalResult` per requested mapping, in request order. */
struct EvaluateBatchReply : Payload<EvaluateBatchReply>
{
    static constexpr const char *kName = "EvaluateBatchReply";
    std::vector<EvalResult> results;
    /** Work-sharing accounting of the server-side batch. */
    std::int64_t points = 0;
    std::int64_t unique_points = 0;
    std::int64_t dense_groups = 0;
};

template <typename A>
void
fields(A &a, EvaluateBatchReply &p)
{
    a(p.results, p.points, p.unique_points, p.dense_groups);
}

/** Run a mapspace search on one named server context. */
struct SearchRequest : Payload<SearchRequest>
{
    static constexpr const char *kName = "SearchRequest";
    std::string context;
    std::uint32_t samples = 2000;
    std::uint64_t seed = 0xC0FFEE;
    /** Cast of `SearchStrategyKind` (validated on decode). */
    std::uint8_t strategy =
        static_cast<std::uint8_t>(SearchStrategyKind::Auto);
    std::uint32_t batch_size = 256;
    /** Evaluation worker threads (0 = all cores). Never affects the
     *  result, only wall-clock — the search contract. */
    std::uint32_t threads = 1;
    /**
     * Seed the search from (and record its best back into) the
     * daemon's shared warm-start pool. Off by default so a search
     * reply stays bit-identical to a local `Mapper::search` with the
     * same options.
     */
    bool use_warm_start = false;

    /** Refuse counts above INT_MAX (the session casts them to int)
     *  and unknown strategy ids. */
    void check() const;
};

template <typename A>
void
fields(A &a, SearchRequest &p)
{
    a(p.context, p.samples, p.seed, p.strategy, p.batch_size, p.threads,
      p.use_warm_start);
}

/** The wire subset of `MapperResult` (see docs/service.md). */
struct SearchReply : Payload<SearchReply>
{
    static constexpr const char *kName = "SearchReply";
    bool found = false;
    /** Cast of `SearchStatus`. */
    std::uint8_t status = 0;
    Mapping mapping;
    EvalResult eval;
    std::int64_t candidates_evaluated = 0;
    std::int64_t candidates_valid = 0;
    std::int64_t warm_start_candidates = 0;
    std::string strategy;
};

template <typename A>
void
fields(A &a, SearchReply &p)
{
    a(p.found, p.status, p.mapping, p.eval, p.candidates_evaluated,
      p.candidates_valid, p.warm_start_candidates, p.strategy);
}

/** Daemon-wide cache/pool observability counters. */
struct CacheStatsReply : Payload<CacheStatsReply>
{
    static constexpr const char *kName = "CacheStatsReply";
    std::int64_t result_hits = 0;
    std::int64_t result_misses = 0;
    std::int64_t dense_hits = 0;
    std::int64_t dense_misses = 0;
    std::uint64_t result_entries = 0;
    std::uint64_t dense_entries = 0;
    std::uint32_t contexts = 0;
    std::uint32_t warm_elites = 0;
    /** Entries restored from the snapshot at daemon start. */
    std::uint64_t restored_entries = 0;
};

template <typename A>
void
fields(A &a, CacheStatsReply &p)
{
    a(p.result_hits, p.result_misses, p.dense_hits, p.dense_misses,
      p.result_entries, p.dense_entries, p.contexts, p.warm_elites,
      p.restored_entries);
}

/** The server's registered context names. */
struct ContextListReply : Payload<ContextListReply>
{
    static constexpr const char *kName = "ContextListReply";
    std::vector<std::string> names;
};

template <typename A>
void
fields(A &a, ContextListReply &p)
{
    a(p.names);
}

/** `kError` payload: a human-readable failure message. */
struct ErrorReply : Payload<ErrorReply>
{
    static constexpr const char *kName = "ErrorReply";
    std::string message;
};

template <typename A>
void
fields(A &a, ErrorReply &p)
{
    a(p.message);
}

} // namespace sparseloop

#endif // SPARSELOOP_SERVICE_PROTOCOL_HH
