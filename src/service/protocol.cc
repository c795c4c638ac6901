/**
 * @file
 * Frame and payload codecs for the sparseloopd protocol.
 */

#include "service/protocol.hh"

#include <climits>
#include <cstdio>

namespace sparseloop {

namespace {

/** A u32 count the session casts to `int`: values above INT_MAX would
 *  wrap to a negative budget, so they are refused on decode. */
std::uint32_t
intCount(WireReader &r, const char *field)
{
    std::uint32_t value = r.u32();
    if (value > static_cast<std::uint32_t>(INT_MAX)) {
        throw WireError(std::string(field) + " " +
                        std::to_string(value) + " exceeds INT_MAX");
    }
    return value;
}

} // namespace

std::vector<std::uint8_t>
encodeFrame(FrameType type, const std::vector<std::uint8_t> &payload)
{
    if (payload.size() > kMaxFramePayload) {
        throw ProtocolError("frame payload of " +
                            std::to_string(payload.size()) +
                            " bytes exceeds the " +
                            std::to_string(kMaxFramePayload) +
                            "-byte bound");
    }
    WireWriter w;
    w.u32(kFrameMagic);
    w.u16(kProtocolVersion);
    w.u16(static_cast<std::uint16_t>(type));
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.bytes(payload.data(), payload.size());
    return w.take();
}

FrameHeader
decodeFrameHeader(const std::uint8_t *bytes)
{
    WireReader r(bytes, kFrameHeaderBytes);
    std::uint32_t magic = r.u32();
    if (magic != kFrameMagic) {
        throw ProtocolError("bad frame magic 0x" + [magic] {
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%08x", magic);
            return std::string(buf);
        }());
    }
    std::uint16_t version = r.u16();
    if (version != kProtocolVersion) {
        throw ProtocolError("protocol version mismatch: peer speaks v" +
                            std::to_string(version) + ", this build v" +
                            std::to_string(kProtocolVersion));
    }
    FrameHeader h;
    h.type = static_cast<FrameType>(r.u16());
    h.payload_size = r.u32();
    if (h.payload_size > kMaxFramePayload) {
        throw ProtocolError("frame payload length " +
                            std::to_string(h.payload_size) +
                            " exceeds the " +
                            std::to_string(kMaxFramePayload) +
                            "-byte bound");
    }
    return h;
}

// ---------------------------------------------------------------------------
// Payload schemas
// ---------------------------------------------------------------------------

std::vector<std::uint8_t>
EvaluateBatchRequest::encodePayload() const
{
    WireWriter w;
    w.str(context);
    w.u32(static_cast<std::uint32_t>(mappings.size()));
    for (const Mapping &m : mappings) {
        encode(w, m);
    }
    return w.take();
}

EvaluateBatchRequest
EvaluateBatchRequest::decodePayload(WireReader &r)
{
    EvaluateBatchRequest req;
    req.context = r.str();
    std::size_t n = r.count(4);
    req.mappings.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        req.mappings.push_back(decodeMapping(r));
    }
    r.expectDone("EvaluateBatchRequest");
    return req;
}

std::vector<std::uint8_t>
EvaluateBatchReply::encodePayload() const
{
    WireWriter w;
    w.u32(static_cast<std::uint32_t>(results.size()));
    for (const EvalResult &result : results) {
        encode(w, result);
    }
    w.i64(points);
    w.i64(unique_points);
    w.i64(dense_groups);
    return w.take();
}

EvaluateBatchReply
EvaluateBatchReply::decodePayload(WireReader &r)
{
    EvaluateBatchReply reply;
    std::size_t n = r.count(24);
    reply.results.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        reply.results.push_back(decodeEvalResult(r));
    }
    reply.points = r.i64();
    reply.unique_points = r.i64();
    reply.dense_groups = r.i64();
    r.expectDone("EvaluateBatchReply");
    return reply;
}

std::vector<std::uint8_t>
SearchRequest::encodePayload() const
{
    WireWriter w;
    w.str(context);
    w.u32(samples);
    w.u64(seed);
    w.u8(strategy);
    w.u32(batch_size);
    w.u32(threads);
    w.boolean(use_warm_start);
    return w.take();
}

SearchRequest
SearchRequest::decodePayload(WireReader &r)
{
    SearchRequest req;
    req.context = r.str();
    req.samples = intCount(r, "samples");
    req.seed = r.u64();
    req.strategy = r.u8();
    if (req.strategy >
        static_cast<std::uint8_t>(SearchStrategyKind::Hierarchical)) {
        throw WireError("unknown search strategy id " +
                        std::to_string(req.strategy));
    }
    req.batch_size = intCount(r, "batch_size");
    req.threads = intCount(r, "threads");
    req.use_warm_start = r.boolean();
    r.expectDone("SearchRequest");
    return req;
}

std::vector<std::uint8_t>
SearchReply::encodePayload() const
{
    WireWriter w;
    w.boolean(found);
    w.u8(status);
    encode(w, mapping);
    encode(w, eval);
    w.i64(candidates_evaluated);
    w.i64(candidates_valid);
    w.i64(warm_start_candidates);
    w.str(strategy);
    return w.take();
}

SearchReply
SearchReply::decodePayload(WireReader &r)
{
    SearchReply reply;
    reply.found = r.boolean();
    reply.status = r.u8();
    reply.mapping = decodeMapping(r);
    reply.eval = decodeEvalResult(r);
    reply.candidates_evaluated = r.i64();
    reply.candidates_valid = r.i64();
    reply.warm_start_candidates = r.i64();
    reply.strategy = r.str();
    r.expectDone("SearchReply");
    return reply;
}

std::vector<std::uint8_t>
CacheStatsReply::encodePayload() const
{
    WireWriter w;
    w.i64(result_hits);
    w.i64(result_misses);
    w.i64(dense_hits);
    w.i64(dense_misses);
    w.u64(result_entries);
    w.u64(dense_entries);
    w.u32(contexts);
    w.u32(warm_elites);
    w.u64(restored_entries);
    return w.take();
}

CacheStatsReply
CacheStatsReply::decodePayload(WireReader &r)
{
    CacheStatsReply reply;
    reply.result_hits = r.i64();
    reply.result_misses = r.i64();
    reply.dense_hits = r.i64();
    reply.dense_misses = r.i64();
    reply.result_entries = r.u64();
    reply.dense_entries = r.u64();
    reply.contexts = r.u32();
    reply.warm_elites = r.u32();
    reply.restored_entries = r.u64();
    r.expectDone("CacheStatsReply");
    return reply;
}

std::vector<std::uint8_t>
ContextListReply::encodePayload() const
{
    WireWriter w;
    w.u32(static_cast<std::uint32_t>(names.size()));
    for (const std::string &name : names) {
        w.str(name);
    }
    return w.take();
}

ContextListReply
ContextListReply::decodePayload(WireReader &r)
{
    ContextListReply reply;
    std::size_t n = r.count(4);
    reply.names.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        reply.names.push_back(r.str());
    }
    r.expectDone("ContextListReply");
    return reply;
}

std::vector<std::uint8_t>
ErrorReply::encodePayload() const
{
    WireWriter w;
    w.str(message);
    return w.take();
}

ErrorReply
ErrorReply::decodePayload(WireReader &r)
{
    ErrorReply reply;
    reply.message = r.str();
    r.expectDone("ErrorReply");
    return reply;
}

} // namespace sparseloop
