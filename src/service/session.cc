/**
 * @file
 * Request dispatch onto the BatchEvaluator / Mapper / EvalCache
 * machinery.
 */

#include "service/session.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sparseloop {

namespace {

std::vector<std::uint8_t>
errorFrame(const std::string &message)
{
    ErrorReply reply{{}, message};
    return encodeFrame(FrameType::kError, reply.encodePayload());
}

std::vector<std::uint8_t>
handleEvaluateBatch(const ServiceRegistry &registry, WireReader &r,
                    SessionEffects &effects)
{
    EvaluateBatchRequest req = EvaluateBatchRequest::decodePayload(r);
    const ServiceRegistry::Context *ctx = registry.find(req.context);
    if (ctx == nullptr) {
        return errorFrame("unknown context '" + req.context + "'");
    }
    std::vector<const Mapping *> mappings;
    mappings.reserve(req.mappings.size());
    for (const Mapping &m : req.mappings) {
        mappings.push_back(&m);
    }
    BatchStats stats;
    // evaluateMappings (not evaluateBatch): one malformed mapping in
    // a client's batch comes back as an invalid result with the
    // engine's message, instead of failing the whole request.
    EvaluateBatchReply reply;
    reply.results = ctx->evaluator->evaluateMappings(
        ctx->spec.workload, mappings, ctx->spec.safs, &stats);
    reply.points = stats.points;
    reply.unique_points = stats.unique_points;
    reply.dense_groups = stats.dense_groups;
    effects.wrote_cache = true;
    return encodeFrame(FrameType::kEvalResults, reply.encodePayload());
}

std::vector<std::uint8_t>
handleSearch(const ServiceRegistry &registry, WireReader &r,
             SessionEffects &effects)
{
    SearchRequest req = SearchRequest::decodePayload(r);
    const ServiceRegistry::Context *ctx = registry.find(req.context);
    if (ctx == nullptr) {
        return errorFrame("unknown context '" + req.context + "'");
    }
    MapperOptions options;
    options.samples = static_cast<int>(req.samples);
    options.seed = req.seed;
    options.strategy = static_cast<SearchStrategyKind>(req.strategy);
    options.batch_size = std::max(1, static_cast<int>(req.batch_size));
    options.cache = registry.cachePtr();
    if (req.use_warm_start) {
        options.warm_start = registry.warmStartPtr();
    }
    Mapper mapper(ctx->spec.workload, ctx->spec.arch, ctx->spec.safs,
                  options);
    MapperResult result =
        mapper.searchWithThreads(static_cast<int>(req.threads));

    SearchReply reply;
    reply.found = result.found;
    reply.status = static_cast<std::uint8_t>(result.status);
    reply.mapping = std::move(result.mapping);
    reply.eval = std::move(result.eval);
    reply.candidates_evaluated = result.candidates_evaluated;
    reply.candidates_valid = result.candidates_valid;
    reply.warm_start_candidates = result.warm_start_candidates;
    reply.strategy = std::move(result.strategy);
    effects.wrote_cache = true;
    return encodeFrame(FrameType::kSearchResult, reply.encodePayload());
}

std::vector<std::uint8_t>
handleCacheStats(const ServiceRegistry &registry,
                 std::uint64_t restored_entries)
{
    EvalCacheStats stats = registry.cache().stats();
    CacheStatsReply reply;
    reply.result_hits = stats.result_hits;
    reply.result_misses = stats.result_misses;
    reply.dense_hits = stats.dense_hits;
    reply.dense_misses = stats.dense_misses;
    reply.result_entries = stats.result_entries;
    reply.dense_entries = stats.dense_entries;
    reply.contexts = static_cast<std::uint32_t>(registry.contextCount());
    reply.warm_elites =
        static_cast<std::uint32_t>(registry.warmStart().size());
    reply.restored_entries = restored_entries;
    return encodeFrame(FrameType::kCacheStatsResult,
                       reply.encodePayload());
}

} // namespace

std::vector<std::uint8_t>
handleRequest(const ServiceRegistry &registry, FrameType type,
              const std::uint8_t *payload, std::size_t payload_size,
              SessionEffects &effects, std::uint64_t restored_entries)
{
    WireReader r(payload, payload_size);
    try {
        switch (type) {
        case FrameType::kPing:
            return encodeFrame(FrameType::kPong, {});
        case FrameType::kEvaluateBatch:
            return handleEvaluateBatch(registry, r, effects);
        case FrameType::kSearch:
            return handleSearch(registry, r, effects);
        case FrameType::kCacheStats:
            return handleCacheStats(registry, restored_entries);
        case FrameType::kListContexts: {
            ContextListReply reply{{}, registry.names()};
            return encodeFrame(FrameType::kContextList,
                               reply.encodePayload());
        }
        case FrameType::kShutdown:
            effects.shutdown_requested = true;
            return encodeFrame(FrameType::kAck, {});
        default:
            return errorFrame(
                "unexpected frame type " +
                std::to_string(static_cast<unsigned>(type)));
        }
    } catch (const WireError &e) {
        return errorFrame(std::string("malformed request: ") + e.what());
    } catch (const FatalError &e) {
        return errorFrame(std::string("evaluation failed: ") + e.what());
    } catch (const ProtocolError &e) {
        // Only encodeFrame throws it here: the reply (a huge batch)
        // outgrew the frame bound. Fail the request, not the daemon.
        return errorFrame(std::string("reply too large: ") + e.what());
    }
}

} // namespace sparseloop
