/**
 * @file
 * ServiceClient implementation: blocking framed RPC over a TCP
 * socket, on the server's readFull/writeFull loops.
 */

#include "service/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sparseloop {

ServiceClient::~ServiceClient()
{
    close();
}

void
ServiceClient::connect(const std::string &host, int port)
{
    close();
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw ServiceError(std::string("socket failed: ") +
                           std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw ServiceError("bad server address " + host);
    }
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        std::string err = std::strerror(errno);
        ::close(fd);
        throw ServiceError("cannot connect to " + host + ":" +
                           std::to_string(port) + ": " + err);
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fd_ = fd;
}

void
ServiceClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::pair<FrameType, std::vector<std::uint8_t>>
ServiceClient::roundTrip(FrameType type,
                         const std::vector<std::uint8_t> &payload)
{
    if (fd_ < 0) {
        throw ServiceError("client is not connected");
    }
    std::vector<std::uint8_t> frame = encodeFrame(type, payload);
    writeFull(fd_, frame.data(), frame.size());

    std::uint8_t header[kFrameHeaderBytes];
    if (!readFull(fd_, header, sizeof(header))) {
        throw ServiceError("server closed the connection");
    }
    FrameHeader h = decodeFrameHeader(header);
    std::vector<std::uint8_t> body(h.payload_size);
    if (h.payload_size > 0 && !readFull(fd_, body.data(), body.size())) {
        throw ServiceError("server closed the connection");
    }
    if (h.type == FrameType::kError) {
        WireReader r(body.data(), body.size());
        ErrorReply err = ErrorReply::decodePayload(r);
        throw ServiceError("server error: " + err.message);
    }
    return {h.type, std::move(body)};
}

std::vector<std::uint8_t>
ServiceClient::expect(FrameType request,
                      const std::vector<std::uint8_t> &payload,
                      FrameType expected)
{
    auto [type, body] = roundTrip(request, payload);
    if (type != expected) {
        throw ServiceError(
            "unexpected response frame type " +
            std::to_string(static_cast<unsigned>(type)));
    }
    return std::move(body);
}

void
ServiceClient::ping()
{
    expect(FrameType::kPing, {}, FrameType::kPong);
}

std::vector<std::string>
ServiceClient::listContexts()
{
    std::vector<std::uint8_t> body =
        expect(FrameType::kListContexts, {}, FrameType::kContextList);
    WireReader r(body.data(), body.size());
    return ContextListReply::decodePayload(r).names;
}

std::vector<EvalResult>
ServiceClient::evaluateBatch(const std::string &context,
                             const std::vector<Mapping> &mappings,
                             EvaluateBatchReply *reply_stats)
{
    EvaluateBatchRequest req;
    req.context = context;
    req.mappings = mappings;
    std::vector<std::uint8_t> body = expect(
        FrameType::kEvaluateBatch, req.encodePayload(),
        FrameType::kEvalResults);
    WireReader r(body.data(), body.size());
    EvaluateBatchReply reply = EvaluateBatchReply::decodePayload(r);
    std::vector<EvalResult> results = std::move(reply.results);
    if (reply_stats != nullptr) {
        reply_stats->points = reply.points;
        reply_stats->unique_points = reply.unique_points;
        reply_stats->dense_groups = reply.dense_groups;
        reply_stats->results.clear();
    }
    return results;
}

SearchReply
ServiceClient::search(const std::string &context,
                      const ClientSearchOptions &options)
{
    SearchRequest req;
    req.context = context;
    req.samples = options.samples;
    req.seed = options.seed;
    req.strategy = static_cast<std::uint8_t>(options.strategy);
    req.batch_size = options.batch_size;
    req.threads = options.threads;
    req.use_warm_start = options.use_warm_start;
    std::vector<std::uint8_t> body = expect(
        FrameType::kSearch, req.encodePayload(), FrameType::kSearchResult);
    WireReader r(body.data(), body.size());
    return SearchReply::decodePayload(r);
}

CacheStatsReply
ServiceClient::cacheStats()
{
    std::vector<std::uint8_t> body = expect(
        FrameType::kCacheStats, {}, FrameType::kCacheStatsResult);
    WireReader r(body.data(), body.size());
    return CacheStatsReply::decodePayload(r);
}

void
ServiceClient::shutdownServer()
{
    expect(FrameType::kShutdown, {}, FrameType::kAck);
}

} // namespace sparseloop
