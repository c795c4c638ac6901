/**
 * @file
 * Transport-independent request dispatch: one decoded frame in, one
 * encoded response frame out. The TCP server (service/server.hh)
 * wraps this in its connection loop; tests can drive it directly to
 * exercise every request path without a socket.
 */

#ifndef SPARSELOOP_SERVICE_SESSION_HH
#define SPARSELOOP_SERVICE_SESSION_HH

#include "service/protocol.hh"
#include "service/registry.hh"

namespace sparseloop {

/** Side effects a response cannot carry. */
struct SessionEffects
{
    /** The request was a kShutdown: the server should stop serving
     *  once the response is flushed. */
    bool shutdown_requested = false;
    /** The request may have added cache entries (snapshot-threshold
     *  accounting). */
    bool wrote_cache = false;
};

/**
 * Handle one request frame against @p registry and return the
 * complete encoded response frame. Never throws for request-level
 * failures — an unknown context, a mapping the engine rejects, a
 * malformed payload, a reply too large for one frame — those come
 * back as `kError` frames; programming errors (bad_alloc et al.) still
 * propagate.
 *
 * @param restored_entries surfaced in cache-stats replies (the
 *        daemon's snapshot-restore count; pass 0 without persistence).
 */
std::vector<std::uint8_t>
handleRequest(const ServiceRegistry &registry, FrameType type,
              const std::uint8_t *payload, std::size_t payload_size,
              SessionEffects &effects,
              std::uint64_t restored_entries = 0);

} // namespace sparseloop

#endif // SPARSELOOP_SERVICE_SESSION_HH
