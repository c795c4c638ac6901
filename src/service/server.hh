/**
 * @file
 * sparseloopd: the persistent DSE evaluation daemon.
 *
 * A blocking TCP server that multiplexes concurrent client
 * connections onto the shared BatchEvaluator / EvalCache /
 * worker-pool machinery: one accept thread, one thread per
 * connection, one request frame handled at a time per connection
 * (service/session.hh). All evaluation state is the
 * `ServiceRegistry`'s — the server owns only sockets and threads, so
 * everything a client observes is bit-identical to driving the
 * registry's evaluators in-process.
 *
 * Persistence: when `ServerOptions::snapshot_path` is set, the server
 * loads the snapshot before accepting (verified, never trusted — see
 * service/persistence.hh), saves it on `stop()`, and re-saves
 * whenever `snapshot_every_entries` new cache entries have
 * accumulated since the last save.
 *
 * Lifecycle:
 * @code
 *   ServiceServer server(registry, options);
 *   server.start();                 // bound; port() is live
 *   server.waitForShutdownRequest();// blocks until a kShutdown frame
 *   server.stop();                  // drain, snapshot, join
 * @endcode
 */

#ifndef SPARSELOOP_SERVICE_SERVER_HH
#define SPARSELOOP_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <thread>

#include "service/persistence.hh"
#include "service/session.hh"

namespace sparseloop {

/** A socket-layer failure (bind, accept, read, write). */
class ServiceError : public std::runtime_error
{
  public:
    explicit ServiceError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/**
 * read(2) exactly @p n bytes, retrying EINTR. Returns false when the
 * peer closed the stream before the first byte (a clean EOF between
 * frames); throws `ServiceError` on an EOF mid-message or a read
 * error.
 */
bool readFull(int fd, std::uint8_t *buf, std::size_t n);

/** write(2) all @p n bytes, retrying EINTR; throws `ServiceError` on
 *  a write error. */
void writeFull(int fd, const std::uint8_t *buf, std::size_t n);

/** Daemon knobs. */
struct ServerOptions
{
    /** Listen address; loopback by default. */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (read it via `port()`). */
    int port = 0;
    /** Snapshot file; empty disables persistence. */
    std::string snapshot_path;
    /** Re-snapshot after this many new cache entries accumulate
     *  (0 = only on stop()). */
    std::size_t snapshot_every_entries = 0;
};

class ServiceServer
{
  public:
    /** @param registry must outlive the server. */
    ServiceServer(std::shared_ptr<ServiceRegistry> registry,
                  ServerOptions options = {});
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /**
     * Load the snapshot (when configured), bind, listen, and start
     * the accept thread. Throws `ServiceError` when the socket cannot
     * be bound. Idempotence: fatal to start twice.
     */
    void start();

    /** The bound TCP port (valid after `start()`). */
    int port() const { return port_; }

    /** Whether `start()` has run and `stop()` has not. */
    bool running() const { return running_.load(); }

    /**
     * Block until some client sends a kShutdown frame or another
     * thread calls `stop()`. Returns immediately if either already
     * happened.
     */
    void waitForShutdownRequest();

    /**
     * Stop accepting, unblock and join every connection thread, and
     * save the snapshot (when configured). Idempotent and safe to
     * call from any thread except a connection thread.
     */
    void stop();

    /** What the startup snapshot load found (zeroes when persistence
     *  is off or no file existed). */
    const SnapshotStats &restoreStats() const { return restore_stats_; }

  private:
    void acceptLoop();
    void connectionLoop(int fd);
    void maybeSnapshot();
    void saveNow();

    std::shared_ptr<ServiceRegistry> registry_;
    ServerOptions options_;
    int listen_fd_ = -1;
    int port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> shutdown_requested_{false};
    std::thread accept_thread_;

    std::mutex conn_mutex_;
    /** Live connection fds (for shutdown(2) on stop). */
    std::vector<int> conn_fds_;
    std::vector<std::thread> conn_threads_;

    std::mutex shutdown_mutex_;
    std::condition_variable shutdown_cv_;

    std::mutex snapshot_mutex_;
    std::size_t entries_at_last_snapshot_ = 0;
    SnapshotStats restore_stats_;
};

} // namespace sparseloop

#endif // SPARSELOOP_SERVICE_SERVER_HH
