/**
 * @file
 * The sparseloopd TCP server: POSIX sockets, one thread per
 * connection, frame loop over service/session.hh dispatch.
 */

#include "service/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace sparseloop {

namespace {

/** listen(2) backlog. */
constexpr int kAcceptBacklog = 16;

} // namespace

bool
readFull(int fd, std::uint8_t *buf, std::size_t n)
{
    std::size_t got = 0;
    while (got < n) {
        ssize_t r = ::read(fd, buf + got, n - got);
        if (r == 0) {
            if (got == 0) {
                return false;  // peer closed between frames
            }
            throw ServiceError("connection closed mid-frame");
        }
        if (r < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw ServiceError(std::string("read failed: ") +
                               std::strerror(errno));
        }
        got += static_cast<std::size_t>(r);
    }
    return true;
}

void
writeFull(int fd, const std::uint8_t *buf, std::size_t n)
{
    std::size_t sent = 0;
    while (sent < n) {
        ssize_t r = ::write(fd, buf + sent, n - sent);
        if (r < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw ServiceError(std::string("write failed: ") +
                               std::strerror(errno));
        }
        sent += static_cast<std::size_t>(r);
    }
}

ServiceServer::ServiceServer(std::shared_ptr<ServiceRegistry> registry,
                             ServerOptions options)
    : registry_(std::move(registry)), options_(std::move(options))
{
    if (!registry_) {
        SL_FATAL("ServiceServer needs a registry");
    }
}

ServiceServer::~ServiceServer()
{
    stop();
}

void
ServiceServer::start()
{
    if (running_.load()) {
        SL_FATAL("ServiceServer::start called twice");
    }

    if (!options_.snapshot_path.empty()) {
        restore_stats_ = loadSnapshot(options_.snapshot_path,
                                      registry_->cache(),
                                      &registry_->warmStart());
        if (!restore_stats_.error.empty()) {
            SL_WARN("sparseloopd: ", restore_stats_.error);
        }
        EvalCacheStats stats = registry_->cache().stats();
        entries_at_last_snapshot_ =
            stats.result_entries + stats.dense_entries;
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        throw ServiceError(std::string("socket failed: ") +
                           std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw ServiceError("bad listen address " + options_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, kAcceptBacklog) != 0) {
        std::string err = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw ServiceError("cannot listen on " + options_.host + ":" +
                           std::to_string(options_.port) + ": " + err);
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    running_.store(true);
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

void
ServiceServer::acceptLoop()
{
    while (running_.load()) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) {
                continue;
            }
            // stop() closed the listen socket (or a hard error):
            // either way this loop is done.
            return;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::lock_guard<std::mutex> lock(conn_mutex_);
        if (!running_.load()) {
            ::close(fd);
            return;
        }
        conn_fds_.push_back(fd);
        conn_threads_.emplace_back(
            [this, fd] { connectionLoop(fd); });
    }
}

void
ServiceServer::connectionLoop(int fd)
{
    std::vector<std::uint8_t> header(kFrameHeaderBytes);
    std::vector<std::uint8_t> payload;
    try {
        while (running_.load()) {
            if (!readFull(fd, header.data(), header.size())) {
                break;  // peer hung up cleanly
            }
            FrameHeader h;
            try {
                h = decodeFrameHeader(header.data());
            } catch (const ProtocolError &e) {
                // The stream is out of sync (or a foreign client):
                // answer once, then drop the connection.
                ErrorReply reply{{}, e.what()};
                auto frame = encodeFrame(FrameType::kError,
                                         reply.encodePayload());
                writeFull(fd, frame.data(), frame.size());
                break;
            }
            payload.resize(h.payload_size);
            if (h.payload_size > 0 &&
                !readFull(fd, payload.data(), payload.size())) {
                break;
            }
            SessionEffects effects;
            std::vector<std::uint8_t> response = handleRequest(
                *registry_, h.type, payload.data(), payload.size(),
                effects,
                static_cast<std::uint64_t>(
                    restore_stats_.result_entries +
                    restore_stats_.dense_entries));
            writeFull(fd, response.data(), response.size());
            if (effects.shutdown_requested) {
                {
                    // Lock around the store so a concurrent
                    // waitForShutdownRequest can't check the
                    // predicate and sleep between them (lost wakeup).
                    std::lock_guard<std::mutex> lock(shutdown_mutex_);
                    shutdown_requested_.store(true);
                }
                shutdown_cv_.notify_all();
                break;
            }
            if (effects.wrote_cache) {
                maybeSnapshot();
            }
        }
    } catch (const ServiceError &) {
        // Dropped connection mid-frame: nothing to answer.
    }
    {
        // Deregister before closing so stop() can never shutdown(2) a
        // recycled descriptor number.
        std::lock_guard<std::mutex> lock(conn_mutex_);
        conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                        conn_fds_.end());
    }
    ::close(fd);
}

void
ServiceServer::maybeSnapshot()
{
    if (options_.snapshot_path.empty() ||
        options_.snapshot_every_entries == 0) {
        return;
    }
    EvalCacheStats stats = registry_->cache().stats();
    std::size_t entries = stats.result_entries + stats.dense_entries;
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    if (entries >=
        entries_at_last_snapshot_ + options_.snapshot_every_entries) {
        saveNow();
        entries_at_last_snapshot_ = entries;
    }
}

void
ServiceServer::saveNow()
{
    saveSnapshot(options_.snapshot_path, registry_->cache(),
                 &registry_->warmStart());
}

void
ServiceServer::waitForShutdownRequest()
{
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [this] {
        return shutdown_requested_.load() || !running_.load();
    });
}

void
ServiceServer::stop()
{
    bool was_running;
    {
        std::lock_guard<std::mutex> lock(shutdown_mutex_);
        was_running = running_.exchange(false);
    }
    if (!was_running) {
        return;
    }
    // Unblock accept(2) and every blocked connection read.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (int fd : conn_fds_) {
            ::shutdown(fd, SHUT_RDWR);
        }
    }
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    // After the accept thread exits no new threads are created, so
    // the vector is stable from here.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        threads.swap(conn_threads_);
        conn_fds_.clear();
    }
    for (std::thread &t : threads) {
        if (t.joinable()) {
            t.join();
        }
    }
    listen_fd_ = -1;
    if (!options_.snapshot_path.empty()) {
        std::lock_guard<std::mutex> lock(snapshot_mutex_);
        saveNow();
    }
    shutdown_cv_.notify_all();
}

} // namespace sparseloop
