/**
 * @file
 * Cache/warm-start snapshot save and verified load.
 */

#include "service/persistence.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/logging.hh"
#include "service/wire.hh"

namespace sparseloop {

namespace {

constexpr char kMagic[8] = {'S', 'L', 'S', 'N', 'A', 'P', '\0', '\0'};
constexpr std::uint64_t kEndianSentinel = 0x0102030405060708ull;

enum RecordKind : std::uint8_t
{
    kResultRecord = 1,
    kDenseRecord = 2,
    kEliteRecord = 3,
    kEndRecord = 0xFF,
};

/** FNV-1a 64-bit over a byte span; any single-byte change in the
 *  input changes the digest (the per-byte xor/multiply steps are
 *  bijective on the running state). */
std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x00000100000001B3ull;
    }
    return h;
}

/** Append one record: kind, length, checksum, then @p body's fields. */
template <typename... Body>
void
appendRecord(WireWriter &out, RecordKind kind, const Body &...body)
{
    WireWriter payload;
    payload(body...);
    out.u8(kind);
    out.u32(static_cast<std::uint32_t>(payload.size()));
    out.u64(fnv1a(payload.buffer().data(), payload.size()));
    out.bytes(payload.buffer().data(), payload.size());
}

/** Decode one whole record payload. */
template <typename Record>
Record
decodeRecord(WireReader &body, const char *what)
{
    Record record = decode<Record>(body);
    body.expectDone(what);
    return record;
}

} // namespace

/** @name Snapshot record field lists (the entry hash is recomputed on
 *  load, never stored).
 *  @{ */
template <typename A>
void
fields(A &a, EvalCache::ResultEntry &entry)
{
    a(entry.key, entry.result);
}

template <typename A>
void
fields(A &a, EvalCache::DenseEntry &entry)
{
    a(entry.key, entry.dense);
}

template <typename A>
void
fields(A &a, WarmStartPool::Elite &elite)
{
    a(elite.objective, elite.metrics, elite.mapping);
}
/** @} */

SnapshotStats
saveSnapshot(const std::string &path, const EvalCache &cache,
             const WarmStartPool *pool)
{
    SnapshotStats stats;
    WireWriter out;
    out.bytes(kMagic, sizeof(kMagic));
    out.u32(kSnapshotVersion);
    out.u64(kEndianSentinel);

    for (const EvalCache::ResultEntry &entry : cache.exportResults()) {
        appendRecord(out, kResultRecord, entry);
        ++stats.result_entries;
    }
    for (const EvalCache::DenseEntry &entry : cache.exportDenses()) {
        appendRecord(out, kDenseRecord, entry);
        ++stats.dense_entries;
    }
    if (pool != nullptr) {
        for (const WarmStartPool::Elite &elite : pool->exportElites()) {
            appendRecord(out, kEliteRecord, elite);
            ++stats.elites;
        }
    }
    appendRecord(out, kEndRecord);

    // Assemble-then-rename: a crash mid-write leaves the previous
    // snapshot (if any) intact, never a half-written file at `path`.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
        if (!file) {
            SL_FATAL("cannot create snapshot file ", tmp);
        }
        file.write(reinterpret_cast<const char *>(out.buffer().data()),
                   static_cast<std::streamsize>(out.size()));
        if (!file.flush()) {
            std::remove(tmp.c_str());
            SL_FATAL("short write assembling snapshot ", tmp);
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        SL_FATAL("cannot rename snapshot ", tmp, " -> ", path);
    }
    return stats;
}

SnapshotStats
loadSnapshot(const std::string &path, EvalCache &cache,
             WarmStartPool *pool)
{
    SnapshotStats stats;

    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
        return stats;  // no snapshot yet: a normal cold start
    }
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        stats.error = "snapshot " + path + " is not readable";
        return stats;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(file)),
        std::istreambuf_iterator<char>());
    WireReader r(bytes);

    // Header: reject the whole file on any mismatch — a stale or
    // foreign snapshot is never partially trusted.
    try {
        char magic[sizeof(kMagic)];
        for (char &c : magic) {
            c = static_cast<char>(r.u8());
        }
        if (!std::equal(std::begin(magic), std::end(magic), kMagic)) {
            stats.error = "snapshot " + path + ": bad magic";
            return stats;
        }
        std::uint32_t version = r.u32();
        if (version != kSnapshotVersion) {
            stats.error = "snapshot " + path + ": version " +
                          std::to_string(version) + ", this build reads v" +
                          std::to_string(kSnapshotVersion);
            return stats;
        }
        if (r.u64() != kEndianSentinel) {
            stats.error = "snapshot " + path + ": endianness mismatch";
            return stats;
        }
    } catch (const WireError &e) {
        stats.error = "snapshot " + path + ": header truncated (" +
                      e.what() + ")";
        return stats;
    }

    // Records: verify each (checksum, then exact decode) before it is
    // admitted; the first failure rejects the tail, keeps the prefix.
    std::vector<EvalCache::ResultEntry> results;
    std::vector<EvalCache::DenseEntry> denses;
    bool clean_end = false;
    try {
        while (!clean_end) {
            std::uint8_t kind = r.u8();
            std::size_t len = r.count(0);
            std::uint64_t checksum = r.u64();
            const std::uint8_t *payload = r.skip(len);
            if (fnv1a(payload, len) != checksum) {
                throw WireError("record checksum mismatch");
            }
            WireReader body(payload, len);
            switch (kind) {
            case kResultRecord: {
                auto entry = decodeRecord<EvalCache::ResultEntry>(
                    body, "snapshot result record");
                entry.hash = entry.key.hash();
                results.push_back(std::move(entry));
                break;
            }
            case kDenseRecord: {
                auto entry = decodeRecord<EvalCache::DenseEntry>(
                    body, "snapshot dense record");
                entry.hash = entry.key.hash();
                denses.push_back(std::move(entry));
                break;
            }
            case kEliteRecord: {
                auto elite = decodeRecord<WarmStartPool::Elite>(
                    body, "snapshot elite record");
                if (pool != nullptr) {
                    pool->record(elite.mapping, elite.metrics,
                                 elite.objective);
                    ++stats.elites;
                }
                break;
            }
            case kEndRecord:
                clean_end = true;
                break;
            default:
                throw WireError("unknown record kind " +
                                std::to_string(kind));
            }
        }
    } catch (const WireError &e) {
        stats.truncated = true;
        stats.error = "snapshot " + path + ": rejected tail (" + e.what() +
                      "); kept the verified prefix";
    }
    if (clean_end && !r.done()) {
        // Bytes after a clean end marker: suspicious, but the records
        // before it all verified — keep them, flag the file.
        stats.truncated = true;
        stats.error = "snapshot " + path + ": trailing bytes after the "
                      "end record";
    }

    stats.result_entries = results.size();
    stats.dense_entries = denses.size();
    cache.storeResults(std::move(results));
    cache.storeDenses(std::move(denses));
    return stats;
}

} // namespace sparseloop
