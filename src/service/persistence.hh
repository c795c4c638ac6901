/**
 * @file
 * Disk persistence for the evaluation service: snapshot the shared
 * `EvalCache` (both levels) and the `WarmStartPool` elites to a file,
 * and restore them on daemon start — so sweeps resume across
 * processes and concurrent clients keep sharing hits after a restart.
 *
 * Snapshot layout (little-endian, built on service/wire.hh):
 *
 *     file header:
 *       8   magic         "SLSNAP\0\0"
 *       4   version       kSnapshotVersion
 *       8   endianness    0x0102030405060708 as written by WireWriter
 *     records, each:
 *       1   kind          1 result | 2 dense | 3 elite | 0xFF end
 *       4   length        payload byte count
 *       8   checksum      FNV-1a 64 over the payload bytes
 *       n   payload       kind-specific body (a field list in
 *                         persistence.cc, encoded per wire.hh)
 *     end record: kind 0xFF, length 0, the empty payload's checksum
 *
 * Trust model: the file is *verified, never trusted*. A snapshot with
 * a wrong magic, version, or endianness sentinel is rejected whole. A
 * record is admitted only when its checksum matches and its payload
 * decodes exactly; the first bad record stops the load, the verified
 * prefix stays, and the rejected tail is reported (not crashed on) —
 * exactly what a snapshot truncated by a mid-write crash needs. For
 * cache records, the entry's key hash is recomputed from the decoded
 * key rather than read from the file.
 *
 * Writes are atomic: the snapshot is assembled in `<path>.tmp` and
 * renamed over the target, so a crash mid-snapshot leaves the
 * previous snapshot intact.
 */

#ifndef SPARSELOOP_SERVICE_PERSISTENCE_HH
#define SPARSELOOP_SERVICE_PERSISTENCE_HH

#include <string>

#include "mapper/warm_start.hh"
#include "model/eval_cache.hh"

namespace sparseloop {

/** Bumped on any snapshot-visible schema change. */
inline constexpr std::uint32_t kSnapshotVersion = 2;

/** Outcome of a snapshot save or load. */
struct SnapshotStats
{
    std::size_t result_entries = 0;  ///< full results written/restored
    std::size_t dense_entries = 0;   ///< Step-1 entries written/restored
    std::size_t elites = 0;          ///< warm-start elites written/restored
    /** Load only: the file ended without a clean end record, or a
     *  record failed verification — the verified prefix was kept. */
    bool truncated = false;
    /** Load only: why the file (or its tail) was rejected; empty on a
     *  fully clean load. */
    std::string error;

    std::size_t totalEntries() const
    {
        return result_entries + dense_entries + elites;
    }
};

/**
 * Write a snapshot of @p cache (and @p pool when non-null) to
 * @p path atomically. Throws `FatalError` when the file cannot be
 * created or renamed; never leaves a half-written snapshot at
 * @p path.
 */
SnapshotStats saveSnapshot(const std::string &path, const EvalCache &cache,
                           const WarmStartPool *pool);

/**
 * Restore a snapshot into @p cache (and @p pool when non-null).
 * Never throws on a bad file: a missing file, a rejected header, or a
 * corrupt tail come back in `SnapshotStats::error`/`truncated` with
 * every entry that verified already merged. Restored cache entries
 * are inserted with recomputed key hashes; elites are re-`record`ed
 * in retention order.
 */
SnapshotStats loadSnapshot(const std::string &path, EvalCache &cache,
                           WarmStartPool *pool);

} // namespace sparseloop

#endif // SPARSELOOP_SERVICE_PERSISTENCE_HH
