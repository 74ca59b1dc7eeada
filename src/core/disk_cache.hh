/**
 * @file
 * DiskSimCache: the persistent on-disk tier behind SimCache, keyed by
 * the same cacheKey() strings as the in-memory tier. One file per
 * (profile, config) pair under a --cache-dir directory, so repeated
 * driver invocations -- and the work-queue workers of a sweep
 * sharing one directory -- skip warm simulations entirely.
 *
 * File format (common/serdes.hh, little-endian):
 *
 *   u32  magic 'BWSC'
 *   u32  formatVersion (this header's layout)
 *   u32  simResultSerdesVersion (payload layout)
 *   u32  sizeof(GpuConfig)      } the KeyBuilder sizeof trip-wires:
 *   u32  sizeof(BenchmarkProfile) } any struct growth that would
 *   u32  sizeof(SimResult)      } change keys or payloads invalidates
 *                                 persisted entries on this ABI
 *   str  full cache key (guards hash collisions and stale layouts)
 *   u64  FNV-1a checksum of the payload blob
 *   str  payload blob: serializeResult() bytes
 *
 * Writes go to a unique temp file then rename(2) into place, so a
 * crashed or concurrent writer never leaves a half-written entry
 * under the final name. Loads are corruption-tolerant: any short
 * read, bad magic, version or size mismatch, wrong key, or checksum
 * failure is a miss, never an error.
 */

#ifndef BWSIM_CORE_DISK_CACHE_HH
#define BWSIM_CORE_DISK_CACHE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "gpu/sim_result.hh"

namespace bwsim
{

class DiskSimCache
{
  public:
    /** Creates @p dir (recursively) if needed; fatal() on failure. */
    explicit DiskSimCache(std::string dir);

    const std::string &dir() const { return dirPath; }

    /**
     * Look @p key up; true and fill @p out on a valid entry. Invalid
     * files (truncated, corrupt, other version/layout, other key) are
     * misses.
     */
    bool load(const std::string &key, SimResult &out) const;

    /**
     * Persist @p r under @p key (write-then-rename). Returns false --
     * after a warn() -- when the filesystem refuses; the sweep goes
     * on, the entry just stays unpersisted.
     */
    bool store(const std::string &key, const SimResult &r) const;

    /** Entry file name for @p key: sc-<fnv1a64(key) hex>.bin. */
    static std::string fileNameFor(const std::string &key);

    static constexpr std::uint32_t formatVersion = 1;

    /** @name Counters (tests and --exec-stats) */
    /**@{*/
    std::uint64_t loadHits() const { return hitCount.load(); }
    std::uint64_t loadMisses() const { return missCount.load(); }
    /** Files present but rejected (corrupt / version or key mismatch);
     *  also counted in loadMisses(). */
    std::uint64_t rejected() const { return rejectCount.load(); }
    std::uint64_t storesSucceeded() const { return storeCount.load(); }
    /**@}*/

  private:
    std::string dirPath;
    mutable std::atomic<std::uint64_t> hitCount{0};
    mutable std::atomic<std::uint64_t> missCount{0};
    mutable std::atomic<std::uint64_t> rejectCount{0};
    mutable std::atomic<std::uint64_t> storeCount{0};
};

/** @name Cache-dir housekeeping (bwsim --cache-stats / --cache-max-mb) */
/**@{*/

/** Aggregate of one cache directory's sc-*.bin entry files. */
struct CacheDirStats
{
    std::uint64_t entries = 0; ///< readable entry files
    std::uint64_t bytes = 0;   ///< their total size
    /** Entry files whose header does not parse (foreign format or
     *  corruption); counted separately, sizes included. */
    std::uint64_t unreadable = 0;
    std::uint64_t unreadableBytes = 0;
    /** Leftover tmp-*.part files from crashed writers; eviction
     *  sweeps them once they outlive the writer grace period. */
    std::uint64_t tempFiles = 0;
    std::uint64_t tempBytes = 0;

    /** Per-config breakdown: one row per GpuConfig name found in the
     *  stored keys. Configs map onto the paper's experiments
     *  (baseline -> figs 1/4/5/7-9, fixed-N -> fig 3, L1/L2/... ->
     *  fig 10, 16+48/... -> fig 12, P-inf/P-DRAM -> tab 2). */
    struct Group
    {
        std::string config;
        std::uint64_t entries = 0;
        std::uint64_t bytes = 0;
    };
    /** Sorted by bytes descending, then name. */
    std::vector<Group> byConfig;
};

/** Scan @p dir (headers only, checksums not verified). */
CacheDirStats scanCacheDir(const std::string &dir);

/** What evictCacheDir() removed and what survives. */
struct EvictionReport
{
    std::uint64_t filesEvicted = 0;
    std::uint64_t bytesEvicted = 0;
    std::uint64_t filesKept = 0;
    std::uint64_t bytesKept = 0;
};

/**
 * Size-bound @p dir to @p max_bytes by deleting sc-*.bin entry files
 * oldest-mtime-first (the atomic publish makes mtime the
 * last-written time, our LRU proxy) until the survivors fit. A
 * deleted entry is simply a future cache miss.
 */
EvictionReport evictCacheDir(const std::string &dir,
                             std::uint64_t max_bytes);
/**@}*/

} // namespace bwsim

#endif // BWSIM_CORE_DISK_CACHE_HH
