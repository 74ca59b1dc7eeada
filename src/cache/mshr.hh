/**
 * @file
 * Miss Status Holding Register (MSHR) table with request merging.
 *
 * An MSHR entry tracks one in-flight line fill; further accesses to the
 * same line merge as waiters instead of issuing duplicate fetches.
 * A full table is the "mshr" structural-hazard cause of Figs. 8 and 9;
 * prolonged occupancy under congestion is exactly the resource
 * contention the paper's §IV-A2 describes.
 */

#ifndef BWSIM_CACHE_MSHR_HH
#define BWSIM_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace bwsim
{

class MemFetch;

/**
 * One merged access waiting on an in-flight fill. L1 waiters identify
 * the (warp, LSU-slot) to wake; L2 waiters carry the original request
 * packet so a reply can be routed back to its core.
 */
struct MshrWaiter
{
    int warpId = -1;
    int slotId = -1;
    MemFetch *mf = nullptr;
    bool isInstFetch = false;
};

/**
 * A fixed array of entry slots behind an open-addressed index: a
 * power-of-two bucket array at least twice the entry count, linear
 * probing, and backward-shift deletion (no tombstones), so lookups
 * stay short however long the table churns. Both arrays are sized
 * once; a slot keeps its waiter vector's capacity across reuse, so a
 * warmed-up table allocates nothing.
 */
class MshrTable
{
  public:
    /**
     * @param num_entries distinct in-flight lines the table can track
     * @param max_merge maximum waiters per entry (including the first)
     */
    MshrTable(std::uint32_t num_entries, std::uint32_t max_merge);

    /** True if a fill for @p line_addr is already in flight. */
    bool hasEntry(Addr line_addr) const { return findSlot(line_addr) >= 0; }

    /** A waiter can merge into an existing entry for @p line_addr. */
    bool
    canMerge(Addr line_addr) const
    {
        const int s = findSlot(line_addr);
        return s >= 0 && slots[s].waiters.size() < maxMerge;
    }

    /** A new access would need a fresh entry (i.e. no merge target). */
    bool wouldAllocate(Addr line_addr) const { return !hasEntry(line_addr); }

    /** Allocate an (empty) entry for a new miss; table must not be full. */
    void allocate(Addr line_addr);

    /** Add a waiter to an existing entry. canMerge must hold, except
     *  immediately after allocate() where the entry is empty. */
    void addWaiter(Addr line_addr, const MshrWaiter &waiter);

    /** Waiters currently attached to @p line_addr's entry (0 if none). */
    std::size_t waiterCount(Addr line_addr) const;

    /** Record that a store merged into the pending fill (write-alloc). */
    void markDirtyOnFill(Addr line_addr);

    bool isDirtyOnFill(Addr line_addr) const;

    /**
     * Complete the fill for @p line_addr: removes the entry and moves
     * its waiters into @p out (appended in merge order).
     */
    void fill(Addr line_addr, std::vector<MshrWaiter> &out);

    std::size_t size() const { return entries - freeSlots.size(); }
    std::uint32_t capacity() const { return entries; }
    bool full() const { return freeSlots.empty(); }

    /** Total waiters across all entries (for occupancy stats/tests). */
    std::size_t totalWaiters() const;

    /** @name Index geometry (tests build colliding keys from it) */
    /**@{*/
    std::size_t numBuckets() const { return index.size(); }
    /** The bucket a probe for @p line_addr starts at. */
    std::size_t
    homeBucket(Addr line_addr) const
    {
        return static_cast<std::size_t>(
            (line_addr * 0x9E3779B97F4A7C15ULL) >> hashShift);
    }
    /**@}*/

  private:
    struct Slot
    {
        std::vector<MshrWaiter> waiters;
        bool dirtyOnFill = false;
    };

    /** One index bucket: a tracked line and its slot (-1: empty). */
    struct Bucket
    {
        Addr line = 0;
        int slot = -1;
    };

    /** Bucket holding @p line_addr, or -1. */
    long findBucket(Addr line_addr) const;
    /** Slot tracking @p line_addr, or -1. */
    int
    findSlot(Addr line_addr) const
    {
        const long b = findBucket(line_addr);
        return b < 0 ? -1 : index[static_cast<std::size_t>(b)].slot;
    }
    /** Slot tracking @p line_addr; it must exist (@p what names the
     *  caller in the failure message). */
    Slot &slotOf(Addr line_addr, const char *what);
    /** Empty bucket @p b, shifting later chain members back into it. */
    void eraseBucket(std::size_t b);

    std::uint32_t entries;
    std::uint32_t maxMerge;
    std::vector<Slot> slots;
    /** Unused slot ids (a stack). */
    std::vector<int> freeSlots;
    std::vector<Bucket> index;
    std::size_t indexMask = 0;
    unsigned hashShift = 0;
};

} // namespace bwsim

#endif // BWSIM_CACHE_MSHR_HH
