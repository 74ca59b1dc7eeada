/**
 * @file
 * MemFetch: the memory-request packet that traverses the modelled
 * hierarchy (named after GPGPU-Sim's mem_fetch).
 *
 * A MemFetch is created by a core's LSU (or fetch unit, for I-cache
 * misses) when an L1 access misses, travels core -> crossbar -> L2 bank
 * -> (on L2 miss) DRAM, and returns along the reverse path. L2 dirty
 * evictions create writeback MemFetches that go only L2 -> DRAM.
 *
 * Packets carry timestamps at each hop so average memory latency (AML)
 * and average L2 hit latency (L2-AHL) of the paper's Fig. 1 can be
 * computed without instrumenting the components themselves.
 */

#ifndef BWSIM_MEM_MEM_FETCH_HH
#define BWSIM_MEM_MEM_FETCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "sim/queue.hh"

namespace bwsim
{

/** What kind of memory access a packet represents. */
enum class AccessType : std::uint8_t
{
    GlobalRead,  ///< L1D load miss (or L1 bypass read)
    GlobalWrite, ///< store forwarded by the write-evict L1
    InstFetch,   ///< I-cache miss
    L2Writeback, ///< dirty L2 line evicted to DRAM
};

const char *accessTypeName(AccessType t);

/** Which level serviced (or will service) the request. */
enum class ServicedBy : std::uint8_t
{
    None,
    L2,   ///< hit in the shared L2
    Dram, ///< missed in L2, filled from DRAM
};

/** Size of the control/header portion of any packet, in bytes. */
constexpr std::uint32_t packetHeaderBytes = 8;

class MemFetch
{
  public:
    /** Unique, monotonically increasing packet id (per allocator). */
    std::uint64_t id = 0;

    /** Line-aligned address of the requested cache line. */
    Addr lineAddr = 0;

    /** Line size in bytes (128 in all configurations of the paper). */
    std::uint32_t lineBytes = 128;

    /** Bytes of store data carried by a write request (0 for reads). */
    std::uint32_t storeBytes = 0;

    /**
     * Bytes of line data the read reply must carry back to the
     * requester. A line-allocating L1 fetches the whole line
     * (dataBytes == lineBytes, the default); the bypass and sectored
     * hierarchy variants shrink it to the demanded sectors.
     */
    std::uint32_t dataBytes = 128;

    /**
     * Bytes a DRAM read burst must move to fill the servicing cache.
     * Distinct from dataBytes: an *unsectored* L2 allocates whole
     * lines, so it pulls the full line from DRAM even when the reply
     * to a bypassing L1 is demand-sized; only a sectored L2 fetches
     * demand-sized sectors. Set by the L2 when it forwards the miss.
     */
    std::uint32_t fillBytes = 128;

    /**
     * Read miss that bypassed L1 allocation (§VI mitigation): no MSHR
     * entry or reserved line exists, so the reply completes the
     * waiting LSU slot (slotId) directly instead of filling the L1.
     */
    bool l1Bypass = false;

    AccessType type = AccessType::GlobalRead;

    /** Issuing core, or -1 for L2-generated writebacks. */
    int coreId = -1;
    /** Issuing warp within the core, or -1. */
    int warpId = -1;
    /** LSU slot that tracks this access, or -1 (e.g. I-fetch). */
    int slotId = -1;

    /** Destination memory partition and L2 bank (global bank id). */
    int partitionId = -1;
    int l2BankId = -1;

    ServicedBy servicedBy = ServicedBy::None;

    /** @name Timestamps (picoseconds of global simulated time) */
    /**@{*/
    double tCreated = 0;    ///< allocated by LSU / fetch unit
    double tLeftL1 = 0;     ///< entered the L1 miss queue
    double tInjected = 0;   ///< first flit entered the crossbar
    double tAtL2 = 0;       ///< entered the L2 access queue
    double tL2Done = 0;     ///< L2 hit read out / fill completed
    double tReplyBack = 0;  ///< reply ejected at the core
    /**@}*/

    bool isWrite() const
    {
        return type == AccessType::GlobalWrite ||
               type == AccessType::L2Writeback;
    }

    bool isInstFetch() const { return type == AccessType::InstFetch; }

    /** Bytes this packet occupies on the request network. */
    std::uint32_t
    requestBytes() const
    {
        return packetHeaderBytes + (isWrite() ? storeBytes : 0);
    }

    /** Bytes the reply occupies on the reply network (0 = no reply). */
    std::uint32_t
    replyBytes() const
    {
        return isWrite() ? 0 : packetHeaderBytes + dataBytes;
    }

    /** True when a reply must be routed back to the issuing core. */
    bool needsReply() const { return !isWrite(); }

    std::string toString() const;
};

/**
 * Central allocator for MemFetch packets with conservation accounting:
 * at the end of a simulation every allocated packet must have been
 * freed, or requests were lost somewhere in the hierarchy. Uses a free
 * list to keep allocation cheap in the hot path.
 */
class MemFetchAllocator
{
  public:
    MemFetchAllocator() = default;
    ~MemFetchAllocator();

    MemFetchAllocator(const MemFetchAllocator &) = delete;
    MemFetchAllocator &operator=(const MemFetchAllocator &) = delete;

    MemFetch *alloc();
    void free(MemFetch *mf);

    std::uint64_t allocated() const { return numAlloc; }
    std::uint64_t freed() const { return numFree; }
    std::uint64_t outstanding() const { return numAlloc - numFree; }

  private:
    std::vector<std::unique_ptr<MemFetch>> pool;
    /** Freed packets, reused oldest first. */
    RingBuffer<MemFetch *> freeList;
    std::uint64_t numAlloc = 0;
    std::uint64_t numFree = 0;
    std::uint64_t nextId = 1;
};

} // namespace bwsim

#endif // BWSIM_MEM_MEM_FETCH_HH
