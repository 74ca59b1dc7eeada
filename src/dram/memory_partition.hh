/**
 * @file
 * MemoryPartition: one of the six memory partitions of Fig. 2 -- two
 * L2 banks (with their access queues, MSHRs, miss queues and response
 * queues) in the interconnect clock domain, and a GDDR5 channel in the
 * DRAM clock domain.
 *
 * Per-L2-cycle flow, per bank:
 *   1. drain the bank's response queue into the reply crossbar
 *   2. apply one DRAM (or ideal-DRAM) fill
 *   3. process the head of the access queue (stall causes counted by
 *      the CacheModel: bp-ICNT / port / cache / mshr / bp-DRAM)
 *   4. drain the bank's miss queue toward the DRAM scheduler queue
 *   5. pull ejected request-network packets into the access queue
 *
 * The access queue applies the fixed L2 service latency ("ropLatency")
 * that makes an uncongested L1 miss cost ~120 core cycles (§II-A);
 * the DRAM channel adds ~100 more for L2 misses.
 *
 * In ideal-DRAM mode (the paper's P_DRAM configuration in Table II)
 * the channel is replaced by an unbounded fixed-latency pipe: the L2
 * miss path never back-pressures and every fill arrives a constant
 * ~100 core cycles later.
 */

#ifndef BWSIM_DRAM_MEMORY_PARTITION_HH
#define BWSIM_DRAM_MEMORY_PARTITION_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "dram/dram_channel.hh"
#include "icnt/crossbar.hh"
#include "mem/addr_map.hh"
#include "sim/queue.hh"
#include "stats/occupancy_hist.hh"

namespace bwsim
{

struct PartitionParams
{
    int partitionId = 0;
    std::uint32_t banksPerPartition = 2;
    std::uint32_t numPartitions = 6;
    /** Per-bank L2 slice parameters (size is per bank). */
    CacheParams l2Bank;
    std::uint32_t accessQueueEntries = 8;
    /** Fixed L2 service pipeline latency in L2 cycles. */
    std::uint32_t ropLatency = 52;
    DramParams dram;
    /** How global bank ids map onto partitions (must agree with the
     *  AddressMap: contiguous blocks under PartitionFirst, stride
     *  numPartitions under BankFirst). */
    L2Interleave interleave = L2Interleave::PartitionFirst;
    /** P_DRAM mode: constant-latency, infinite-bandwidth DRAM. */
    bool idealDram = false;
    /** Ideal-DRAM latency in L2 cycles (~100 core cycles). */
    std::uint32_t idealDramLatency = 50;
};

class MemoryPartition
{
  public:
    MemoryPartition(const PartitionParams &params,
                    MemFetchAllocator *allocator, Interconnect *icnt);

    const PartitionParams &params() const { return cfg; }

    /** Global L2 bank id of local bank @p b. */
    std::uint32_t
    globalBankId(std::uint32_t b) const
    {
        if (cfg.interleave == L2Interleave::BankFirst)
            return static_cast<std::uint32_t>(cfg.partitionId) +
                   b * cfg.numPartitions;
        return cfg.partitionId * cfg.banksPerPartition + b;
    }

    /**
     * Register this partition's L2 banks, DRAM channel (when one
     * exists) and queue-occupancy histograms as a child group
     * "part<N>" of @p parent. Call once, after construction.
     */
    void registerStats(stats::Group &parent);

    /** One interconnect/L2 clock cycle. */
    void tickL2(double now_ps);

    /** One DRAM command-clock cycle. */
    void tickDram(double now_ps);

    /** @name Quiescence horizons (cycle-skip scheduler) */
    /**@{*/
    /**
     * Earliest upcoming L2 cycle whose tick could do anything but
     * wait: 0 whenever a real attempt is possible (a ready access-queue
     * head, an unmemoized fill, a miss draining into a non-full DRAM
     * queue, a request-network pull into a non-full access queue, a
     * response injecting into a non-full reply port), else the
     * earliest ready time among the response queues, access queues
     * and the ideal-DRAM pipe. Blocked-on-full paths and memoized fill
     * refusals are dead: the ports they wait on only free, and the
     * bank only mutates, on ticks that invalidate this horizon.
     */
    std::uint64_t l2Horizon() const;
    /**
     * Integrate @p n skipped (dead) L2 cycles: advance the cycle
     * counter and charge the per-cycle access-queue occupancy samples
     * (occupancy is frozen across the span).
     */
    void skipL2(std::uint64_t n);
    /** Channel horizon; infinite under the ideal-DRAM pipe. */
    std::uint64_t dramHorizon() const;
    /** Integrate @p n skipped (dead) DRAM command cycles. */
    void skipDram(std::uint64_t n);
    /**@}*/

    /** All queues, banks and the channel are empty. */
    bool drained() const;

    /** @name Instrumentation */
    /**@{*/
    const CacheModel &l2Bank(std::uint32_t b) const { return *banks.at(b); }
    CacheModel &l2Bank(std::uint32_t b) { return *banks.at(b); }
    const DramChannel &dram() const { return *channel; }
    const stats::OccupancyHist &l2AccessQueueHist() const
    {
        return accessQHist;
    }
    const stats::OccupancyHist &dramQueueHist() const { return dramQHist; }

    /** Data bytes this partition moved across the L2<->DRAM boundary
     *  (bus bytes with a real channel, pipe bytes in P_DRAM mode). */
    std::uint64_t
    dramDataBytes() const
    {
        if (channel) {
            return channel->counters().bytesRead +
                   channel->counters().bytesWritten;
        }
        return idealBytesRead + idealBytesWritten;
    }
    /**@}*/

  private:
    void pullFromNetwork(std::uint32_t b);

    PartitionParams cfg;
    MemFetchAllocator *alloc;
    Interconnect *icnt;

    std::vector<std::unique_ptr<CacheModel>> banks;
    /** Per-bank access queue with the fixed L2 service latency. */
    std::vector<TimedQueue<MemFetch *>> accessQ;
    std::unique_ptr<DramChannel> channel;
    /** Ideal-DRAM pipe (P_DRAM mode). */
    DelayPipe<MemFetch *> idealPipe;

    Cycle l2Cycle = 0;
    Cycle dramCycle = 0;

    /**
     * @name Per-bank retry memos (congested-path fast paths)
     *
     * A refused fill() has zero side effects and fails on pure cache
     * state (response-queue space vs. MSHR waiters), and a stalled
     * access() nets out to exactly one countStall() whose cause is a
     * pure function of cache state -- except PortBusy, which depends
     * on the clock and is never memoized. Both outcomes are therefore
     * replayable while CacheModel::version() is unchanged: every
     * unblocking transition bumps the version, and the blocked head
     * packet cannot change underneath the memo because it is only
     * popped on success, which also bumps the version. ~0 = invalid.
     */
    /**@{*/
    std::vector<std::uint64_t> fillMemoVer;
    std::vector<std::uint64_t> accessMemoVer;
    std::vector<std::uint8_t> accessMemoCause;
    /**@}*/

    /** L2<->DRAM bytes through the ideal pipe (P_DRAM mode only). */
    std::uint64_t idealBytesRead = 0;
    std::uint64_t idealBytesWritten = 0;

    stats::OccupancyHist accessQHist;
    stats::OccupancyHist dramQHist;
};

} // namespace bwsim

#endif // BWSIM_DRAM_MEMORY_PARTITION_HH
