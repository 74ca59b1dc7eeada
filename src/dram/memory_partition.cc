#include "dram/memory_partition.hh"

#include <algorithm>

#include "sim/clock.hh"
#include "stats/stat.hh"

namespace bwsim
{

MemoryPartition::MemoryPartition(const PartitionParams &params,
                                 MemFetchAllocator *allocator,
                                 Interconnect *icnt_)
    : cfg(params), alloc(allocator), icnt(icnt_)
{
    bwsim_assert(alloc && icnt, "partition %d needs allocator and icnt",
                 cfg.partitionId);
    banks.reserve(cfg.banksPerPartition);
    accessQ.reserve(cfg.banksPerPartition);
    for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b) {
        CacheParams p = cfg.l2Bank;
        p.name = csprintf("l2_p%u_b%u", cfg.partitionId, b);
        banks.push_back(std::make_unique<CacheModel>(p, alloc, -1));
        accessQ.emplace_back(cfg.accessQueueEntries);
    }
    fillMemoVer.assign(cfg.banksPerPartition, ~std::uint64_t(0));
    accessMemoVer.assign(cfg.banksPerPartition, ~std::uint64_t(0));
    accessMemoCause.assign(cfg.banksPerPartition, 0);
    if (!cfg.idealDram) {
        DramParams dp = cfg.dram;
        dp.numPartitions = cfg.numPartitions;
        channel = std::make_unique<DramChannel>(dp, alloc, cfg.partitionId);
    }
}

void
MemoryPartition::registerStats(stats::Group &parent)
{
    stats::Group &g =
        parent.createChild(csprintf("part%d", cfg.partitionId));
    for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b)
        banks[b]->registerStats(g, csprintf("l2b%u", b));
    if (channel) {
        channel->registerStats(g);
    } else {
        g.bindScalar("ideal_dram_bytes_read",
                     "data bytes read through the ideal-DRAM pipe",
                     idealBytesRead);
        g.bindScalar("ideal_dram_bytes_written",
                     "data bytes sunk by the ideal-DRAM write sink",
                     idealBytesWritten);
    }
    accessQHist.registerStats(
        g, "l2_access_occ",
        "L2 access-queue occupancy bands (Fig. 4)");
    dramQHist.registerStats(g, "dram_occ",
                            "DRAM scheduler-queue occupancy bands "
                            "(Fig. 5)");
}

void
MemoryPartition::pullFromNetwork(std::uint32_t b)
{
    std::uint32_t gid = globalBankId(b);
    auto &req = icnt->request();
    if (!req.ejectReady(gid) || accessQ[b].full())
        return;
    MemFetch *mf = req.ejectPop(gid);
    bool ok = accessQ[b].push(mf, l2Cycle + cfg.ropLatency);
    bwsim_assert(ok, "access queue overflow in partition %d",
                 cfg.partitionId);
}

void
MemoryPartition::tickL2(double now_ps)
{
    ++l2Cycle;

    for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b) {
        CacheModel &bank = *banks[b];
        std::uint32_t gid = globalBankId(b);

        // 1. Response queue -> reply network (one packet per cycle).
        if (bank.respQueueReady(l2Cycle) &&
            icnt->reply().canAccept(gid)) {
            MemFetch *mf = bank.respQueuePop();
            bwsim_assert(mf->coreId >= 0,
                         "reply with no destination core: %s",
                         mf->toString().c_str());
            icnt->reply().inject(gid, static_cast<std::uint32_t>(mf->coreId),
                                 mf, mf->replyBytes(), now_ps);
        }

        // 2. One fill per cycle from DRAM (or the ideal pipe). A
        // refused fill is a pure-state no-op, so the retry is skipped
        // until the bank mutates (see the memo members).
        if (cfg.idealDram) {
            if (idealPipe.ready(l2Cycle) &&
                fillMemoVer[b] != bank.version()) {
                MemFetch *mf = idealPipe.front();
                if (static_cast<std::uint32_t>(mf->l2BankId) == gid) {
                    std::vector<MshrWaiter> unused;
                    if (bank.fill(mf, l2Cycle, now_ps, unused))
                        idealPipe.pop();
                    else
                        fillMemoVer[b] = bank.version();
                }
            }
        } else {
            if (channel->returnReady() &&
                fillMemoVer[b] != bank.version()) {
                MemFetch *mf = channel->returnFront();
                if (static_cast<std::uint32_t>(mf->l2BankId) == gid) {
                    std::vector<MshrWaiter> unused;
                    if (bank.fill(mf, l2Cycle, now_ps, unused))
                        channel->returnPop();
                    else
                        fillMemoVer[b] = bank.version();
                }
            }
        }

        // 3. Process the head of the access queue. A stalled head nets
        // out to one countStall() with a state-determined cause, so
        // the attempt is replayed from the memo until the bank
        // mutates; PortBusy depends on the clock and is re-probed.
        if (accessQ[b].ready(l2Cycle)) {
            if (accessMemoVer[b] == bank.version()) {
                bank.countStall(
                    static_cast<CacheStallCause>(accessMemoCause[b]));
            } else {
                MemFetch *mf = accessQ[b].front();
                if (mf->tAtL2 == 0)
                    mf->tAtL2 = now_ps;
                CacheAccess acc;
                acc.lineAddr = mf->lineAddr;
                acc.write = mf->isWrite();
                acc.storeBytes = mf->storeBytes;
                acc.warpId = mf->warpId;
                acc.slotId = mf->slotId;
                acc.isInstFetch = mf->isInstFetch();
                acc.mf = mf;
                CacheOutcome out = bank.access(acc, l2Cycle, now_ps);
                if (!isStallOutcome(out)) {
                    accessQ[b].pop();
                } else if (out != CacheOutcome::StallPortBusy) {
                    accessMemoVer[b] = bank.version();
                    accessMemoCause[b] = static_cast<std::uint8_t>(
                        CacheModel::stallCauseOf(out));
                }
            }
        }

        // 4. Miss queue -> DRAM scheduler queue (one per cycle).
        if (!bank.missQueueEmpty()) {
            MemFetch *mf = bank.missQueueFront();
            if (cfg.idealDram) {
                mf->l2BankId = static_cast<int>(gid);
                bank.missQueuePop();
                if (mf->isWrite()) {
                    idealBytesWritten += mf->storeBytes;
                    alloc->free(mf); // infinite-bandwidth write sink
                } else {
                    idealBytesRead += mf->fillBytes;
                    idealPipe.push(mf, l2Cycle + cfg.idealDramLatency);
                }
            } else if (channel->canAccept()) {
                mf->l2BankId = static_cast<int>(gid);
                bank.missQueuePop();
                channel->push(mf);
            }
        }

        // 5. Pull newly ejected requests into the access queue.
        pullFromNetwork(b);

        accessQHist.sample(accessQ[b].size(), accessQ[b].capacity());
    }
}

std::uint64_t
MemoryPartition::l2Horizon() const
{
    std::uint64_t h = kInfiniteHorizon;
    auto event = [this, &h](Cycle ready) {
        h = std::min(h,
                     ready > l2Cycle + 1
                         ? static_cast<std::uint64_t>(ready - l2Cycle - 1)
                         : std::uint64_t(0));
    };
    for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b) {
        const CacheModel &bank = *banks[b];
        std::uint32_t gid = globalBankId(b);
        // 1. A ready response injects into the reply network unless
        // the port is full; the blocked injection is a pure no-op and
        // only an interconnect tick (which invalidates this horizon)
        // can free the port.
        if (bank.respQueueSize() > 0 && icnt->reply().canAccept(gid))
            event(bank.respQueueFrontReady());
        // 3. A ready access-queue head is attempted (or charges a
        // memoized stall) every tick.
        if (!accessQ[b].empty())
            event(accessQ[b].frontReady());
        // 4. A queued miss drains unless the DRAM scheduler queue is
        // full (ideal DRAM never back-pressures); the full case is a
        // frozen no-op until a DRAM tick frees a slot.
        if (!bank.missQueueEmpty() &&
            (cfg.idealDram || channel->canAccept()))
            return 0;
        // 5. An ejected request is pulled unless the access queue is
        // full; the full case is frozen until the head access drains.
        if (icnt->request().ejectReady(gid) && !accessQ[b].full())
            return 0;
        if (h == 0)
            return 0;
    }
    // 2. Fill retries: an unmemoized attempt is observable; a
    // memoized refusal is a frozen no-op until the bank mutates
    // (which happens only on ticks that pin or invalidate above).
    if (cfg.idealDram) {
        if (!idealPipe.empty()) {
            for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b)
                if (fillMemoVer[b] != banks[b]->version()) {
                    event(idealPipe.frontReady());
                    break;
                }
        }
    } else if (channel->returnReady()) {
        const MemFetch *mf = channel->returnPeek();
        for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b) {
            if (static_cast<std::uint32_t>(mf->l2BankId) ==
                    globalBankId(b) &&
                fillMemoVer[b] != banks[b]->version()) {
                return 0;
            }
        }
    }
    return h;
}

void
MemoryPartition::skipL2(std::uint64_t n)
{
    l2Cycle += n;
    for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b)
        accessQHist.sample(accessQ[b].size(), accessQ[b].capacity(), n);
}

std::uint64_t
MemoryPartition::dramHorizon() const
{
    // The ideal pipe lives on the L2 clock; DRAM ticks are pure
    // counter increments there. The real channel is dead only with an
    // empty scheduler queue, so its occupancy sample is a no-op too.
    if (cfg.idealDram)
        return kInfiniteHorizon;
    return channel->horizon();
}

void
MemoryPartition::skipDram(std::uint64_t n)
{
    dramCycle += n;
    if (!cfg.idealDram)
        channel->skipCycles(n);
}

void
MemoryPartition::tickDram(double now_ps)
{
    ++dramCycle;
    if (cfg.idealDram)
        return;
    channel->tick(now_ps);
    channel->sampleOccupancy(dramQHist);
}

bool
MemoryPartition::drained() const
{
    for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b) {
        if (!accessQ[b].empty() || !banks[b]->missQueueEmpty() ||
            banks[b]->mshrSize() > 0 || banks[b]->respQueueSize() > 0) {
            return false;
        }
    }
    if (channel && !channel->drained())
        return false;
    if (!idealPipe.empty())
        return false;
    return true;
}

} // namespace bwsim
