#include "dram/dram_channel.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "sim/clock.hh"
#include "stats/stat.hh"

namespace bwsim
{

DramLegalityChecker::DramLegalityChecker(const DramTiming &timing,
                                         std::uint32_t num_banks,
                                         std::uint32_t burst_cycles)
    : t(timing), burst(burst_cycles), banks(num_banks)
{
}

void
DramLegalityChecker::onCommand(DramCmd cmd, std::uint32_t bank, Cycle now)
{
    BankHist &b = banks.at(bank);
    switch (cmd) {
      case DramCmd::Activate:
        bwsim_assert(!b.open, "ACT to open bank %u @%llu", bank,
                     static_cast<unsigned long long>(now));
        bwsim_assert(!b.everAct || now >= b.lastAct + t.tRC,
                     "tRC violation on bank %u", bank);
        bwsim_assert(!b.everPre || now >= b.lastPre + t.tRP,
                     "tRP violation on bank %u", bank);
        bwsim_assert(!everAnyAct || now >= lastAnyAct + t.tRRD,
                     "tRRD violation on bank %u", bank);
        b.lastAct = now;
        b.everAct = true;
        b.open = true;
        lastAnyAct = now;
        everAnyAct = true;
        break;
      case DramCmd::Precharge:
        bwsim_assert(b.open, "PRE to closed bank %u", bank);
        bwsim_assert(now >= b.lastAct + t.tRAS, "tRAS violation on bank %u",
                     bank);
        bwsim_assert(!b.everWrite ||
                         now >= b.lastWrite + t.WL + burst + t.tWR,
                     "tWR violation on bank %u", bank);
        b.lastPre = now;
        b.everPre = true;
        b.open = false;
        break;
      case DramCmd::ReadCol:
        bwsim_assert(b.open, "RD to closed bank %u", bank);
        bwsim_assert(now >= b.lastAct + t.tRCD, "tRCD violation (RD) b%u",
                     bank);
        bwsim_assert(!everAnyCol || now >= lastAnyCol + t.tCCD,
                     "tCCD violation (RD) b%u", bank);
        bwsim_assert(!b.everWrite ||
                         now >= b.lastWrite + t.WL + burst + t.tCDLR,
                     "tCDLR violation b%u", bank);
        b.lastRead = now;
        b.everRead = true;
        lastAnyCol = now;
        everAnyCol = true;
        break;
      case DramCmd::WriteCol:
        bwsim_assert(b.open, "WR to closed bank %u", bank);
        bwsim_assert(now >= b.lastAct + t.tRCD, "tRCD violation (WR) b%u",
                     bank);
        bwsim_assert(!everAnyCol || now >= lastAnyCol + t.tCCD,
                     "tCCD violation (WR) b%u", bank);
        b.lastWrite = now;
        b.everWrite = true;
        lastAnyCol = now;
        everAnyCol = true;
        break;
    }
}

DramChannel::DramChannel(const DramParams &params,
                         MemFetchAllocator *allocator, int partition_id)
    : cfg(params), alloc(allocator), partitionId(partition_id),
      banks(params.numBanks),
      returnQ(params.returnQueueEntries),
      checker(params.timing, params.numBanks,
              static_cast<std::uint32_t>(
                  divCeil(params.lineBytes, params.busBytesPerCycle)))
{
    bwsim_assert(alloc, "DRAM channel needs a packet allocator");
    bwsim_assert(isPowerOf2(cfg.lineBytes), "line size must be 2^n");
    bwsim_assert(cfg.rowBytes >= cfg.lineBytes,
                 "row smaller than a cache line");
    bwsim_assert(cfg.numBanks <= 64,
                 "bank bitmasks support at most 64 banks");
    slots.reserve(cfg.schedQueueEntries);
    bankQ.resize(cfg.numBanks);
    maxCas = std::max(cfg.timing.CL, cfg.timing.WL);
}

void
DramChannel::registerStats(stats::Group &parent)
{
    stats::Group &g = parent.createChild("dram");
    g.bindScalar("reads", "column read commands", ctr.reads);
    g.bindScalar("writes", "column write commands", ctr.writes);
    g.bindScalar("activates", "row activate commands", ctr.activates);
    g.bindScalar("precharges", "precharge commands", ctr.precharges);
    g.bindScalar("bytes_read", "data bytes read over the bus",
                 ctr.bytesRead);
    g.bindScalar("bytes_written", "data bytes written over the bus",
                 ctr.bytesWritten);
    g.bindScalar("data_bus_busy_cycles",
                 "command-clock cycles with the data bus transferring",
                 ctr.dataBusBusyCycles);
    g.bindScalar("pending_cycles", "cycles with >=1 queued request",
                 ctr.pendingCycles);
    g.bindScalar("cycles", "command-clock cycles ticked", ctr.cycles);
    g.formula("efficiency", "busy / pending cycles (Sec. IV-B1)",
              [this] { return ctr.efficiency(); });
    g.formula("row_hit_rate", "column accesses not needing an activate",
              [this] { return ctr.rowHitRate(); });
}

void
DramChannel::mapAddress(Addr line_addr, std::uint32_t &bank,
                        std::uint64_t &row) const
{
    // Lines are interleaved across partitions; reconstruct this
    // partition's local line index, then split into column within a
    // row, bank, and row: consecutive rows of traffic sweep through a
    // row's worth of lines in one bank before moving to the next bank.
    std::uint64_t line_idx = (line_addr / cfg.lineBytes) /
                             cfg.numPartitions;
    std::uint64_t lines_per_row = cfg.rowBytes / cfg.lineBytes;
    std::uint64_t row_idx = line_idx / lines_per_row;
    bank = static_cast<std::uint32_t>(row_idx % cfg.numBanks);
    row = row_idx / cfg.numBanks;
}

void
DramChannel::push(MemFetch *mf)
{
    bwsim_assert(canAccept(), "push to full DRAM scheduler queue");
    Request r;
    r.mf = mf;
    r.write = mf->isWrite();
    mapAddress(mf->lineAddr, r.bank, r.row);
    r.seq = pushSeq++;
    int slot;
    if (!freeSlots.empty()) {
        slot = freeSlots.back();
        freeSlots.pop_back();
    } else {
        slot = static_cast<int>(slots.size());
        slots.emplace_back();
    }
    slots[slot] = r;
    bankQ[r.bank].push_back(slot);
    banksWithReqs |= std::uint64_t(1) << r.bank;
    ++queuedCount;
}

void
DramChannel::releaseSlot(int slot)
{
    const Request &r = slots[slot];
    auto &q = bankQ[r.bank];
    q.erase(std::find(q.begin(), q.end(), slot));
    if (q.empty())
        banksWithReqs &= ~(std::uint64_t(1) << r.bank);
    freeSlots.push_back(slot);
    --queuedCount;
}

bool
DramChannel::tryIssueColumn(double now_ps)
{
    if (cycle < chanColAllowedAt)
        return false;
    // Bus-saturation early-out: a candidate's data burst would begin at
    // cycle + CL/WL, so when even the latest possible start (maxCas) is
    // still before busFreeAt every entry fails the bus test -- the
    // dominant case in the congested regime, skipped without any scan.
    if (cycle + maxCas < busFreeAt)
        return false;
    // A column command needs an open bank with a matching row, so only
    // the open banks that hold queued requests can produce candidates.
    // Within one bank every entry sees the same bank state, so the
    // first qualifying entry in the bank's FIFO bucket is that bank's
    // oldest candidate; the FR-FCFS winner is the min seq across
    // banks, exactly the entry a global FIFO scan would find first.
    std::uint64_t mask = banksWithReqs & openBanks;
    int best = -1;
    std::uint64_t best_seq = 0;
    while (mask) {
        std::uint32_t bk =
            static_cast<std::uint32_t>(__builtin_ctzll(mask));
        mask &= mask - 1;
        Bank &b = banks[bk];
        if (cycle < b.colAllowedAt)
            continue;
        for (int slot : bankQ[bk]) {
            const Request &r = slots[slot];
            if (r.row != b.row)
                continue;
            if (!r.write && cycle < b.readColAfterWrite)
                continue;
            std::uint32_t cas = r.write ? cfg.timing.WL : cfg.timing.CL;
            if (cycle + cas < busFreeAt)
                continue; // data bus occupied when our burst would begin
            if (!r.write && returnQ.size() + returnsInFlight >=
                                cfg.returnQueueEntries) {
                continue; // no room to land the read data
            }
            if (best < 0 || r.seq < best_seq) {
                best = slot;
                best_seq = r.seq;
            }
            break; // bucket is FIFO: later entries are younger
        }
    }
    if (best < 0)
        return false;

    // Issue the column command. The burst moves the packet's data
    // payload: writebacks carry their store bytes, read fetches
    // what the servicing cache allocates (full lines for an
    // unsectored L2, demanded sectors for a sectored one).
    const Request req = slots[best];
    Bank &b = banks[req.bank];
    std::uint32_t cas = req.write ? cfg.timing.WL : cfg.timing.CL;
    Cycle data_start = cycle + cas;
    std::uint32_t transfer =
        req.write ? std::max<std::uint32_t>(1, req.mf->storeBytes)
                  : std::max<std::uint32_t>(1, req.mf->fillBytes);
    std::uint32_t burst = static_cast<std::uint32_t>(
        divCeil(transfer, cfg.busBytesPerCycle));
    Cycle data_end = data_start + burst;
    busFreeAt = data_end;
    chanColAllowedAt = cycle + cfg.timing.tCCD;
    ctr.dataBusBusyCycles += burst;
    if (req.write) {
        checker.onCommand(DramCmd::WriteCol, req.bank, cycle);
        b.preAllowedAt = std::max(b.preAllowedAt,
                                  data_end + cfg.timing.tWR);
        b.readColAfterWrite = data_end + cfg.timing.tCDLR;
        writeDrainPipe.push(req.mf, data_end);
        ++ctr.writes;
        ctr.bytesWritten += transfer;
    } else {
        checker.onCommand(DramCmd::ReadCol, req.bank, cycle);
        readReturnPipe.push(req.mf, data_end + cfg.returnPipeLatency);
        ++returnsInFlight;
        ++ctr.reads;
        ctr.bytesRead += transfer;
    }
    (void)now_ps;
    releaseSlot(best);
    return true;
}

bool
DramChannel::tryIssueActivate()
{
    if (cycle < chanActAllowedAt)
        return false;
    // Activate qualification is purely bank-level (closed + tRC ready),
    // so each closed bank's oldest request -- its bucket front -- is
    // that bank's candidate, and the min seq across banks is the entry
    // the global FIFO scan would have reached first.
    std::uint64_t mask = banksWithReqs & ~openBanks;
    int best = -1;
    std::uint64_t best_seq = 0;
    while (mask) {
        std::uint32_t bk =
            static_cast<std::uint32_t>(__builtin_ctzll(mask));
        mask &= mask - 1;
        Bank &b = banks[bk];
        if (cycle < b.actAllowedAt)
            continue;
        const Request &r = slots[bankQ[bk].front()];
        if (best < 0 || r.seq < best_seq) {
            best = bankQ[bk].front();
            best_seq = r.seq;
        }
    }
    if (best < 0)
        return false;
    const Request &req = slots[best];
    Bank &b = banks[req.bank];
    checker.onCommand(DramCmd::Activate, req.bank, cycle);
    b.open = true;
    b.row = req.row;
    b.colAllowedAt = cycle + cfg.timing.tRCD;
    b.preAllowedAt = std::max(b.preAllowedAt,
                              Cycle(cycle + cfg.timing.tRAS));
    b.actAllowedAt = cycle + cfg.timing.tRC;
    chanActAllowedAt = cycle + cfg.timing.tRRD;
    openBanks |= std::uint64_t(1) << req.bank;
    ++ctr.activates;
    return true;
}

bool
DramChannel::tryIssuePrecharge()
{
    // Precharge wants an open bank whose oldest row-mismatching entry
    // is the overall oldest such entry: walk each open bank's bucket
    // for its first mismatch, min seq across banks wins.
    std::uint64_t mask = banksWithReqs & openBanks;
    int best_bank = -1;
    std::uint64_t best_seq = 0;
    while (mask) {
        std::uint32_t bk =
            static_cast<std::uint32_t>(__builtin_ctzll(mask));
        mask &= mask - 1;
        Bank &b = banks[bk];
        if (cycle < b.preAllowedAt)
            continue;
        for (int slot : bankQ[bk]) {
            const Request &r = slots[slot];
            if (r.row == b.row)
                continue;
            if (best_bank < 0 || r.seq < best_seq) {
                best_bank = static_cast<int>(bk);
                best_seq = r.seq;
            }
            break; // bucket is FIFO: later entries are younger
        }
    }
    if (best_bank < 0)
        return false;
    Bank &b = banks[best_bank];
    checker.onCommand(DramCmd::Precharge,
                      static_cast<std::uint32_t>(best_bank), cycle);
    b.open = false;
    b.actAllowedAt = std::max(b.actAllowedAt,
                              Cycle(cycle + cfg.timing.tRP));
    openBanks &= ~(std::uint64_t(1) << best_bank);
    ++ctr.precharges;
    return true;
}

void
DramChannel::tick(double now_ps)
{
    ++cycle;
    ++ctr.cycles;

    // Retire completed write bursts (write data has left the bus).
    while (writeDrainPipe.ready(cycle)) {
        MemFetch *mf = writeDrainPipe.pop();
        alloc->free(mf);
    }

    // Land completed reads in the bounded return queue; space was
    // reserved at column-issue time.
    while (readReturnPipe.ready(cycle)) {
        MemFetch *mf = readReturnPipe.pop();
        bool ok = returnQ.push(mf);
        bwsim_assert(ok, "reserved DRAM return slot missing");
        bwsim_assert(returnsInFlight > 0, "return reservation underflow");
        --returnsInFlight;
    }

    if (queuedCount == 0)
        return;
    ++ctr.pendingCycles;

    // FR-FCFS: one command per cycle, column commands first.
    if (tryIssueColumn(now_ps))
        return;
    if (tryIssueActivate())
        return;
    tryIssuePrecharge();
}

std::uint64_t
DramChannel::horizon() const
{
    if (queuedCount != 0)
        return 0;
    // Burst retirements are observable (packet frees, return-queue
    // landings) and must execute as real ticks.
    std::uint64_t h = kInfiniteHorizon;
    auto event = [this, &h](Cycle ready) {
        h = std::min(h, ready > cycle + 1
                            ? static_cast<std::uint64_t>(ready - cycle - 1)
                            : std::uint64_t(0));
    };
    if (!writeDrainPipe.empty())
        event(writeDrainPipe.frontReady());
    if (!readReturnPipe.empty())
        event(readReturnPipe.frontReady());
    return h;
}

MemFetch *
DramChannel::returnPop()
{
    return returnQ.pop();
}

bool
DramChannel::drained() const
{
    return queuedCount == 0 && returnQ.empty() &&
           readReturnPipe.empty() && writeDrainPipe.empty() &&
           returnsInFlight == 0;
}

} // namespace bwsim
