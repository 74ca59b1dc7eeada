#include "smcore/sm_core.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "sim/clock.hh"
#include "stats/stat.hh"

namespace bwsim
{

SmCore::SmCore(const CoreParams &params, MemFetchAllocator *allocator)
    : cfg(params), alloc(allocator),
      warps(params.maxWarps),
      wflags(params.maxWarps, 0),
      ibufCnt(params.maxWarps, 0),
      headOp(params.maxWarps, 0),
      headDest(params.maxWarps, -1),
      headSrc(params.maxWarps, -1),
      warpPendingLsu(params.maxWarps, 0),
      schedList(params.numSchedulers),
      schedMask(params.numSchedulers, 0),
      ctas(params.maxCtasResident),
      scoreboard(params.maxWarps),
      lsu(params.memPipelineWidth),
      greedyWarp(params.numSchedulers, -1),
      lrrPtr(params.numSchedulers, 0),
      fetchMemoVer(params.maxWarps, ~std::uint64_t(0)),
      fetchMemoCause(params.maxWarps, 0)
{
    bwsim_assert(alloc, "core %d needs a packet allocator", cfg.coreId);
    bwsim_assert(cfg.maxWarps > 0 && cfg.numSchedulers > 0,
                 "core %d: bad warp/scheduler counts", cfg.coreId);
    bwsim_assert(cfg.maxWarps <= 64,
                 "core %d: fetch bitmask supports at most 64 warps",
                 cfg.coreId);
    bwsim_assert(cfg.memPipelineWidth > 0,
                 "core %d: memory pipeline needs width", cfg.coreId);
    for (int w = 0; w < cfg.maxWarps; ++w)
        schedMask[w % cfg.numSchedulers] |= std::uint64_t(1) << w;

    CacheParams l1dp = cfg.l1d;
    l1dp.name = csprintf("l1d_c%d", cfg.coreId);
    l1dCache = std::make_unique<CacheModel>(l1dp, alloc, cfg.coreId);

    CacheParams l1ip = cfg.l1i;
    l1ip.name = csprintf("l1i_c%d", cfg.coreId);
    l1ip.writePolicy = WritePolicy::ReadOnly;
    l1iCache = std::make_unique<CacheModel>(l1ip, alloc, cfg.coreId);
}

void
SmCore::registerStats(stats::Group &parent)
{
    stats::Group &g = parent.createChild(csprintf("core%d", cfg.coreId));
    g.bindScalar("cycles", "core cycles ticked", ctr.cycles);
    g.bindScalar("active_cycles", "cycles before this core finished",
                 ctr.activeCycles);
    g.bindScalar("issued_insts", "warp instructions issued",
                 ctr.issuedInsts);
    g.bindScalar("issued_cycles", "cycles with at least one issue",
                 ctr.issuedCycles);
    g.bindScalar("loads_issued", "load instructions issued",
                 ctr.loadsIssued);
    g.bindScalar("stores_issued", "store instructions issued",
                 ctr.storesIssued);
    g.bindScalar("l1_accesses", "coalesced accesses presented to the L1D",
                 ctr.l1Accesses);
    g.bindScalar("req_bytes_out",
                 "request bytes drained toward the interconnect",
                 ctr.reqBytesOut);
    g.bindScalar("reply_bytes_in", "reply bytes delivered to this core",
                 ctr.replyBytesIn);
    g.bindScalar("ctas_completed", "thread blocks retired",
                 ctr.ctasCompleted);
    g.bindScalar("warps_completed", "warps retired", ctr.warpsCompleted);
    std::vector<std::string> causes;
    for (unsigned i = 0; i < numIssueStallCauses; ++i)
        causes.push_back(issueStallName(static_cast<IssueStall>(i)));
    g.bindVector("issue_stalls", "no-issue cycles by cause (Fig. 7)",
                 ctr.issueStalls.data(), numIssueStallCauses,
                 std::move(causes));
    g.bindValue("mem_lat_sum", "summed L1-miss latencies (core cycles)",
                ctr.memLatSum);
    g.bindScalar("mem_lat_samples", "L1-miss latency samples",
                 ctr.memLatCount);
    g.bindValue("l2_hit_lat_sum", "summed L2-hit latencies (core cycles)",
                ctr.l2HitLatSum);
    g.bindScalar("l2_hit_lat_samples", "L2-hit latency samples",
                 ctr.l2HitLatCount);
    g.formula("avg_mem_lat", "average L1-miss latency (AML input)",
              [this] {
                  return ctr.memLatCount
                             ? ctr.memLatSum /
                                   static_cast<double>(ctr.memLatCount)
                             : 0.0;
              });
    l1dCache->registerStats(g, "l1d");
    l1iCache->registerStats(g, "l1i");
}

void
SmCore::syncHead(int warp)
{
    if (ibufCnt[warp] == 0)
        return;
    const WarpInstData &inst = warps[warp].ibuf.front();
    headOp[warp] = static_cast<std::uint8_t>(inst.op);
    headDest[warp] = static_cast<std::int16_t>(inst.dest);
    headSrc[warp] = static_cast<std::int16_t>(inst.src);
}

void
SmCore::updateWarpBits(int warp)
{
    const std::uint64_t bit = std::uint64_t(1) << warp;
    auto set = [bit](std::uint64_t &mask, bool on) {
        mask = on ? (mask | bit) : (mask & ~bit);
    };
    std::uint8_t f = wflags[warp];
    bool live = f & WfInUse;
    set(fetchEligible,
        f == WfInUse && int(ibufCnt[warp]) < cfg.ibufferEntries);
    bool decoded = live && ibufCnt[warp] > 0;
    set(unfetchedMask,
        live && (!(f & WfCursorDone) || (f & WfWaitingIFetch)));
    set(memPendingMask, live && warpPendingLsu[warp] > 0);
    PendingKind blocked = PendingKind::None;
    set(hazardFree, decoded && scoreboard.canIssueRegs(
                                   warp, headSrc[warp], headDest[warp],
                                   blocked));
    set(blockedMem, decoded && blocked == PendingKind::Mem);
    set(blockedAlu, decoded && blocked == PendingKind::Alu);
    set(retireReady, f == (WfInUse | WfCursorDone) && ibufCnt[warp] == 0 &&
                         warpPendingLsu[warp] == 0 &&
                         !scoreboard.anyPending(warp));
}

void
SmCore::maybeDispatchCtas()
{
    if (!source)
        return;
    while (activeCtas < cfg.maxCtasResident && source->hasWork()) {
        int free_warps = cfg.maxWarps - liveWarps;
        int cta_slot = -1;
        for (int c = 0; c < int(ctas.size()); ++c) {
            if (!ctas[c].active) {
                cta_slot = c;
                break;
            }
        }
        if (cta_slot < 0)
            return;

        CtaWork work = source->takeCta(cfg.coreId);
        bwsim_assert(work.numWarps > 0 && work.makeCursor,
                     "core %d received an empty CTA", cfg.coreId);
        bwsim_assert(work.numWarps <= free_warps,
                     "core %d: CTA of %d warps exceeds %d free contexts "
                     "(lower maxCtasResident or warps per CTA)",
                     cfg.coreId, work.numWarps, free_warps);

        ctas[cta_slot].active = true;
        ctas[cta_slot].warpsLeft = work.numWarps;
        ++activeCtas;

        int launched = 0;
        for (int w = 0; w < int(warps.size()) && launched < work.numWarps;
             ++w) {
            if (wflags[w] & WfInUse)
                continue;
            Warp &warp = warps[w];
            warp.cursor = work.makeCursor(launched);
            warp.ibuf.clear();
            warp.ctaSlot = cta_slot;
            warp.age = ageCounter++;
            warpPendingLsu[w] = 0;
            wflags[w] = WfInUse |
                        (warp.cursor->done() ? WfCursorDone : 0);
            ibufCnt[w] = 0;
            updateWarpBits(w);
            ++liveWarps;
            ++launched;
        }
        schedListDirty = true;
        issueDirty = true;
    }
}

int
SmCore::nextFetchWarp() const
{
    std::uint64_t rotated = fetchPtr < 64
                                ? (fetchEligible &
                                   (~std::uint64_t(0) << fetchPtr))
                                : 0;
    return rotated ? __builtin_ctzll(rotated)
                   : __builtin_ctzll(fetchEligible);
}

void
SmCore::fetchStage(double now_ps)
{
    // One I-cache access per cycle for the round-robin-next warp that
    // wants instructions, found via the eligibility bitmask.
    if (fetchEligible == 0)
        return;
    int w = nextFetchWarp();

    // Batched retry: a stalled I-fetch leaves the cache and the warp's
    // PC untouched, and L1I stall outcomes depend only on cache state
    // (no data port, no response queue at L1), so while the L1I
    // version is unchanged the same warp re-derives the same stall.
    // Replay the counter math and skip the probe.
    if (fetchMemoVer[w] == l1iCache->version()) {
        l1iCache->countStall(
            static_cast<CacheStallCause>(fetchMemoCause[w]));
        updateWarpBits(w);
        fetchPtr = (w + 1) % int(warps.size());
        return;
    }

    Warp &warp = warps[w];
    Addr pc = warp.cursor->nextPc();
    Addr line = roundDown(pc, cfg.l1i.lineBytes);
    CacheAccess acc;
    acc.lineAddr = line;
    acc.warpId = w;
    acc.slotId = -1;
    acc.isInstFetch = true;
    CacheOutcome out = l1iCache->access(acc, cycle, now_ps);
    if (isStallOutcome(out) && out != CacheOutcome::StallPortBusy) {
        // PortBusy (port-configured caches only) depends on the
        // current cycle, not just cache state: never memoize it.
        fetchMemoVer[w] = l1iCache->version();
        fetchMemoCause[w] = static_cast<std::uint8_t>(
            CacheModel::stallCauseOf(out));
    }
    if (out == CacheOutcome::HitServiced) {
        bool was_empty = (ibufCnt[w] == 0);
        for (int k = 0; k < cfg.fetchWidth &&
                        int(ibufCnt[w]) < cfg.ibufferEntries;
             ++k) {
            if (warp.cursor->done())
                break;
            if (roundDown(warp.cursor->nextPc(), cfg.l1i.lineBytes) !=
                line) {
                break; // next instruction is on another line
            }
            WarpInstData inst;
            bool ok = warp.cursor->next(inst);
            bwsim_assert(ok, "cursor lied about done()");
            warp.ibuf.push_back(std::move(inst));
            ++ibufCnt[w];
        }
        if (was_empty)
            syncHead(w);
        issueDirty = true; // refilled I-buffer: new issue candidate
        if (warp.cursor->done())
            wflags[w] |= WfCursorDone;
    } else if (out == CacheOutcome::MissIssued ||
               out == CacheOutcome::MissMerged) {
        wflags[w] |= WfWaitingIFetch;
    }
    // On a stall outcome the I-cache counted the cause; retry later.
    updateWarpBits(w);
    fetchPtr = (w + 1) % int(warps.size());
}

int
SmCore::allocPendingOp(int warp, bool write, int dest_reg,
                       std::uint32_t n_accesses)
{
    int idx;
    if (!pendingFree.empty()) {
        idx = pendingFree.back();
        pendingFree.pop_back();
    } else {
        idx = int(pendingOps.size());
        pendingOps.emplace_back();
    }
    PendingMemOp &p = pendingOps[idx];
    p.valid = true;
    p.warpId = warp;
    p.write = write;
    p.destReg = dest_reg;
    p.remaining = n_accesses;
    ++warpPendingLsu[warp];
    updateWarpBits(warp);
    return idx;
}

int
SmCore::lsuAllocSlot(int warp, const WarpInstData &inst)
{
    for (int i = 0; i < int(lsu.size()); ++i) {
        if (lsu[i].valid)
            continue;
        LsuSlot &s = lsu[i];
        s.valid = true;
        s.warpId = warp;
        s.write = (inst.op == Op::Store);
        s.addrs = inst.lineAddrs;
        s.nextIdx = 0;
        s.storeBytes = inst.storeBytes;
        s.seq = lsuSeq++;
        bwsim_assert(!s.addrs.empty(),
                     "memory instruction with no accesses");
        s.pendingIdx = allocPendingOp(
            warp, s.write, s.write ? -1 : inst.dest,
            static_cast<std::uint32_t>(s.addrs.size()));
        ++lsuOccupied;
        if (lsuOldest < 0)
            lsuOldest = i;
        return i;
    }
    panic("lsuAllocSlot with no free slot");
}

void
SmCore::rebuildSchedLists()
{
    static thread_local std::vector<std::pair<std::uint64_t, int>> aged;
    for (int s = 0; s < cfg.numSchedulers; ++s) {
        aged.clear();
        for (int w = s; w < int(warps.size()); w += cfg.numSchedulers)
            if (wflags[w] & WfInUse)
                aged.emplace_back(warps[w].age, w);
        std::sort(aged.begin(), aged.end());
        schedList[s].clear();
        for (auto &[age, w] : aged)
            schedList[s].push_back(w);
    }
    schedListDirty = false;
}

void
SmCore::popIbufHead(int warp)
{
    warps[warp].ibuf.pop_front();
    if (--ibufCnt[warp] > 0)
        syncHead(warp);
    updateWarpBits(warp);
}

void
SmCore::issueStage()
{
    issuedThisCycle = 0;
    aluIssuedThisCycle = 0;

    // Batched retry: a zero-issue scan has no side effects beyond the
    // struct flags, and its outcome is a pure function of state that
    // only changes at marked points (issue itself, exec completions,
    // fetch refills, memory completions, dispatch/retire), each of
    // which sets issueDirty. While clean, this cycle's scan would
    // re-derive exactly the flags the last scan left behind: keep
    // them and skip the warp loop.
    if (!issueDirty)
        return;
    sawStructMem = sawStructAlu = false;

    for (int s = 0; s < cfg.numSchedulers; ++s) {
        // Only warps whose head clears the scoreboard can issue or meet
        // a structural hazard; data-blocked warps are accounted for by
        // blockedMem/blockedAlu without being visited.
        std::uint64_t cand = hazardFree & schedMask[s];
        if (cand == 0)
            continue;
        if (schedListDirty)
            rebuildSchedLists();
        const auto &list = schedList[s];

        // Candidate order: greedy warp first, then oldest-first (GTO),
        // or the age list rotated by lrrPtr (LRR). The schedList is
        // age-sorted and only rebuilt on dispatch/retire. Each
        // candidate is visited once; the walk ends at the first issue
        // or once no candidate is left.
        int issued_warp = -1;
        auto visit = [&](int w) {
            const std::uint64_t bit = std::uint64_t(1) << w;
            if (!(cand & bit))
                return;
            cand &= ~bit;
            if (tryIssue(w))
                issued_warp = w;
        };
        const std::size_t n = list.size();
        if (cfg.sched == SchedPolicy::Gto) {
            if (greedyWarp[s] >= 0)
                visit(greedyWarp[s]);
            for (std::size_t i = 0; issued_warp < 0 && cand && i < n; ++i)
                visit(list[i]);
        } else {
            std::size_t li = std::size_t(lrrPtr[s]) % n;
            for (std::size_t k = 0; issued_warp < 0 && cand && k < n; ++k) {
                visit(list[li]);
                li = li + 1 == n ? 0 : li + 1;
            }
        }

        if (issued_warp >= 0) {
            if (cfg.sched == SchedPolicy::Gto)
                greedyWarp[s] = issued_warp;
            else
                lrrPtr[s] = lrrPtr[s] + 1;
        }
    }

    // An issue changed scoreboard/unit/I-buffer state, so next cycle
    // must scan again; a zero-issue scan is reusable until a marked
    // mutation re-arms the dirty bit.
    issueDirty = (issuedThisCycle > 0);
}

bool
SmCore::tryIssue(int w)
{
    // Hazard checks run on the compact head mirror; the I-buffer is only
    // touched when the instruction actually issues.
    Op op = static_cast<Op>(headOp[w]);
    bool is_mem = (op == Op::Load || op == Op::Store);
    bool unit_free;
    if (is_mem) {
        unit_free = lsuHasFreeSlot();
        if (!unit_free)
            sawStructMem = true;
    } else if (op == Op::Sfu) {
        unit_free = sfuInflight < cfg.sfuInflightCap &&
                    aluIssuedThisCycle < cfg.aluIssuePerCycle;
        if (!unit_free)
            sawStructAlu = true;
    } else {
        unit_free = aluInflight < cfg.aluInflightCap &&
                    aluIssuedThisCycle < cfg.aluIssuePerCycle;
        if (!unit_free)
            sawStructAlu = true;
    }
    if (!unit_free)
        return false;

    Warp &warp = warps[w];
    const WarpInstData &inst = warp.ibuf.front();
    if (inst.isMem()) {
        lsuAllocSlot(w, inst);
        if (inst.op == Op::Load) {
            scoreboard.setPending(w, inst.dest, PendingKind::Mem);
            ++ctr.loadsIssued;
        } else {
            ++ctr.storesIssued;
        }
    } else {
        if (inst.dest >= 0)
            scoreboard.setPending(w, inst.dest, PendingKind::Alu);
        auto &pipe = (inst.op == Op::Sfu) ? sfuPipe : aluPipe;
        pipe.push({w, inst.dest}, cycle + inst.latency);
        if (inst.op == Op::Sfu)
            ++sfuInflight;
        else
            ++aluInflight;
        ++aluIssuedThisCycle;
    }
    popIbufHead(w);
    ++issuedThisCycle;
    ++ctr.issuedInsts;
    return true; // one instruction per scheduler per cycle
}

void
SmCore::execStage()
{
    while (aluPipe.ready(cycle)) {
        auto [w, reg] = aluPipe.pop();
        if (reg >= 0) {
            scoreboard.clear(w, reg);
            updateWarpBits(w);
        }
        --aluInflight;
        issueDirty = true;
    }
    while (sfuPipe.ready(cycle)) {
        auto [w, reg] = sfuPipe.pop();
        if (reg >= 0) {
            scoreboard.clear(w, reg);
            updateWarpBits(w);
        }
        --sfuInflight;
        issueDirty = true;
    }
}

void
SmCore::pendingAccessDone(int pending_idx)
{
    PendingMemOp &p = pendingOps[pending_idx];
    bwsim_assert(p.valid, "completion for an empty pending op");
    bwsim_assert(p.remaining > 0, "pending op completion underflow");
    --p.remaining;
    if (p.remaining > 0)
        return;
    // Whole warp memory instruction complete (the paper's "tail
    // request" semantics: the warp resumes only when its last access
    // returns).
    if (!p.write && p.destReg >= 0)
        scoreboard.clear(p.warpId, p.destReg);
    bwsim_assert(warpPendingLsu[p.warpId] > 0,
                 "warp LSU accounting underflow");
    --warpPendingLsu[p.warpId];
    updateWarpBits(p.warpId);
    p.valid = false;
    pendingFree.push_back(pending_idx);
    issueDirty = true;
}

void
SmCore::memStage(double now_ps)
{
    // Retire L1 hit completions that reached data-ready this cycle.
    while (hitPipe.ready(cycle)) {
        int idx = hitPipe.pop();
        pendingAccessDone(idx);
    }

    // Present the oldest buffered access to the L1D (one per cycle).
    if (lsuOldest < 0)
        return;
    LsuSlot &s = lsu[lsuOldest];

    // Batched retry: a stalled L1D access leaves the cache untouched,
    // and L1 stall outcomes are pure functions of cache state (no data
    // port, no response queue at L1). While the L1D version and the
    // presented access are both unchanged, replay the stall-cause
    // count instead of re-probing.
    if (memRetryValid && l1dCache->version() == memRetryVer &&
        s.seq == memRetrySeq && s.nextIdx == memRetryIdx) {
        l1dCache->countStall(memRetryCause);
        return;
    }

    CacheAccess acc;
    acc.lineAddr = s.addrs[s.nextIdx];
    acc.write = s.write;
    acc.storeBytes = s.storeBytes;
    // A fully-coalesced warp load touches one line's worth of data;
    // divergence spreads that footprint over the coalesced lines, in
    // 32 B transaction quanta. This demand sizes the fetch/reply under
    // the bypass and sectored hierarchy variants.
    std::uint32_t per_line = static_cast<std::uint32_t>(divCeil(
        cfg.l1d.lineBytes, static_cast<std::uint32_t>(s.addrs.size())));
    acc.dataBytes = demandTransferBytes(per_line, kDemandQuantumBytes,
                                        cfg.l1d.lineBytes);
    acc.warpId = s.warpId;
    acc.slotId = s.pendingIdx;
    CacheOutcome out = l1dCache->access(acc, cycle, now_ps);
    if (isStallOutcome(out)) {
        if (out != CacheOutcome::StallPortBusy) {
            // PortBusy depends on the cycle, not just cache state:
            // never memoize it (L1s are portless in every preset).
            memRetryValid = true;
            memRetryVer = l1dCache->version();
            memRetrySeq = s.seq;
            memRetryIdx = s.nextIdx;
            memRetryCause = CacheModel::stallCauseOf(out);
        }
        return; // L1 counted the cause; retry next cycle
    }
    ++ctr.l1Accesses;
    issueDirty = true; // LSU slot progress can free a struct hazard
    int pending_idx = s.pendingIdx;
    ++s.nextIdx;
    if (s.nextIdx >= s.addrs.size()) {
        // All accesses accepted: free the buffer slot; the PendingMemOp
        // lives on until the tail access completes.
        s.valid = false;
        s.addrs.clear();
        --lsuOccupied;
        lsuOldest = oldestLsuSlot();
    }
    switch (out) {
      case CacheOutcome::HitServiced:
        hitPipe.push(pending_idx, cycle + cfg.l1d.hitLatency);
        break;
      case CacheOutcome::WriteForwarded:
        pendingAccessDone(pending_idx);
        break;
      case CacheOutcome::MissIssued:
      case CacheOutcome::MissMerged:
        break; // completion arrives with the fill
      default:
        panic("unexpected L1D outcome %s", cacheOutcomeName(out));
    }
}

int
SmCore::oldestLsuSlot() const
{
    int oldest = -1;
    std::uint64_t best_seq = ~std::uint64_t(0);
    for (int i = 0; i < int(lsu.size()); ++i) {
        const LsuSlot &s = lsu[i];
        if (!s.valid)
            continue;
        if (s.seq < best_seq) {
            best_seq = s.seq;
            oldest = i;
        }
    }
    return oldest;
}

void
SmCore::retireFinishedWarps()
{
    for (std::uint64_t m = retireReady; m; m &= m - 1) {
        int w = __builtin_ctzll(m);
        Warp &warp = warps[w];
        wflags[w] = 0;
        updateWarpBits(w);
        warp.cursor.reset();
        --liveWarps;
        ++ctr.warpsCompleted;
        CtaSlot &cta = ctas[warp.ctaSlot];
        bwsim_assert(cta.active && cta.warpsLeft > 0,
                     "warp retired into an inactive CTA");
        if (--cta.warpsLeft == 0) {
            cta.active = false;
            --activeCtas;
            ++ctr.ctasCompleted;
        }
        schedListDirty = true;
        issueDirty = true;
    }
}

void
SmCore::classifyStallCycle()
{
    if (issuedThisCycle > 0) {
        ++ctr.issuedCycles;
        return;
    }
    if (liveWarps == 0)
        return; // idle core: no work resident, not a stall
    IssueStall cause = stallCause(sawStructMem, sawStructAlu);
    ++ctr.issueStalls[static_cast<unsigned>(cause)];
}

IssueStall
SmCore::stallCause(bool struct_mem, bool struct_alu) const
{
    if (hazardFree | blockedMem | blockedAlu) { // anything decoded
        if (struct_mem)
            return IssueStall::StrMem;
        if (struct_alu)
            return IssueStall::StrAlu;
        if (blockedMem)
            return IssueStall::DataMem;
        if (blockedAlu)
            return IssueStall::DataAlu;
        return IssueStall::Fetch; // decoded only on an idle sched
    }
    // Nothing decoded anywhere: fetch-starved, unless every live warp
    // is merely draining its last memory/ALU operations.
    if (unfetchedMask)
        return IssueStall::Fetch;
    if (memPendingMask)
        return IssueStall::DataMem; // draining the memory tail
    return IssueStall::DataAlu;     // draining the exec pipes
}

void
SmCore::tick(double now_ps)
{
    ++cycle;
    ++ctr.cycles;
    if (!finishedLatched)
        ++ctr.activeCycles;

    maybeDispatchCtas();
    execStage();
    memStage(now_ps);
    issueStage();
    classifyStallCycle();
    fetchStage(now_ps);
    retireFinishedWarps();
    if (activeCtas < cfg.maxCtasResident)
        maybeDispatchCtas();

    if (!finishedLatched && done())
        finishedLatched = true;
    qhValid = false;
}

std::uint64_t
SmCore::computeQuiesceHorizon()
{
    // Any stage that could act on the very next tick in a way a bulk
    // charge cannot reproduce pins the horizon at 0: dispatch, a
    // retirement, or the finish latch.
    if (source && activeCtas < cfg.maxCtasResident && source->hasWork())
        return 0;
    if (retireReady)
        return 0;
    if (!finishedLatched && done())
        return 0;

    // Dry-run the issue scan: if any hazard-free warp's unit is free,
    // the tick must run. Otherwise the structural flags below are
    // exactly the ones a zero-issue issueStage() would set from this
    // (frozen) state, feeding the stall classification; data hazards
    // come from blockedMem/blockedAlu. When the batched-retry memo is
    // clean (!issueDirty), the last real scan already issued nothing
    // from this same state and its flags are current.
    bool saw_struct_mem = sawStructMem, saw_struct_alu = sawStructAlu;
    if (issueDirty) {
        saw_struct_mem = saw_struct_alu = false;
        for (std::uint64_t m = hazardFree; m; m &= m - 1) {
            Op op = static_cast<Op>(headOp[__builtin_ctzll(m)]);
            if (op == Op::Load || op == Op::Store) {
                if (lsuHasFreeSlot())
                    return 0;
                saw_struct_mem = true;
            } else {
                // aluIssuedThisCycle resets to 0 at issueStage entry,
                // so only the inflight caps gate a would-be issue.
                bool free = op == Op::Sfu ? sfuInflight < cfg.sfuInflightCap
                                          : aluInflight < cfg.aluInflightCap;
                if (free && cfg.aluIssuePerCycle > 0)
                    return 0;
                saw_struct_alu = true;
            }
        }
    }

    // A buffered LSU access whose stall cause is memoized against the
    // current L1D version is a fused span: each skipped cycle is
    // exactly one replayed countStall() on the oldest slot, charged in
    // bulk by skipCycles(). An unmemoized (or stale) access must tick
    // to re-probe.
    if (lsuOldest >= 0) {
        const LsuSlot &s = lsu[lsuOldest];
        if (!(memRetryValid && l1dCache->version() == memRetryVer &&
              s.seq == memRetrySeq && s.nextIdx == memRetryIdx)) {
            return 0;
        }
    }

    // Likewise for fetch: the round-robin scan visits only eligible
    // warps, so if every one of them has a memoized stall against the
    // current L1I version, each skipped cycle is one replayed
    // countStall() for the warp the rotation lands on -- integrable in
    // closed form (see integrateFetchRotation). Any eligible warp
    // without a valid memo must tick to probe the I-cache.
    for (std::uint64_t m = fetchEligible; m; m &= m - 1) {
        if (fetchMemoVer[__builtin_ctzll(m)] != l1iCache->version())
            return 0;
    }

    // Freeze the stall cause for the span, mirroring
    // classifyStallCycle() on the state every skipped cycle will see.
    skipStallCause = stallCause(saw_struct_mem, saw_struct_alu);

    // Earliest pipe completion, relative to the pre-incremented cycle
    // counter (an event at cycle value X fires on the tick that makes
    // the counter X).
    std::uint64_t h = kInfiniteHorizon;
    auto event = [this, &h](Cycle ready) {
        h = std::min(h,
                     ready > cycle + 1
                         ? static_cast<std::uint64_t>(ready - cycle - 1)
                         : std::uint64_t(0));
    };
    if (!aluPipe.empty())
        event(aluPipe.frontReady());
    if (!sfuPipe.empty())
        event(sfuPipe.frontReady());
    if (!hitPipe.empty())
        event(hitPipe.frontReady());
    return h;
}

void
SmCore::integrateFetchRotation(std::uint64_t n)
{
    // Reproduce n iterations of the fetch round-robin in closed form:
    // each cycle visits the first eligible warp at or after fetchPtr
    // (wrapping), replays its memoized stall, and advances fetchPtr
    // past it. With eligibility frozen, the visit sequence walks the
    // eligible set in circular ascending order, so warp i of the
    // rotation gets floor(n/m) or ceil(n/m) replayed stalls. One cycle
    // is just fetchStage()'s pick.
    if (n == 1) {
        int w = nextFetchWarp();
        l1iCache->countStall(
            static_cast<CacheStallCause>(fetchMemoCause[w]));
        fetchPtr = (w + 1) % int(warps.size());
        return;
    }
    int order[64];
    int m = 0;
    for (std::uint64_t mask = fetchEligible; mask; mask &= mask - 1)
        order[m++] = __builtin_ctzll(mask);
    int k0 = 0;
    while (k0 < m && order[k0] < fetchPtr)
        ++k0;
    if (k0 == m)
        k0 = 0;
    for (int i = 0; i < m; ++i) {
        std::uint64_t q =
            n / m + (std::uint64_t(i) < n % std::uint64_t(m) ? 1 : 0);
        if (q == 0)
            break; // later rotation positions get even fewer visits
        int w = order[(k0 + i) % m];
        l1iCache->countStalls(
            static_cast<CacheStallCause>(fetchMemoCause[w]), q);
    }
    int last = order[(k0 + int((n - 1) % std::uint64_t(m))) % m];
    fetchPtr = (last + 1) % int(warps.size());
}

bool
SmCore::skipCycles(std::uint64_t n)
{
    cycle += n;
    ctr.cycles += n;
    if (!finishedLatched)
        ctr.activeCycles += n;
    // No issue is possible on a skipped span, so every cycle
    // classifies as the frozen stall cause (or as idle with no warps
    // resident).
    if (liveWarps > 0)
        ctr.issueStalls[static_cast<unsigned>(skipStallCause)] += n;
    // Fused charges: the horizon only reported this span because the
    // memoized retries below were valid, and no state they consult can
    // have changed since (skips are flushed before any tick at the
    // next executed instant), so re-deriving from live state replays
    // exactly what n lockstep ticks would have counted.
    if (lsuOldest >= 0)
        l1dCache->countStalls(memRetryCause, n);
    if (fetchEligible != 0)
        integrateFetchRotation(n);
    if (qhValid && qhCache != kInfiniteHorizon)
        qhCache = qhCache > n ? qhCache - n : 0;
    return skipFuses();
}

bool
SmCore::done() const
{
    if (liveWarps > 0 || activeCtas > 0)
        return false;
    if (source && source->hasWork())
        return false;
    return aluInflight == 0 && sfuInflight == 0;
}

MemFetch *
SmCore::peekOutgoing()
{
    bwsim_assert(hasOutgoing(), "peekOutgoing with nothing pending");
    bool d_first = outgoingToggle || l1iCache->missQueueEmpty();
    if (!l1dCache->missQueueEmpty() && d_first)
        return l1dCache->missQueueFront();
    if (!l1iCache->missQueueEmpty())
        return l1iCache->missQueueFront();
    return l1dCache->missQueueFront();
}

void
SmCore::popOutgoing()
{
    bwsim_assert(hasOutgoing(), "popOutgoing with nothing pending");
    bool d_first = outgoingToggle || l1iCache->missQueueEmpty();
    outgoingToggle = !outgoingToggle;
    MemFetch *mf;
    if (!l1dCache->missQueueEmpty() && d_first)
        mf = l1dCache->missQueuePop();
    else if (!l1iCache->missQueueEmpty())
        mf = l1iCache->missQueuePop();
    else
        mf = l1dCache->missQueuePop();
    ctr.reqBytesOut += mf->requestBytes();
}

void
SmCore::deliverResponse(MemFetch *mf, double now_ps)
{
    qhValid = false;
    mf->tReplyBack = now_ps;
    ctr.replyBytesIn += mf->replyBytes();
    if (mf->type == AccessType::GlobalRead) {
        double lat_cycles = (now_ps - mf->tLeftL1) / cfg.corePeriodPs;
        ctr.memLatSum += lat_cycles;
        ++ctr.memLatCount;
        if (mf->servicedBy == ServicedBy::L2) {
            ctr.l2HitLatSum += lat_cycles;
            ++ctr.l2HitLatCount;
        }
    }

    if (mf->l1Bypass) {
        // Bypassed read: nothing to fill -- the reply completes the
        // waiting LSU slot directly.
        pendingAccessDone(mf->slotId);
        alloc->free(mf);
        return;
    }

    fillWoken.clear();
    CacheModel &target = mf->isInstFetch() ? *l1iCache : *l1dCache;
    bool ok = target.fill(mf, cycle, now_ps, fillWoken);
    bwsim_assert(ok, "L1 fill refused (L1s have no response queue)");
    for (const auto &w : fillWoken) {
        if (w.isInstFetch) {
            bwsim_assert(wflags[w.warpId] & WfWaitingIFetch,
                         "I-fetch wake for a warp that is not waiting");
            wflags[w.warpId] &= ~WfWaitingIFetch;
            updateWarpBits(w.warpId);
        } else {
            pendingAccessDone(w.slotId);
        }
    }
    alloc->free(mf);
}

std::string
SmCore::checkConsistency() const
{
    std::vector<std::uint32_t> pending(warps.size(), 0);
    for (const PendingMemOp &p : pendingOps)
        if (p.valid)
            ++pending[p.warpId];

    std::uint64_t want_eligible = 0, want_unfetched = 0;
    std::uint64_t want_mem_pending = 0, want_free = 0, want_mem = 0;
    std::uint64_t want_alu = 0, want_retire = 0;
    for (int w = 0; w < int(warps.size()); ++w) {
        const std::uint64_t bit = std::uint64_t(1) << w;
        const Warp &warp = warps[w];
        const std::uint8_t f = wflags[w];
        if (!(f & WfInUse))
            continue;
        if (pending[w] != warpPendingLsu[w])
            return csprintf("core %d warp %d: %u pending ops, counter "
                            "says %u",
                            cfg.coreId, w, pending[w], warpPendingLsu[w]);
        const std::size_t depth = warp.ibuf.size();
        if (depth != ibufCnt[w])
            return csprintf("core %d warp %d: I-buffer holds %zu, mirror "
                            "says %u",
                            cfg.coreId, w, depth, unsigned(ibufCnt[w]));
        if (f == WfInUse && int(depth) < cfg.ibufferEntries)
            want_eligible |= bit;
        if (!(f & WfCursorDone) || (f & WfWaitingIFetch))
            want_unfetched |= bit;
        if (pending[w] > 0)
            want_mem_pending |= bit;
        if (depth > 0) {
            PendingKind blocked;
            if (scoreboard.canIssue(w, warp.ibuf.front(), blocked))
                want_free |= bit;
            else if (blocked == PendingKind::Mem)
                want_mem |= bit;
            else
                want_alu |= bit;
        } else if (f == (WfInUse | WfCursorDone) && pending[w] == 0 &&
                   !scoreboard.anyPending(w)) {
            want_retire |= bit;
        }
    }
    const std::pair<const char *, std::pair<std::uint64_t, std::uint64_t>>
        masks[] = {
            {"fetchEligible", {fetchEligible, want_eligible}},
            {"unfetchedMask", {unfetchedMask, want_unfetched}},
            {"memPendingMask", {memPendingMask, want_mem_pending}},
            {"hazardFree", {hazardFree, want_free}},
            {"blockedMem", {blockedMem, want_mem}},
            {"blockedAlu", {blockedAlu, want_alu}},
            {"retireReady", {retireReady, want_retire}},
        };
    for (const auto &[name, have_want] : masks) {
        if (have_want.first != have_want.second)
            return csprintf("core %d: %s is %#llx, recomputed %#llx",
                            cfg.coreId, name,
                            static_cast<unsigned long long>(have_want.first),
                            static_cast<unsigned long long>(
                                have_want.second));
    }
    if (lsuOldest != oldestLsuSlot())
        return csprintf("core %d: cached oldest LSU slot %d, scan finds %d",
                        cfg.coreId, lsuOldest, oldestLsuSlot());
    return "";
}

} // namespace bwsim
