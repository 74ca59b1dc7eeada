/** @file Unit tests for the SIMT core: issue, hazards, LSU, stalls. */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>

#include "smcore/sm_core.hh"
#include "stats/stat.hh"

using namespace bwsim;

namespace
{

/** A cursor replaying a scripted instruction vector. */
class ScriptedCursor final : public TraceCursor
{
  public:
    explicit ScriptedCursor(std::vector<WarpInstData> insts,
                            Addr base = 0x1000)
        : script(std::move(insts)), base(base)
    {
        for (std::size_t i = 0; i < script.size(); ++i)
            script[i].pc = base + i * 8;
    }

    bool
    next(WarpInstData &out) override
    {
        if (done())
            return false;
        out = script[idx++];
        return true;
    }

    Addr nextPc() const override { return base + idx * 8; }
    bool done() const override { return idx >= script.size(); }

  private:
    std::vector<WarpInstData> script;
    Addr base;
    std::size_t idx = 0;
};

/**
 * Hands out one CTA per take, each warp running the same script; warp
 * w's code sits at 0x1000 + w * @p pc_stride (0: all warps share it).
 */
class ScriptSource final : public WorkSource
{
  public:
    ScriptSource(std::vector<WarpInstData> insts, int ctas, int warps,
                 Addr pc_stride = 0)
        : script(std::move(insts)), ctasLeft(ctas), warpsPerCta(warps),
          pcStride(pc_stride)
    {
    }

    bool hasWork() const override { return ctasLeft > 0; }

    CtaWork
    takeCta(int) override
    {
        --ctasLeft;
        CtaWork w;
        w.numWarps = warpsPerCta;
        auto s = script;
        Addr stride = pcStride;
        w.makeCursor = [s, stride](int warp) {
            return std::make_unique<ScriptedCursor>(
                s, 0x1000 + Addr(warp) * stride);
        };
        return w;
    }

  private:
    std::vector<WarpInstData> script;
    int ctasLeft;
    int warpsPerCta;
    Addr pcStride;
};

WarpInstData
alu(int dest, int src = -1, std::uint32_t lat = 4)
{
    WarpInstData i;
    i.op = Op::Alu;
    i.dest = dest;
    i.src = src;
    i.latency = lat;
    return i;
}

WarpInstData
load(int dest, Addr line_addr, int src = -1)
{
    WarpInstData i;
    i.op = Op::Load;
    i.dest = dest;
    i.src = src;
    i.lineAddrs = {line_addr};
    return i;
}

CoreParams
testCore()
{
    CoreParams p;
    p.coreId = 0;
    p.maxWarps = 8;
    p.numSchedulers = 2;
    p.maxCtasResident = 2;
    p.memPipelineWidth = 4;
    CacheParams l1;
    l1.sizeBytes = 16 * 1024;
    l1.mshrEntries = 4;
    l1.missQueueEntries = 4;
    p.l1d = l1;
    CacheParams l1i;
    l1i.sizeBytes = 4 * 1024;
    l1i.mshrEntries = 4;
    l1i.missQueueEntries = 4;
    p.l1i = l1i;
    return p;
}

/** Serve the core's memory traffic after a fixed delay. */
struct MemServer
{
    std::deque<std::pair<MemFetch *, int>> pending;
    MemFetchAllocator *alloc;
    int latency;

    void
    tick(SmCore &core)
    {
        while (core.hasOutgoing()) {
            MemFetch *mf = core.peekOutgoing();
            core.popOutgoing();
            if (mf->isWrite())
                alloc->free(mf);
            else
                pending.push_back({mf, latency});
        }
        for (auto &e : pending)
            --e.second;
        while (!pending.empty() && pending.front().second <= 0) {
            core.deliverResponse(pending.front().first, 0.0);
            pending.pop_front();
        }
    }
};

int
runUntilDone(SmCore &core, MemServer &server, int max_cycles = 50000)
{
    int cycles = 0;
    while (!core.done() && cycles < max_cycles) {
        core.tick(0.0);
        server.tick(core);
        ++cycles;
    }
    return cycles;
}

/** A core with its own allocator, memory server and stats tree. */
struct DrivenCore
{
    ScriptSource src;
    MemFetchAllocator alloc;
    SmCore core;
    MemServer server;
    stats::Group root{"core"};

    DrivenCore(const std::vector<WarpInstData> &prog, int warps,
               Addr pc_stride, const CoreParams &p, int latency)
        : src(prog, 1, warps, pc_stride), core(p, &alloc),
          server{{}, &alloc, latency}
    {
        core.setWorkSource(&src);
        core.registerStats(root);
    }

    void
    step()
    {
        core.tick(0.0);
        server.tick(core);
    }

    std::string
    dump() const
    {
        std::ostringstream os;
        root.dump(os);
        return os.str();
    }
};

/**
 * The core sleep set's invariant: on a span where quiesceHorizon() >= n,
 * n rounds of `quiesceHorizon(); skipCycles(1)` (one elided tick per
 * executed core edge) leave the core exactly as the one skipCycles(n)
 * Gpu::coreTick charges a core that slept through n edges. Drives two identical cores
 * in step and integrates every such span both ways, until one of them
 * replays memoized stalls of the L1I (@p fetch) or the L1D; then
 * requires equal stats trees and equal runs to completion.
 */
void
expectElisionMatchesBulkSkip(const std::vector<WarpInstData> &prog,
                             int warps, Addr pc_stride, const CoreParams &p,
                             int latency, std::uint64_t n, bool fetch)
{
    DrivenCore bulk(prog, warps, pc_stride, p, latency);
    DrivenCore elided(prog, warps, pc_stride, p, latency);
    auto stalls = [fetch](const SmCore &c) {
        return (fetch ? c.l1i() : c.l1d()).counters().totalStallCycles();
    };
    bool covered = false;
    for (int cycle = 0; !covered && !bulk.core.done() && cycle < 50000;
         ++cycle) {
        bulk.step();
        elided.step();
        const std::uint64_t h = bulk.core.quiesceHorizon();
        ASSERT_EQ(h, elided.core.quiesceHorizon());
        if (h < n)
            continue;
        const std::uint64_t stalls0 = stalls(bulk.core);
        bulk.core.skipCycles(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            ASSERT_GT(elided.core.quiesceHorizon(), 0u);
            elided.core.skipCycles(1);
        }
        ASSERT_EQ(bulk.dump(), elided.dump()) << "after cycle " << cycle;
        covered = stalls(bulk.core) >= stalls0 + n;
    }
    ASSERT_TRUE(covered) << "no span replayed memoized "
                         << (fetch ? "L1I" : "L1D") << " stalls";
    EXPECT_EQ(runUntilDone(bulk.core, bulk.server),
              runUntilDone(elided.core, elided.server));
    EXPECT_TRUE(bulk.core.done());
    EXPECT_EQ(bulk.dump(), elided.dump());
    EXPECT_EQ(elided.core.checkConsistency(), "");
}

} // namespace

TEST(SmCore, RunsAluProgramToCompletion)
{
    std::vector<WarpInstData> prog;
    for (int i = 0; i < 50; ++i)
        prog.push_back(alu(2 + i % 8, i >= 2 ? 2 + (i - 2) % 8 : -1));
    ScriptSource src(prog, 4, 4);
    MemFetchAllocator alloc;
    SmCore core(testCore(), &alloc);
    core.setWorkSource(&src);
    MemServer server{{}, &alloc, 40};
    int cycles = runUntilDone(core, server);
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.counters().issuedInsts, 50u * 4 * 4);
    EXPECT_EQ(core.counters().warpsCompleted, 16u);
    EXPECT_EQ(core.counters().ctasCompleted, 4u);
    EXPECT_LT(cycles, 10000);
    EXPECT_EQ(alloc.outstanding(), 0u);
}

TEST(SmCore, LoadLatencyStallsDependents)
{
    // load r2 ; alu r3 <- r2 : the ALU op must wait for the load.
    std::vector<WarpInstData> prog{load(2, 0x10000), alu(3, 2)};
    ScriptSource src(prog, 1, 1);
    MemFetchAllocator alloc;
    SmCore core(testCore(), &alloc);
    core.setWorkSource(&src);
    MemServer server{{}, &alloc, 200};
    int cycles = runUntilDone(core, server);
    EXPECT_TRUE(core.done());
    EXPECT_GT(cycles, 200); // bounded below by the memory latency
    // The wait shows up as data-MEM stalls.
    EXPECT_GT(core.counters()
                  .issueStalls[unsigned(IssueStall::DataMem)],
              100u);
}

TEST(SmCore, IndependentWarpsHideLatency)
{
    std::vector<WarpInstData> prog;
    for (int i = 0; i < 8; ++i) {
        prog.push_back(load(2 + i % 4, Addr(0x10000 + i * 0x1000)));
        prog.push_back(alu(10 + i % 4, 2 + i % 4));
    }
    MemFetchAllocator alloc;

    // 1 warp vs 8 warps running the same program.
    ScriptSource one(prog, 1, 1);
    SmCore core1(testCore(), &alloc);
    core1.setWorkSource(&one);
    MemServer s1{{}, &alloc, 150};
    int c1 = runUntilDone(core1, s1);

    ScriptSource eight(prog, 2, 4);
    SmCore core8(testCore(), &alloc);
    core8.setWorkSource(&eight);
    MemServer s8{{}, &alloc, 150};
    int c8 = runUntilDone(core8, s8);

    // 8x the work in much less than 8x the time: TLP hides latency.
    EXPECT_LT(c8, c1 * 4);
}

TEST(SmCore, TailRequestSemantics)
{
    // One load with 4 coalesced accesses completes only when the last
    // access returns.
    WarpInstData ld;
    ld.op = Op::Load;
    ld.dest = 2;
    ld.lineAddrs = {0x10000, 0x20000, 0x30000, 0x40000};
    std::vector<WarpInstData> prog{ld, alu(3, 2)};
    ScriptSource src(prog, 1, 1);
    MemFetchAllocator alloc;
    SmCore core(testCore(), &alloc);
    core.setWorkSource(&src);
    MemServer server{{}, &alloc, 100};
    int cycles = runUntilDone(core, server);
    EXPECT_TRUE(core.done());
    // 4 accesses at 1/cycle into L1 + 100 latency on the tail.
    EXPECT_GT(cycles, 103);
    EXPECT_EQ(core.counters().loadsIssued, 1u);
    EXPECT_EQ(core.counters().l1Accesses, 4u);
}

TEST(SmCore, LsuFullGivesStrMem)
{
    // Back-to-back divergent loads with a slow memory: the LSU
    // (4 slots) and L1 MSHRs (4) clog -> str-MEM stalls dominate.
    std::vector<WarpInstData> prog;
    for (int i = 0; i < 6; ++i) {
        WarpInstData ld;
        ld.op = Op::Load;
        ld.dest = 2 + i % 6;
        ld.lineAddrs.clear();
        for (int k = 0; k < 4; ++k)
            ld.lineAddrs.push_back(Addr(0x100000) * (1 + i) +
                                   Addr(k) * 4224);
        prog.push_back(ld);
    }
    ScriptSource src(prog, 2, 4);
    MemFetchAllocator alloc;
    SmCore core(testCore(), &alloc);
    core.setWorkSource(&src);
    MemServer server{{}, &alloc, 150};
    runUntilDone(core, server, 200000);
    EXPECT_TRUE(core.done());
    EXPECT_GT(core.counters()
                  .issueStalls[unsigned(IssueStall::StrMem)],
              core.counters()
                  .issueStalls[unsigned(IssueStall::StrAlu)]);
    EXPECT_GT(core.counters()
                  .issueStalls[unsigned(IssueStall::StrMem)],
              0u);
}

TEST(SmCore, StoresFireAndForget)
{
    // A store completes at L1 acceptance; a load waits for the reply.
    // The same program with the store replaced by a load must run
    // substantially longer under a slow memory.
    WarpInstData st;
    st.op = Op::Store;
    st.dest = -1;
    st.lineAddrs = {0x50000};
    st.storeBytes = 32;
    MemFetchAllocator alloc;

    ScriptSource st_src({st, alu(2)}, 1, 1);
    SmCore st_core(testCore(), &alloc);
    st_core.setWorkSource(&st_src);
    MemServer st_server{{}, &alloc, 500};
    int st_cycles = runUntilDone(st_core, st_server, 5000);
    EXPECT_TRUE(st_core.done());
    EXPECT_EQ(st_core.counters().storesIssued, 1u);

    ScriptSource ld_src({load(2, 0x50000), alu(3, 2)}, 1, 1);
    SmCore ld_core(testCore(), &alloc);
    ld_core.setWorkSource(&ld_src);
    MemServer ld_server{{}, &alloc, 500};
    int ld_cycles = runUntilDone(ld_core, ld_server, 5000);
    EXPECT_TRUE(ld_core.done());

    EXPECT_LT(st_cycles + 400, ld_cycles);
}

TEST(SmCore, GtoPrefersGreedyWarp)
{
    // With GTO, one warp should race ahead: the spread between the
    // first and last warp completion is large. We proxy-check via
    // issue behaviour: total cycles with LRR >= GTO for a latency-
    // bound workload is not guaranteed, so just check GTO works and
    // both policies complete.
    std::vector<WarpInstData> prog;
    for (int i = 0; i < 30; ++i)
        prog.push_back(alu(2 + i % 8, i >= 3 ? 2 + (i - 3) % 8 : -1));
    MemFetchAllocator alloc;
    for (SchedPolicy pol : {SchedPolicy::Gto, SchedPolicy::Lrr}) {
        CoreParams p = testCore();
        p.sched = pol;
        ScriptSource src(prog, 2, 4);
        SmCore core(p, &alloc);
        core.setWorkSource(&src);
        MemServer server{{}, &alloc, 50};
        runUntilDone(core, server);
        EXPECT_TRUE(core.done());
        EXPECT_EQ(core.counters().issuedInsts, 30u * 2 * 4);
    }
}

TEST(SmCore, FetchHazardWhenICacheMisses)
{
    // A program footprint larger than the I-cache with slow memory
    // produces fetch stalls.
    std::vector<WarpInstData> prog;
    for (int i = 0; i < 200; ++i)
        prog.push_back(alu(2 + i % 8));
    CoreParams p = testCore();
    p.l1i.sizeBytes = 512; // one set of four lines
    ScriptSource src(prog, 1, 2);
    MemFetchAllocator alloc;
    SmCore core(p, &alloc);
    core.setWorkSource(&src);
    MemServer server{{}, &alloc, 100};
    runUntilDone(core, server);
    EXPECT_TRUE(core.done());
    EXPECT_GT(core.counters().issueStalls[unsigned(IssueStall::Fetch)],
              0u);
    EXPECT_GT(core.l1i().counters().readMisses, 5u);
}

TEST(SmCore, DoneRequiresDrainedPipes)
{
    std::vector<WarpInstData> prog{load(2, 0x10000)};
    ScriptSource src(prog, 1, 1);
    MemFetchAllocator alloc;
    SmCore core(testCore(), &alloc);
    core.setWorkSource(&src);
    // Never serve memory: the core must not report done.
    for (int i = 0; i < 500; ++i)
        core.tick(0.0);
    EXPECT_FALSE(core.done());
    // Drain and serve.
    MemServer server{{}, &alloc, 1};
    runUntilDone(core, server);
    EXPECT_TRUE(core.done());
}

TEST(SmCore, ElidedSingleSkipsMatchBulkSkip)
{
    // Memoized L1D stall: divergent loads clog the four L1D MSHRs, so
    // the oldest LSU access replays a memoized MSHR-full stall.
    std::vector<WarpInstData> loads;
    for (int i = 0; i < 6; ++i) {
        WarpInstData ld;
        ld.op = Op::Load;
        ld.dest = 2 + i;
        for (int k = 0; k < 4; ++k)
            ld.lineAddrs.push_back(Addr(0x100000) * (1 + i) +
                                   Addr(k) * 4224);
        loads.push_back(ld);
    }
    expectElisionMatchesBulkSkip(loads, 8, 0, testCore(), 150, 13,
                                 false);

    // Fetch rotation: eight warps on distinct code lines miss a
    // one-set L1I; the four that find its MSHRs full replay memoized
    // stalls in round-robin order, over a span (7) that is not a
    // multiple of the rotation length.
    std::vector<WarpInstData> alus;
    for (int i = 0; i < 64; ++i)
        alus.push_back(alu(2 + i % 8));
    CoreParams p = testCore();
    p.l1i.sizeBytes = 512;
    expectElisionMatchesBulkSkip(alus, 8, 0x10000, p, 100, 7, true);
}
