/**
 * @file
 * MultiClock unit tests: intra-instant ordering, mid-run frequency
 * changes, and the cycle-skip scheduler (horizon contract, wake
 * alignment, lockstep equivalence, the Gpu::run() cap clamp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "gpu/gpu.hh"
#include "sim/clock.hh"
#include "sim/sim_speed.hh"

using namespace bwsim;

namespace
{

/** Restores the process-global scheduler mode on scope exit. */
struct ModeGuard
{
    SchedulerMode saved = schedulerMode();
    ~ModeGuard() { setSchedulerMode(saved); }
};

GpuConfig
quickConfig(GpuConfig c = GpuConfig::baseline())
{
    c.maxCoreCycles = 400000;
    return c;
}

std::string
statsDump(Gpu &gpu)
{
    std::ostringstream os;
    gpu.dumpStats(os);
    return os.str();
}

} // namespace

TEST(MultiClock, CoincidentEdgesTickInRegistrationOrder)
{
    // Same frequency: every instant is coincident, so the tick order
    // at each instant must be the registration order (drains first).
    MultiClock mc;
    std::vector<int> order;
    mc.addDomain("drain", 1000.0, [&order] { order.push_back(0); });
    mc.addDomain("producer", 1000.0, [&order] { order.push_back(1); });
    mc.step();
    mc.step();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 0);
    EXPECT_EQ(order[3], 1);
}

TEST(MultiClock, EarliestEdgeFirstAcrossRates)
{
    // 1000 MHz (1000 ps) vs 400 MHz (2500 ps). Both domains have their
    // first edge at t=0 (one step, two ticks, registration order);
    // after that the instants interleave earliest-first:
    // 1000, 2000, 2500 ...
    MultiClock mc;
    std::vector<std::pair<int, double>> ticks;
    std::size_t fast = mc.addDomain("fast", 1000.0, [&] {
        ticks.push_back({0, mc.nowPs()});
    });
    std::size_t slow = mc.addDomain("slow", 400.0, [&] {
        ticks.push_back({1, mc.nowPs()});
    });
    for (int i = 0; i < 4; ++i)
        mc.step();
    ASSERT_EQ(ticks.size(), 5u);
    EXPECT_EQ(ticks[0].first, 0);
    EXPECT_DOUBLE_EQ(ticks[0].second, 0.0);
    EXPECT_EQ(ticks[1].first, 1);
    EXPECT_DOUBLE_EQ(ticks[1].second, 0.0);
    EXPECT_EQ(ticks[2].first, 0);
    EXPECT_DOUBLE_EQ(ticks[2].second, 1000.0);
    EXPECT_EQ(ticks[3].first, 0);
    EXPECT_DOUBLE_EQ(ticks[3].second, 2000.0);
    EXPECT_EQ(ticks[4].first, 1);
    EXPECT_DOUBLE_EQ(ticks[4].second, 2500.0);
    EXPECT_EQ(mc.domain(fast).cycle(), 3u);
    EXPECT_EQ(mc.domain(slow).cycle(), 2u);
}

TEST(MultiClock, SetFreqMidRunReschedulesFollowingEdges)
{
    // The already-scheduled next edge stays; only later edges move to
    // the new period.
    MultiClock mc;
    std::vector<double> instants;
    std::size_t d = mc.addDomain("d", 1000.0, [&] {
        instants.push_back(mc.nowPs());
    });
    mc.step(); // first edge at 0 ps
    mc.domain(d).setFreqMhz(500.0);
    mc.step(); // still 1000 ps (scheduled under the old period)
    mc.step(); // 3000 ps (new 2000 ps period)
    ASSERT_EQ(instants.size(), 3u);
    EXPECT_DOUBLE_EQ(instants[0], 0.0);
    EXPECT_DOUBLE_EQ(instants[1], 1000.0);
    EXPECT_DOUBLE_EQ(instants[2], 3000.0);
}

TEST(MultiClock, RunUntilSkipsDeadEdgesButNeverADueEvent)
{
    // A component with events at known cycles: its tick is a no-op
    // except at event cycles, and the horizon reports the exact
    // distance to the next event. runUntil must execute a tick AT
    // every event cycle (never jump past it) and may skip the rest.
    const std::vector<std::uint64_t> events = {3, 4, 10, 37, 64, 65, 96};
    MultiClock mc;
    std::uint64_t cycles = 0;
    std::size_t next_event = 0;
    std::vector<std::uint64_t> executed;
    std::size_t d = mc.addDomain("d", 1000.0, [&] {
        ++cycles;
        executed.push_back(cycles);
        if (next_event < events.size() && cycles == events[next_event])
            ++next_event;
    });
    std::uint64_t skip_integrated = 0;
    mc.domain(d).setSkipHooks(
        [&]() -> std::uint64_t {
            if (next_event >= events.size())
                return kInfiniteHorizon;
            return events[next_event] - cycles - 1;
        },
        [&](std::uint64_t n) {
            cycles += n;
            skip_integrated += n;
        });
    mc.runUntil(d, 100);

    EXPECT_EQ(cycles, 100u);
    EXPECT_EQ(mc.domain(d).cycle(), 100u);
    // Every event cycle was executed, not skipped.
    for (std::uint64_t e : events)
        EXPECT_NE(std::find(executed.begin(), executed.end(), e),
                  executed.end())
            << "event at cycle " << e << " was skipped";
    // The target-reaching edge always executes (nowPs() must match a
    // lockstep run: cycle N's edge fires at (N-1) periods).
    EXPECT_EQ(executed.back(), 100u);
    EXPECT_DOUBLE_EQ(mc.nowPs(), 99 * 1000.0);
    // And the dead span really was skipped, with every skipped edge
    // reported through the skip hook.
    EXPECT_GT(mc.skippedEdges(), 0u);
    EXPECT_EQ(mc.tickedEdges() + mc.skippedEdges(), 100u);
    EXPECT_EQ(skip_integrated, mc.skippedEdges());
}

TEST(MultiClock, RunUntilMatchesStepAcrossDomains)
{
    // Two asynchronous domains, one with periodic events: the skip
    // run must visit the identical executed instants and end at the
    // identical nowPs() as a pure step() run.
    auto build = [](MultiClock &mc, std::uint64_t &a_cycles,
                    std::uint64_t &b_cycles,
                    std::vector<double> *b_instants) {
        mc.addDomain("a", 924.0, [&a_cycles] { ++a_cycles; });
        std::size_t b = mc.addDomain("b", 1400.0, [&, b_instants] {
            ++b_cycles;
            if (b_instants && b_cycles % 13 == 0)
                b_instants->push_back(mc.nowPs());
        });
        return b;
    };

    MultiClock ls;
    std::uint64_t ls_a = 0, ls_b = 0;
    std::vector<double> ls_instants;
    std::size_t ls_bd = build(ls, ls_a, ls_b, &ls_instants);
    while (ls.domain(ls_bd).cycle() < 200)
        ls.step();

    MultiClock sk;
    std::uint64_t sk_a = 0, sk_b = 0;
    std::vector<double> sk_instants;
    std::size_t sk_bd = build(sk, sk_a, sk_b, &sk_instants);
    // b quiesces except every 13th cycle; a is always dead.
    sk.domain(0).setSkipHooks(
        [&]() -> std::uint64_t { return kInfiniteHorizon; },
        [&sk_a](std::uint64_t n) { sk_a += n; });
    sk.domain(sk_bd).setSkipHooks(
        [&]() -> std::uint64_t { return 12 - (sk_b % 13); },
        [&sk_b](std::uint64_t n) { sk_b += n; });
    sk.runUntil(sk_bd, 200);

    EXPECT_EQ(sk_a, ls_a);
    EXPECT_EQ(sk_b, ls_b);
    EXPECT_DOUBLE_EQ(sk.nowPs(), ls.nowPs());
    EXPECT_EQ(sk_instants, ls_instants); // bit-identical event times
    EXPECT_GT(sk.skippedEdges(), 0u);
}

TEST(MultiClock, RunUntilSkipsShortSpans)
{
    // Events at cycles 4, 7, 11, 14, 18, ... (alternating gaps of 3
    // and 4), so every horizon computed after an executed event is 2
    // or 3. runUntil must skip every one of those short spans -- no
    // minimum span length -- and leave the same state as a pure
    // step() run.
    struct Component
    {
        std::uint64_t cycles = 0;
        std::uint64_t quiet = 0; ///< per-cycle counter on non-events
        std::vector<double> eventInstants;
        std::vector<std::uint64_t> executed; ///< cycles actually ticked
        static bool
        isEvent(std::uint64_t c)
        {
            return c % 7 == 0 || c % 7 == 4;
        }
    };
    auto build = [](MultiClock &mc, Component &comp) {
        return mc.addDomain("d", 700.0, [&mc, &comp] {
            ++comp.cycles;
            comp.executed.push_back(comp.cycles);
            if (Component::isEvent(comp.cycles))
                comp.eventInstants.push_back(mc.nowPs());
            else
                ++comp.quiet;
        });
    };

    MultiClock ls;
    Component ls_comp;
    std::size_t ld = build(ls, ls_comp);
    while (ls.domain(ld).cycle() < 100)
        ls.step();

    MultiClock sk;
    Component sk_comp;
    std::size_t sd = build(sk, sk_comp);
    std::vector<std::uint64_t> horizons;
    sk.domain(sd).setSkipHooks(
        [&]() -> std::uint64_t {
            std::uint64_t next = sk_comp.cycles + 1;
            while (!Component::isEvent(next))
                ++next;
            std::uint64_t h = next - sk_comp.cycles - 1;
            if (Component::isEvent(sk_comp.cycles))
                horizons.push_back(h);
            return h;
        },
        [&sk_comp](std::uint64_t n) {
            sk_comp.cycles += n;
            sk_comp.quiet += n;
        });
    sk.runUntil(sd, 100);

    ASSERT_FALSE(horizons.empty());
    for (std::uint64_t h : horizons) {
        EXPECT_GE(h, 2u);
        EXPECT_LE(h, 3u);
    }
    EXPECT_GT(sk.skippedEdges(), 0u);
    // Only event edges and the target-reaching edge execute.
    for (std::uint64_t c : sk_comp.executed)
        EXPECT_TRUE(Component::isEvent(c) || c == 100u)
            << "cycle " << c << " of a short dead span executed";
    EXPECT_EQ(sk.tickedEdges() + sk.skippedEdges(), 100u);
    EXPECT_EQ(sk_comp.cycles, ls_comp.cycles);
    EXPECT_EQ(sk_comp.quiet, ls_comp.quiet);
    EXPECT_EQ(sk_comp.eventInstants, ls_comp.eventInstants);
    EXPECT_EQ(sk.domain(sd).cycle(), ls.domain(ld).cycle());
    EXPECT_EQ(sk.domain(sd).nextEdge(), ls.domain(ld).nextEdge());
    EXPECT_EQ(sk.nowPs(), ls.nowPs());
}

TEST(MultiClock, WokenDomainResumesOnItsOwnGrid)
{
    // A domain that skips a long dead span must keep its own edge
    // grid: after n skipped edges its next edge is exactly n+1
    // periods after the pre-skip edge (same repeated-addition float
    // path as ticking).
    MultiClock ref;
    std::uint64_t ref_c = 0;
    std::size_t rd = ref.addDomain("d", 700.0, [&ref_c] { ++ref_c; });
    for (int i = 0; i < 50; ++i)
        ref.step();
    double ref_next = ref.domain(rd).nextEdge();

    MultiClock mc;
    std::uint64_t c = 0;
    std::size_t d = mc.addDomain("d", 700.0, [&c] { ++c; });
    mc.domain(d).setSkipHooks(
        [&]() -> std::uint64_t { return c < 49 ? 49 - c : 0; },
        [&c](std::uint64_t n) { c += n; });
    mc.runUntil(d, 50);

    EXPECT_EQ(c, 50u);
    EXPECT_EQ(mc.skippedEdges(), 49u);
    // Bit-identical next-edge time: skipping used the same += period
    // chain as ticking.
    EXPECT_EQ(mc.domain(d).nextEdge(), ref_next);
    EXPECT_EQ(mc.nowPs(), ref.nowPs());
}

TEST(GpuScheduler, SkipAndLockstepAreBitIdentical)
{
    ModeGuard guard;
    BenchmarkProfile p = makeTestProfile("tiny-mixed");

    setSchedulerMode(SchedulerMode::Lockstep);
    Gpu a(quickConfig(), p);
    SimResult ra = a.run();

    setSchedulerMode(SchedulerMode::Skip);
    Gpu b(quickConfig(), p);
    SimResult rb = b.run();

    EXPECT_EQ(ra.coreCycles, rb.coreCycles);
    EXPECT_DOUBLE_EQ(ra.elapsedPs, rb.elapsedPs);
    EXPECT_EQ(ra.warpInstsIssued, rb.warpInstsIssued);
    EXPECT_EQ(statsDump(a), statsDump(b)); // every counter, verbatim
}

TEST(GpuScheduler, LatencyBoundProfileSkipsEdges)
{
    ModeGuard guard;
    setSchedulerMode(SchedulerMode::Skip);
    const SimSpeedTotals before = simSpeedTotals();
    Gpu gpu(quickConfig(), makeTestProfile("tiny-latency"));
    SimResult r = gpu.run();
    const SimSpeedTotals after = simSpeedTotals();
    EXPECT_FALSE(r.timedOut);
    // The dependent-miss chain leaves most edges dead: the scheduler
    // must actually skip a majority of them.
    const std::uint64_t ticked = after.tickedEdges - before.tickedEdges;
    const std::uint64_t skipped =
        after.skippedEdges - before.skippedEdges;
    EXPECT_GT(skipped, ticked);
}

TEST(GpuScheduler, CycleCapIsExactUnderBothSchedulers)
{
    // Regression: the 64-cycle burst in Gpu::run() used to overshoot
    // cfg.maxCoreCycles to the next multiple of 64. The cap must be
    // hit exactly, even when it is not burst-aligned.
    ModeGuard guard;
    GpuConfig cfg = GpuConfig::baseline();
    cfg.maxCoreCycles = 1000; // 15 * 64 + 40: overshoot would give 1024
    BenchmarkProfile p = makeTestProfile("tiny-mixed");

    for (SchedulerMode mode :
         {SchedulerMode::Lockstep, SchedulerMode::Skip}) {
        setSchedulerMode(mode);
        Gpu gpu(cfg, p);
        SimResult r = gpu.run();
        EXPECT_TRUE(r.timedOut) << schedulerModeName(mode);
        EXPECT_EQ(r.coreCycles, 1000u) << schedulerModeName(mode);
        EXPECT_EQ(gpu.coreCycles(), 1000u) << schedulerModeName(mode);
    }
}
