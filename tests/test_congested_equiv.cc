/**
 * @file
 * Congested-cycle equivalence: the cycle-skip scheduler and the batched
 * retry/arbitration fast paths (memoized stall retries, row-indexed
 * FR-FCFS buckets, bitset crossbar arbitration) must be *invisible* --
 * the full stats tree of a congested run has to come out byte-identical
 * to a lockstep run.
 *
 * Tiny synthetic workloads are useless here: they never back up the
 * crossbar ejection buffers or the DRAM scheduler queues, so a broken
 * fast path can pass them while diverging on real traffic (that is
 * exactly how the arbitration-snapshot bug hid from tiny-stream and
 * tiny-mixed but showed up in bfs). This suite therefore runs a real
 * suite benchmark at the golden shrink factor and first *proves* the
 * run was congested -- nonzero backpressure counters at every level --
 * before asserting equivalence.
 *
 * The skip scheduler also puts individually quiescent cores to sleep
 * inside executed core edges. Its proof leans on the memory system below the
 * L1s, so the byte-identity check repeats on the hierarchies where
 * that differs (ideal pipes keyed on the pre-incremented core cycle,
 * and L1-bypass replies completing memory ops directly), and the
 * SmCore warp masks the proof reads are audited after every tick.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "core/dse.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "workloads/profile.hh"

using namespace bwsim;

namespace
{

/** Restore the process-global scheduler mode on scope exit. */
struct ScopedSchedulerMode
{
    explicit ScopedSchedulerMode(SchedulerMode m)
        : saved(schedulerMode())
    {
        setSchedulerMode(m);
    }
    ~ScopedSchedulerMode() { setSchedulerMode(saved); }
    SchedulerMode saved;
};

BenchmarkProfile
congestedProfile()
{
    const BenchmarkProfile *bfs = findBenchmark("bfs");
    EXPECT_NE(bfs, nullptr);
    // Same shrink as the golden snapshots: small enough for a unit-ish
    // runtime, large enough to keep the hierarchy backpressured.
    return shrinkProfile(*bfs, 16);
}

GpuConfig
preset(const std::string &name)
{
    GpuConfig cfg;
    EXPECT_TRUE(findConfigPreset(name, cfg)) << "no preset " << name;
    return cfg;
}

/** gtest parameter names may not contain '-' or '+'. */
std::string
presetTestName(const ::testing::TestParamInfo<const char *> &info)
{
    std::string name = info.param;
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

std::string
dumpUnder(SchedulerMode mode, const GpuConfig &cfg = GpuConfig::baseline())
{
    ScopedSchedulerMode scope(mode);
    Gpu gpu(cfg, congestedProfile());
    SimResult r = gpu.run();
    EXPECT_FALSE(r.timedOut);
    std::ostringstream os;
    gpu.dumpStats(os);
    return os.str();
}

/**
 * Everything printed for @p stat between the name and the '#' comment:
 * the formatted value(s) of a scalar or vector stat, or "" if absent.
 */
std::string
statText(const std::string &dump, const std::string &stat)
{
    std::istringstream is(dump);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind(stat, 0) != 0)
            continue;
        const char after = line.size() > stat.size() ? line[stat.size()]
                                                     : '\0';
        if (after != ' ' && after != '\t')
            continue; // prefix of a longer stat name
        std::string rest = line.substr(stat.size());
        const std::size_t hash = rest.find('#');
        if (hash != std::string::npos)
            rest = rest.substr(0, hash);
        return rest;
    }
    return "";
}

/** Sum of a vector stat's "key=value" entries (0 for a scalar). */
double
vectorStatSum(const std::string &dump, const std::string &stat)
{
    const std::string text = statText(dump, stat);
    double sum = 0.0;
    std::size_t pos = 0;
    while ((pos = text.find('=', pos)) != std::string::npos)
        sum += std::stod(text.substr(++pos));
    return sum;
}

double
scalarStat(const std::string &dump, const std::string &stat)
{
    const std::string text = statText(dump, stat);
    return text.empty() ? -1.0 : std::stod(text);
}

/** First differing line between two dumps, for a readable failure. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream ia(a), ib(b);
    std::string la, lb;
    int n = 0;
    while (true) {
        const bool ga = static_cast<bool>(std::getline(ia, la));
        const bool gb = static_cast<bool>(std::getline(ib, lb));
        ++n;
        if (!ga && !gb)
            return "(identical)";
        if (la != lb || ga != gb) {
            return "line " + std::to_string(n) + ":\n  lockstep: " +
                   (ga ? la : "<eof>") + "\n  skip:     " +
                   (gb ? lb : "<eof>");
        }
    }
}

} // namespace

TEST(CongestedEquiv, SchedulerModesProduceByteIdenticalStats)
{
    const std::string lock = dumpUnder(SchedulerMode::Lockstep);
    const SimSpeedTotals before = simSpeedTotals();
    const std::string skip = dumpUnder(SchedulerMode::Skip);
    const SimSpeedTotals after = simSpeedTotals();

    // The skip run must have exercised span *fusion* -- skipped core
    // spans in which some SmCore bulk-replayed a memoized L1D/L1I
    // stall (the only domain that fuses; crossbar, L2 and DRAM skip
    // dead edges only) -- not just dead edges. Per-core elision rests
    // on the same replays, so a congested run with zero fused spans
    // means that machinery silently stopped engaging, and this suite
    // would be certifying equivalence of a path nobody takes.
    EXPECT_GT(after.fusedSpans, before.fusedSpans)
        << "skip run fused no spans: congested cycles never integrated";
    EXPECT_GT(after.fusedCycles, before.fusedCycles)
        << "skip run integrated no fused cycles";
    EXPECT_GE(after.skippedEdges - before.skippedEdges,
              after.fusedCycles - before.fusedCycles)
        << "fused cycles must be a subset of skipped edges";
    EXPECT_GT(after.coreElidedTicks, before.coreElidedTicks)
        << "skip run elided no quiescent core ticks";

    // The run must actually be congested, or this test proves nothing.
    // Every backpressure mechanism the fast paths touch has to have
    // fired: L1 stall retries (memoized access path), core issue
    // stalls (issueDirty batching), crossbar ejection blocking (bitset
    // arbitration), and a non-empty DRAM scheduler queue (row-indexed
    // buckets).
    EXPECT_GT(vectorStatSum(skip, "gpu.core0.l1d.stall_cycles"), 0.0)
        << "L1D never stalled: workload not congested";
    EXPECT_GT(vectorStatSum(skip, "gpu.core0.issue_stalls"), 0.0)
        << "core0 never stalled issue: workload not congested";
    EXPECT_GT(scalarStat(skip, "gpu.icnt.req.eject_blocked_cycles"), 0.0)
        << "request crossbar never blocked: workload not congested";
    EXPECT_GT(scalarStat(skip, "gpu.part0.dram_occ_lifetime"), 0.0)
        << "DRAM scheduler queue never occupied: workload not congested";
    EXPECT_GT(scalarStat(skip, "gpu.part0.l2_access_occ_lifetime"), 0.0)
        << "L2 access queue never occupied: workload not congested";

    EXPECT_TRUE(lock == skip)
        << "lockstep and skip stats diverged at " << firstDiff(lock, skip);
}

TEST(CongestedEquiv, SkipModeIsDeterministic)
{
    const std::string a = dumpUnder(SchedulerMode::Skip);
    const std::string b = dumpUnder(SchedulerMode::Skip);
    EXPECT_TRUE(a == b) << "skip mode not deterministic at "
                        << firstDiff(a, b);
}

/**
 * Stats read mid-run must already be exact: a core asleep under the
 * skip scheduler owes every cycle since it fell asleep, so runCycles()
 * has to charge all sleepers before it returns. Stop a congested run
 * at several points under each scheduler and compare the full trees,
 * then finish it with run().
 */
TEST(CongestedEquiv, MidRunStopsMatchLockstep)
{
    const std::uint64_t stops[] = {1, 2, 37, 500, 3001, 6000, 9000};
    auto dumps = [&stops](SchedulerMode mode, std::uint64_t &elided) {
        ScopedSchedulerMode scope(mode);
        Gpu gpu(GpuConfig::baseline(), congestedProfile());
        std::vector<std::string> out;
        std::uint64_t at = 0;
        for (std::uint64_t stop : stops) {
            gpu.runCycles(stop - at);
            at = stop;
            std::ostringstream os;
            gpu.dumpStats(os);
            out.push_back(os.str());
        }
        EXPECT_FALSE(gpu.allWorkDone()) << "stops outlast the run";
        EXPECT_FALSE(gpu.run().timedOut);
        std::ostringstream os;
        gpu.dumpStats(os);
        out.push_back(os.str());
        elided = gpu.elidedCoreTicks();
        return out;
    };
    std::uint64_t lock_elided = 0, skip_elided = 0;
    const auto lock = dumps(SchedulerMode::Lockstep, lock_elided);
    const auto skip = dumps(SchedulerMode::Skip, skip_elided);
    EXPECT_EQ(lock_elided, 0u);
    EXPECT_GT(skip_elided, 0u) << "no core ever slept";
    ASSERT_EQ(lock.size(), skip.size());
    for (std::size_t i = 0; i < lock.size(); ++i) {
        EXPECT_TRUE(lock[i] == skip[i])
            << "stop " << i << ": lockstep and skip stats diverged at "
            << firstDiff(lock[i], skip[i]);
    }
}

/** Lockstep vs skip on the hierarchies the per-core proof differs on. */
class ElisionEquiv : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ElisionEquiv, SchedulerModesProduceByteIdenticalStats)
{
    const GpuConfig cfg = preset(GetParam());
    const std::string lock = dumpUnder(SchedulerMode::Lockstep, cfg);
    const SimSpeedTotals before = simSpeedTotals();
    const std::string skip = dumpUnder(SchedulerMode::Skip, cfg);
    const SimSpeedTotals after = simSpeedTotals();

    EXPECT_GT(after.coreElidedTicks, before.coreElidedTicks)
        << "skip run elided no quiescent core ticks";
    EXPECT_TRUE(lock == skip)
        << "lockstep and skip stats diverged at " << firstDiff(lock, skip);
}

INSTANTIATE_TEST_SUITE_P(Configs, ElisionEquiv,
                         ::testing::Values("P-inf", "fixed-200",
                                           "L1-bypass"),
                         presetTestName);

/**
 * The warp masks and the cached oldest LSU slot that the issue scan,
 * the retire scan and the quiescence proof read must match a recompute
 * from scratch after every core cycle -- including cycles where cores
 * were elided -- on a congested run and on L1-bypass, where bypassed
 * replies complete memory ops without an L1 fill.
 */
class CoreMaskConsistency : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CoreMaskConsistency, MasksMatchRecomputeAfterEveryTick)
{
    ScopedSchedulerMode scope(SchedulerMode::Skip);
    const GpuConfig cfg = preset(GetParam());
    Gpu gpu(cfg, congestedProfile());
    while (!gpu.allWorkDone()) {
        ASSERT_LT(gpu.coreCycles(), cfg.maxCoreCycles)
            << "run hit the cycle cap";
        gpu.runCycles(1);
        for (int c = 0; c < cfg.numCores; ++c) {
            const std::string why = gpu.core(c).checkConsistency();
            ASSERT_TRUE(why.empty())
                << "after core cycle " << gpu.coreCycles() << ": " << why;
        }
    }
    EXPECT_GT(gpu.elidedCoreTicks(), 0u)
        << "no core tick was elided: the audit missed the elided path";
}

INSTANTIATE_TEST_SUITE_P(Configs, CoreMaskConsistency,
                         ::testing::Values("baseline", "L1-bypass"),
                         presetTestName);
