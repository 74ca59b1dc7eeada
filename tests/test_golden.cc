/**
 * @file
 * Golden-result regression suite: checked-in TSV snapshots of the
 * Fig. 3 / 7 / 8 / 9 / 10 / 11 / 12 and Table II experiment tables
 * (under --shrink) are diffed exactly against fresh runs, as are the
 * skip scheduler's work counters on ten full-size sims. Simulations
 * are deterministic, so any byte of drift is a behaviour change in
 * the runner -- intentional changes are reblessed with
 * scripts/regen_golden.sh (which reruns this binary with
 * BWSIM_REGEN_GOLDEN=1).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "workloads/trace_source.hh"
#include "workloads/workload_spec.hh"

#ifndef BWSIM_GOLDEN_DIR
#error "CMake must define BWSIM_GOLDEN_DIR (tests/golden in the source tree)"
#endif

using namespace bwsim;

namespace
{

/**
 * The pinned scenario: two benchmarks at --shrink=16, the scale CI
 * can afford. Golden files are only meaningful for exactly these
 * options; regen_golden.sh rebuilds them for the same ones.
 */
exp::ExperimentOptions
goldenOptions()
{
    exp::ExperimentOptions opts;
    opts.benchmarks = {"bfs", "lbm"};
    opts.shrink = 16;
    opts.threads = 2;
    return opts;
}

std::string
render(const exp::SeriesTable &t)
{
    std::ostringstream os;
    t.table.printTsv(os);
    return os.str();
}

std::string
goldenPath(const std::string &name)
{
    // Bare names are TSV tables; a name carrying its own extension
    // (the --dump-stats text snapshot) is used as-is.
    const std::string ext =
        name.find('.') == std::string::npos ? ".tsv" : "";
    return std::string(BWSIM_GOLDEN_DIR) + "/" + name + ext;
}

/**
 * Under BWSIM_REGEN_GOLDEN=1, rebless snapshot @p name with @p fresh
 * and return false; otherwise load the checked-in snapshot into
 * @p golden and return true (a missing file is a test failure).
 */
bool
loadOrRegen(const std::string &name, const std::string &fresh,
            std::string &golden)
{
    const std::string path = goldenPath(name);
    if (std::getenv("BWSIM_REGEN_GOLDEN")) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        EXPECT_TRUE(bool(out << fresh)) << "cannot write " << path;
        return false;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ADD_FAILURE()
            << "missing golden file " << path
            << " -- run scripts/regen_golden.sh to (re)bless snapshots";
        return false;
    }
    golden.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    return true;
}

/** Compare @p fresh against the checked-in snapshot -- or, under
 *  BWSIM_REGEN_GOLDEN=1, rebless the snapshot instead. */
void
compareOrRegen(const std::string &name, const std::string &fresh)
{
    std::string golden;
    if (!loadOrRegen(name, fresh, golden))
        return;
    EXPECT_EQ(fresh, golden)
        << "table drifted from " << goldenPath(name)
        << " -- if the change is intentional, rebless with "
           "scripts/regen_golden.sh\n--- fresh ---\n"
        << fresh;
}

/** Fields of @p text split at @p sep (a trailing separator adds none). */
std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    for (std::string field; std::getline(is, field, sep);)
        out.push_back(field);
    return out;
}

} // namespace

TEST(Golden, Tab2SpeedupBounds)
{
    compareOrRegen("tab2", render(exp::tab2SpeedupBounds(goldenOptions())));
}

TEST(Golden, Fig3LatencySweep)
{
    compareOrRegen("fig3",
                   render(exp::fig3LatencySweep(
                       goldenOptions(), exp::fig3DefaultLatencies())));
}

TEST(Golden, Fig7IssueStallDistribution)
{
    compareOrRegen("fig7",
                   render(exp::fig7IssueStallDistribution(
                       exp::baselineResults(goldenOptions()))));
}

TEST(Golden, Fig8L2StallDistribution)
{
    compareOrRegen("fig8", render(exp::fig8L2StallDistribution(
                               exp::baselineResults(goldenOptions()))));
}

TEST(Golden, Fig9L1StallDistribution)
{
    compareOrRegen("fig9", render(exp::fig9L1StallDistribution(
                               exp::baselineResults(goldenOptions()))));
}

TEST(Golden, Fig10DseScaling)
{
    compareOrRegen("fig10", render(exp::fig10DseScaling(goldenOptions())));
}

TEST(Golden, Fig11FrequencySweep)
{
    compareOrRegen("fig11",
                   render(exp::fig11FrequencySweep(
                       goldenOptions(), exp::fig11DefaultFrequencies())));
}

TEST(Golden, Fig12CostEffective)
{
    compareOrRegen("fig12",
                   render(exp::fig12CostEffective(goldenOptions())));
}

TEST(Golden, Sec6BandwidthUtilization)
{
    compareOrRegen("sec6bw",
                   render(exp::sec6BandwidthUtilization(goldenOptions())));
}

TEST(Golden, Sec6MitigationSpeedups)
{
    compareOrRegen("sec6speedup",
                   render(exp::sec6MitigationSpeedups(goldenOptions())));
}

TEST(Golden, DumpStatsBaseline)
{
    // The full stats tree for one tiny benchmark on the baseline
    // config: pins every stat's name, grouping and value rendering
    // across refactors (the ROADMAP's --dump-stats snapshot item),
    // including the gpu.bw bandwidth formulas this PR adds.
    exp::ExperimentOptions opts = goldenOptions();
    opts.benchmarks = {"bfs"};
    auto profiles = exp::selectBenchmarks(opts);
    ASSERT_EQ(profiles.size(), 1u);
    Gpu gpu(GpuConfig::baseline(), profiles[0]);
    gpu.run();
    std::ostringstream os;
    os << "# stats: benchmark=" << profiles[0].name() << " config=baseline\n";
    gpu.dumpStats(os);
    compareOrRegen("dump_stats.txt", os.str());
}

TEST(Golden, DumpStatsTraceReplayBothSchedulers)
{
    // The checked-in replay.trace pins the file-backed workload path
    // end to end: text parsing, launch-shape defaulting and the
    // replay cursor. The same run must come out byte-identical under
    // both scheduler modes before it is compared to the snapshot --
    // trace replay gets no laxer determinism than synthetic runs.
    std::string err;
    auto trace = loadTraceFile(
        std::string(BWSIM_GOLDEN_DIR) + "/replay.trace", err);
    ASSERT_NE(trace, nullptr) << err;
    const WorkloadSpec spec = makeTraceWorkload(trace);

    auto dump = [&](SchedulerMode mode) {
        const SchedulerMode saved = schedulerMode();
        setSchedulerMode(mode);
        Gpu gpu(GpuConfig::baseline(), spec);
        gpu.run();
        std::ostringstream os;
        os << "# stats: benchmark=" << spec.name()
           << " config=baseline\n";
        gpu.dumpStats(os);
        setSchedulerMode(saved);
        return os.str();
    };
    const std::string lockstep = dump(SchedulerMode::Lockstep);
    const std::string skip = dump(SchedulerMode::Skip);
    EXPECT_EQ(lockstep, skip);
    compareOrRegen("dump_stats_trace.txt", lockstep);
}

TEST(Golden, WorkCounters)
{
    // The skip scheduler's work on perfbench serial's ten sims at full
    // size, one thread: a hard, host-independent speed guard. Skipped
    // edges, elided core ticks and fused spans pin that skip mode still
    // engages (above all on the pchase probe and the congested sims);
    // core_cycles pins full-size timing. Every cell is compared on its
    // own, so a drift names its sim and counter.
    struct Sim
    {
        std::string name;
        WorkloadSpec spec;
        GpuConfig config;
    };
    std::vector<Sim> sims;
    for (const char *bench : {"mm", "sc", "bfs", "lbm"}) {
        const BenchmarkProfile *p = findBenchmark(bench);
        ASSERT_NE(p, nullptr) << bench;
        for (const GpuConfig &cfg :
             {GpuConfig::baseline(), GpuConfig::scaledAll()})
            sims.push_back({std::string(bench) + "-" + cfg.name, *p, cfg});
    }
    for (const auto &[name, form] :
         {std::pair{"pchase64m", "pchase:64m"}, {"stride", "stride"}}) {
        WorkloadSpec probe;
        ASSERT_TRUE(parseGeneratorForm(form, probe)) << form;
        sims.push_back({std::string(name) + "-baseline", probe,
                        GpuConfig::baseline()});
    }

    const SchedulerMode saved = schedulerMode();
    setSchedulerMode(SchedulerMode::Skip);
    std::ostringstream os;
    os << "sim\tcore_cycles\tticked_edges\tskipped_edges\tfused_spans"
          "\tfused_cycles\tcore_elided_ticks\n";
    for (const Sim &s : sims) {
        const SimSpeedTotals a = simSpeedTotals();
        Gpu(s.config, s.spec).run();
        const SimSpeedTotals b = simSpeedTotals();
        os << s.name << '\t' << b.coreCycles - a.coreCycles << '\t'
           << b.tickedEdges - a.tickedEdges << '\t'
           << b.skippedEdges - a.skippedEdges << '\t'
           << b.fusedSpans - a.fusedSpans << '\t'
           << b.fusedCycles - a.fusedCycles << '\t'
           << b.coreElidedTicks - a.coreElidedTicks << '\n';
    }
    setSchedulerMode(saved);

    std::string golden;
    if (!loadOrRegen("work_counters", os.str(), golden))
        return;
    const auto fresh_rows = split(os.str(), '\n');
    const auto golden_rows = split(golden, '\n');
    ASSERT_EQ(fresh_rows.size(), golden_rows.size())
        << "work_counters.tsv has a different set of sims -- if "
           "intentional, rebless with scripts/regen_golden.sh";
    const auto columns = split(fresh_rows[0], '\t');
    for (std::size_t r = 0; r < fresh_rows.size(); ++r) {
        const auto fresh = split(fresh_rows[r], '\t');
        const auto want = split(golden_rows[r], '\t');
        ASSERT_EQ(fresh.size(), want.size()) << "row " << r;
        for (std::size_t c = 0; c < fresh.size(); ++c)
            EXPECT_EQ(fresh[c], want[c])
                << fresh[0] << " " << columns[c]
                << " drifted from work_counters.tsv -- if intentional, "
                   "rebless with scripts/regen_golden.sh";
    }
}
