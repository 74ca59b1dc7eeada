/**
 * @file
 * bwsim CLI tests: registry completeness, --list, option parsing,
 * parity between `bwsim <name>` and runExperiment(), and the --jobs /
 * --spool-dir fan-out printing the in-process tables.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/cli.hh"
#include "common/log.hh"
#include "core/sim_cache.hh"
#include "core/work_queue.hh"
#include "sim/tick_profile.hh"

using namespace bwsim;

namespace
{

int
runCli(std::vector<const char *> args, std::string &out_s,
       std::string &err_s)
{
    args.insert(args.begin(), "bwsim");
    std::ostringstream out, err;
    int rc = cli::cliMain(static_cast<int>(args.size()), args.data(), out,
                          err);
    out_s = out.str();
    err_s = err.str();
    return rc;
}

} // namespace

TEST(Cli, RegistryCoversEveryLegacyBench)
{
    const auto &reg = cli::experimentRegistry();
    // 17 experiments: figs 1/3/4/5/7/8/9/10/11/12, tables I-III,
    // secs IV/VI/VII, and the ablation study.
    EXPECT_EQ(reg.size(), 17u);
    for (const auto &e : reg) {
        EXPECT_FALSE(e.name.empty());
        EXPECT_TRUE(bool(e.run)) << e.name;
        EXPECT_EQ(cli::findExperiment(e.name), &e);
    }
    EXPECT_EQ(cli::findExperiment("fig2"), nullptr);
}

TEST(Cli, ListNamesEveryRegisteredExperiment)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--list"}, out, err), 0);
    for (const auto &e : cli::experimentRegistry())
        EXPECT_NE(out.find(e.name), std::string::npos) << e.name;
    EXPECT_TRUE(err.empty());
}

TEST(Cli, UnknownExperimentExitsNonZero)
{
    std::string out, err;
    EXPECT_NE(runCli({"nosuch"}, out, err), 0);
    EXPECT_NE(err.find("unknown experiment"), std::string::npos);
    // A bad name anywhere fails before any experiment runs.
    EXPECT_NE(runCli({"tab1", "nosuch"}, out, err), 0);
    EXPECT_EQ(out.find("Table I"), std::string::npos);
    // Speed is measured by perfbench/, not by a bwsim experiment.
    EXPECT_NE(runCli({"perf"}, out, err), 0);
    EXPECT_NE(err.find("unknown experiment 'perf'"), std::string::npos);
}

TEST(Cli, UnknownOptionExitsNonZero)
{
    std::string out, err;
    EXPECT_NE(runCli({"--frobnicate", "tab1"}, out, err), 0);
    EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(Cli, NoExperimentExitsNonZero)
{
    std::string out, err;
    EXPECT_NE(runCli({}, out, err), 0);
    EXPECT_NE(err.find("usage"), std::string::npos);
}

TEST(Cli, HelpExitsZero)
{
    std::string out, err;
    EXPECT_EQ(runCli({"--help"}, out, err), 0);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, StaticTablesRunWithoutSimulation)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1"}, out, err), 0);
    EXPECT_NE(out.find("Table I"), std::string::npos);
    ASSERT_EQ(runCli({"tab3"}, out, err), 0);
    EXPECT_NE(out.find("Table III"), std::string::npos);
    ASSERT_EQ(runCli({"sec7"}, out, err), 0);
    EXPECT_NE(out.find("area overhead"), std::string::npos);
}

TEST(Cli, FlagOutputMatchesLegacyEnvDrivenPath)
{
    // runExperiment() with explicit options and the argv driver must
    // print the same bytes for a static experiment.
    std::ostringstream direct, err;
    ASSERT_EQ(cli::runExperiment("tab3", exp::ExperimentOptions{}, direct,
                                 err),
              0);
    std::string out, err_s;
    ASSERT_EQ(runCli({"tab3"}, out, err_s), 0);
    EXPECT_EQ(out, direct.str());
}

TEST(Cli, MultipleExperimentsSeparatedByBlankLine)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1", "tab3"}, out, err), 0);
    auto t1 = out.find("Table I");
    auto t3 = out.find("Table III");
    EXPECT_NE(t1, std::string::npos);
    EXPECT_NE(t3, std::string::npos);
    EXPECT_LT(t1, t3);
}

TEST(Cli, FormatCsvEmitsMachineReadableGrid)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab3", "--format=csv"}, out, err), 0);
    // Headings become comment lines; the grid itself is plain CSV.
    EXPECT_EQ(out.rfind("# === Table III", 0), 0u);
    EXPECT_NE(out.find("parameter,type,baseline,scaled(4x),"
                       "cost-effective\n"),
              std::string::npos);
    EXPECT_NE(out.find("DRAM scheduler queue,=,"), std::string::npos);
}

TEST(Cli, FormatTsvEmitsTabs)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1", "--format=tsv"}, out, err), 0);
    EXPECT_NE(out.find("parameter\tvalue\n"), std::string::npos);
}

TEST(Cli, FormatTextIsDefaultAndExplicit)
{
    std::string flagged, plain, err;
    ASSERT_EQ(runCli({"tab3", "--format=text"}, flagged, err), 0);
    ASSERT_EQ(runCli({"tab3"}, plain, err), 0);
    EXPECT_EQ(flagged, plain);
}

TEST(Cli, UnknownFormatRejected)
{
    std::string out, err;
    EXPECT_NE(runCli({"tab1", "--format=xml"}, out, err), 0);
    EXPECT_NE(err.find("--format"), std::string::npos);
}

TEST(Cli, FormatJsonEmitsOneObjectPerTableNoHeadings)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1", "--format=json"}, out, err), 0);
    // No headings or notes, just the table object.
    EXPECT_EQ(out.rfind("{\"headers\":[\"parameter\",\"value\"]", 0), 0u);
    EXPECT_EQ(out.find("==="), std::string::npos);
    EXPECT_EQ(out.find('\n'), out.size() - 1); // single line

    // Several tables become JSON Lines (one object per line).
    std::string multi;
    ASSERT_EQ(runCli({"tab1", "tab3", "--format=json"}, multi, err), 0);
    std::size_t objects = 0;
    std::istringstream lines(multi);
    for (std::string line; std::getline(lines, line);)
        if (!line.empty()) {
            EXPECT_EQ(line.rfind("{\"headers\":", 0), 0u);
            ++objects;
        }
    EXPECT_EQ(objects, 2u);
}

TEST(Cli, DumpStatsOptionsValidated)
{
    std::string out, err;
    // --config only makes sense with --dump-stats.
    EXPECT_NE(runCli({"tab1", "--config=baseline"}, out, err), 0);
    EXPECT_NE(err.find("--config"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--dump-stats"}, out, err), 0);
    EXPECT_NE(err.find("--dump-stats"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--config=warp-drive"}, out, err),
              0);
    EXPECT_NE(err.find("unknown --config"), std::string::npos);
    EXPECT_NE(err.find("baseline"), std::string::npos); // lists presets

    // An overflowing fixed-<N> is an unknown preset, not an abort or
    // a silently wrapped latency.
    err.clear();
    EXPECT_NE(runCli({"--dump-stats",
                      "--config=fixed-99999999999999999999"},
                     out, err),
              0);
    EXPECT_NE(err.find("unknown --config"), std::string::npos);

    // Table- and fan-out-only flags are rejected, not ignored.
    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--format=json"}, out, err), 0);
    EXPECT_NE(err.find("--format"), std::string::npos);
    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--jobs=4"}, out, err), 0);
    EXPECT_NE(err.find("--jobs"), std::string::npos);
    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--spool-dir=/tmp/x"}, out, err),
              0);
    EXPECT_NE(err.find("--spool-dir"), std::string::npos);
}

TEST(Cli, DumpStatsPrintsTheTree)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64",
                      "--config=fixed-200"},
                     out, err),
              0);
    EXPECT_NE(out.find("# stats: benchmark=bfs config=fixed-200"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.core0.issued_insts"), std::string::npos);
    EXPECT_NE(out.find("gpu.core0.l1d.accesses"), std::string::npos);
    // fixed-latency mode models no network or partitions.
    EXPECT_EQ(out.find("gpu.icnt."), std::string::npos);
    EXPECT_EQ(out.find("gpu.part"), std::string::npos);
}

TEST(Cli, DumpStatsStillPrintsTheExecStatsEpilogue)
{
    // Regression: the --dump-stats path used to return before the
    // --exec-stats epilogue, silently eating the flag.
    std::string out, err;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64",
                      "--config=fixed-200", "--exec-stats"},
                     out, err),
              0);
    EXPECT_NE(out.find("gpu.core0.issued_insts"), std::string::npos);
    EXPECT_NE(err.find("bwsim: exec stats: sims="), std::string::npos);
    EXPECT_NE(err.find("bwsim: sim speed: scheduler="),
              std::string::npos);
    // Without --profile-ticks there must be no profiler lines.
    EXPECT_EQ(err.find("bwsim: tick profile:"), std::string::npos);
}

TEST(Cli, CappedResultsWarnOnceAtExit)
{
    // The exit warning reads the cache's capped count, so it fires
    // even when no simulation ran in this invocation (a warm
    // --cache-dir rerun recalls capped results silently otherwise).
    SimCache &cache = SimCache::global();
    cache.clear();
    GpuConfig cfg = GpuConfig::baseline();
    cfg.maxCoreCycles = 64;
    const bool was_quiet = quiet();
    setQuiet(true);
    ASSERT_TRUE(cache.run(makeTestProfile("tiny-stream"), cfg).timedOut);
    setQuiet(was_quiet);

    std::string out, err;
    ASSERT_EQ(runCli({"tab1", "--exec-stats"}, out, err), 0);
    EXPECT_NE(err.find(" capped=1 "), std::string::npos) << err;
    const std::string warning = "hit the cycle cap";
    const auto first = err.find(warning);
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find(warning, first + 1), std::string::npos)
        << "capped-result warning printed more than once";

    cache.clear();
    ASSERT_EQ(runCli({"tab1", "--exec-stats"}, out, err), 0);
    EXPECT_NE(err.find(" capped=0 "), std::string::npos) << err;
    EXPECT_EQ(err.find(warning), std::string::npos) << err;
}

TEST(Cli, ProfileTicksAddsTheProfilerTreeAndEpilogue)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64",
                      "--profile-ticks", "--exec-stats"},
                     out, err),
              0);
    setTickProfileEnabled(false); // process-global; don't leak
    EXPECT_NE(out.find("gpu.tick_profile.core.ticks"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.tick_profile.dram.wall_nanos"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.tick_profile.icnt.avg_ns_per_tick"),
              std::string::npos);
    EXPECT_NE(err.find("bwsim: tick profile: domain="),
              std::string::npos);

    // The profiler must be observe-only: the rest of the tree is
    // unchanged relative to an unprofiled run.
    std::string out2, err2;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64"},
                     out2, err2),
              0);
    EXPECT_EQ(out2.find("gpu.tick_profile"), std::string::npos);
    std::istringstream is(out);
    std::string line, filtered;
    while (std::getline(is, line)) {
        if (line.rfind("gpu.tick_profile", 0) != 0)
            filtered += line + "\n";
    }
    EXPECT_EQ(filtered, out2);
}

TEST(Cli, UsageMentionsTheTickProfileFlag)
{
    std::string out, err;
    EXPECT_EQ(runCli({"--help"}, out, err), 0);
    EXPECT_NE(out.find("--profile-ticks"), std::string::npos);
}

TEST(Cli, JobsOptionsValidated)
{
    std::string out, err;
    EXPECT_NE(runCli({"tab1", "--jobs=0"}, out, err), 0);
    EXPECT_NE(err.find("--jobs"), std::string::npos);

    // --jobs makes its own spool; a second one is a contradiction.
    err.clear();
    EXPECT_NE(runCli({"tab1", "--jobs=2", "--spool-dir=/tmp/s"}, out,
                     err),
              0);
    EXPECT_NE(err.find("cannot be combined"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--job-timeout=0"}, out, err), 0);
    EXPECT_NE(err.find("--job-timeout"), std::string::npos);
}

TEST(Cli, RemovedFanOutFlagsAreUnknownOptions)
{
    // The fan-out flags are --jobs and --spool-dir; these are not.
    // Nor does bwsim write a perf report (perfbench/ measures speed).
    for (const char *flag : {"--shards=2", "--shard-id=0",
                             "--backend=queue", "--perf-out=x"}) {
        std::string out, err;
        EXPECT_NE(runCli({"tab1", flag}, out, err), 0) << flag;
        EXPECT_NE(err.find("unknown option"), std::string::npos) << flag;
    }
}

TEST(Cli, ShrinkAndThreadsRejectedOutOfRange)
{
    std::string out, err;
    for (const char *flag : {"--shrink=0", "--shrink=-3"}) {
        err.clear();
        EXPECT_NE(runCli({"tab1", flag}, out, err), 0) << flag;
        EXPECT_NE(err.find("--shrink must be >= 1"), std::string::npos)
            << flag;
    }
    err.clear();
    EXPECT_NE(runCli({"tab1", "--threads=-1"}, out, err), 0);
    EXPECT_NE(err.find("--threads must be >= 0"), std::string::npos);
    // 0 still means hardware concurrency.
    EXPECT_EQ(runCli({"tab1", "--threads=0"}, out, err), 0);

    // The environment gets the same checks, before any flag is read.
    EXPECT_EXIT(
        {
            ::setenv("BWSIM_SHRINK", "0", 1);
            runCli({"tab1"}, out, err);
            std::exit(0);
        },
        ::testing::ExitedWithCode(1), "BWSIM_SHRINK must be >= 1");
    EXPECT_EXIT(
        {
            ::setenv("BWSIM_THREADS", "-2", 1);
            runCli({"tab1"}, out, err);
            std::exit(0);
        },
        ::testing::ExitedWithCode(1), "BWSIM_THREADS must be >= 0");
}

TEST(Cli, UsageMentionsTheExecutionFlags)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--help"}, out, err), 0);
    for (const char *flag :
         {"--cache-dir", "--jobs", "--format", "--exec-stats"})
        EXPECT_NE(out.find(flag), std::string::npos) << flag;
}

TEST(Cli, WorkerModeValidated)
{
    std::string out, err;
    EXPECT_NE(runCli({"--worker"}, out, err), 0);
    EXPECT_NE(err.find("--spool-dir"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"--worker", "--spool-dir=/tmp/s", "tab1"}, out,
                     err),
              0);
    EXPECT_NE(err.find("no experiment names"), std::string::npos);
}

TEST(Cli, CacheHousekeepingNeedsACacheDir)
{
    std::string out, err;
    EXPECT_NE(runCli({"--cache-stats"}, out, err), 0);
    EXPECT_NE(err.find("--cache-dir"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"--cache-max-mb=1"}, out, err), 0);
    EXPECT_NE(err.find("--cache-dir"), std::string::npos);

    // A negative budget is a mistake, not a no-op.
    err.clear();
    EXPECT_NE(runCli({"--cache-max-mb=-5", "--cache-dir=/tmp/x"}, out,
                     err),
              0);
    EXPECT_NE(err.find("--cache-max-mb"), std::string::npos);
}

TEST(Cli, CacheStatsOnAnEmptyDirReportsZeroEntries)
{
    std::string dir = ::testing::TempDir() + "bwsim-cli-cache-stats";
    std::filesystem::remove_all(dir);
    std::string out, err;
    // Housekeeping-only invocation: no experiment names needed.
    ASSERT_EQ(runCli({"--cache-stats", ("--cache-dir=" + dir).c_str()},
                     out, err),
              0);
    EXPECT_NE(out.find("0 entries"), std::string::npos) << out;
}

TEST(Cli, UsageMentionsTheQueueFlags)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--help"}, out, err), 0);
    for (const char *flag :
         {"--spool-dir", "--job-timeout", "--worker", "--cache-stats",
          "--cache-max-mb"})
        EXPECT_NE(out.find(flag), std::string::npos) << flag;
}

#ifdef __unix__
TEST(Cli, ScratchSpoolDirTemplateHonorsTmpdir)
{
    // Save and restore whatever the harness environment set.
    const char *saved = std::getenv("TMPDIR");
    const std::string saved_val = saved ? saved : "";

    ::setenv("TMPDIR", "/some/scratch", 1);
    EXPECT_EQ(cli::scratchSpoolDirTemplate(),
              "/some/scratch/bwsim-spool-XXXXXX");

    // Trailing slashes must not double the separator.
    ::setenv("TMPDIR", "/some/scratch///", 1);
    EXPECT_EQ(cli::scratchSpoolDirTemplate(),
              "/some/scratch/bwsim-spool-XXXXXX");

    // Unset or empty falls back to /tmp like mktemp(1).
    ::unsetenv("TMPDIR");
    EXPECT_EQ(cli::scratchSpoolDirTemplate(), "/tmp/bwsim-spool-XXXXXX");
    ::setenv("TMPDIR", "", 1);
    EXPECT_EQ(cli::scratchSpoolDirTemplate(), "/tmp/bwsim-spool-XXXXXX");

    // The template actually works: mkdtemp() materializes the spool
    // inside the TMPDIR the user asked for.
    const std::string base = "/tmp/bwsim-tmpdir-test";
    std::filesystem::remove_all(base);
    std::filesystem::create_directories(base);
    ::setenv("TMPDIR", base.c_str(), 1);
    std::string tmpl_str = cli::scratchSpoolDirTemplate();
    ASSERT_EQ(tmpl_str.rfind(base + "/bwsim-spool-", 0), 0u);
    std::vector<char> tmpl(tmpl_str.begin(), tmpl_str.end());
    tmpl.push_back('\0');
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    EXPECT_TRUE(std::filesystem::is_directory(tmpl.data()));
    std::filesystem::remove_all(base);

    if (saved)
        ::setenv("TMPDIR", saved_val.c_str(), 1);
    else
        ::unsetenv("TMPDIR");
}

namespace
{

/** Sets TMPDIR to a fresh test-owned directory for one scope. */
class ScopedTmpdir
{
  public:
    explicit ScopedTmpdir(const std::string &name)
        : dir(::testing::TempDir() + name)
    {
        const char *old = std::getenv("TMPDIR");
        hadSaved = old != nullptr;
        if (old)
            saved = old;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        ::setenv("TMPDIR", dir.c_str(), 1);
    }

    ~ScopedTmpdir()
    {
        if (hadSaved)
            ::setenv("TMPDIR", saved.c_str(), 1);
        else
            ::unsetenv("TMPDIR");
        std::filesystem::remove_all(dir);
    }

    const std::string dir;

  private:
    std::string saved;
    bool hadSaved = false;
};

} // namespace

TEST(Cli, JobsPrintsTheInProcessTablesAndLeavesNoSpool)
{
    const std::vector<const char *> sweep = {
        "fig4", "--benches=bfs,lbm", "--shrink=16", "--threads=2"};
    std::string single, err;
    ASSERT_EQ(runCli(sweep, single, err), 0) << err;

    ScopedTmpdir tmp("bwsim-cli-jobs-tmpdir");
    const std::string cache_dir = tmp.dir + "-cache";
    std::filesystem::remove_all(cache_dir);
    const std::string cache_flag = "--cache-dir=" + cache_dir;
    for (bool with_cache : {false, true}) {
        // A cold parent cache, so the forked workers do the work.
        SimCache::global().clear();
        std::vector<const char *> args = sweep;
        args.push_back("--jobs=2");
        args.push_back("--exec-stats");
        if (with_cache)
            args.push_back(cache_flag.c_str());
        std::string jobs;
        ASSERT_EQ(runCli(args, jobs, err), 0) << err;
        EXPECT_EQ(jobs, single) << "with_cache=" << with_cache;
        EXPECT_NE(err.find("sims=2 "), std::string::npos) << err;
        EXPECT_TRUE(std::filesystem::is_empty(tmp.dir))
            << "the --jobs spool was left behind";
    }
    // The workers published to the shared cache dir: a warm rerun
    // simulates nothing.
    SimCache::global().clear();
    std::vector<const char *> warm = sweep;
    warm.push_back(cache_flag.c_str());
    warm.push_back("--exec-stats");
    std::string warm_out;
    ASSERT_EQ(runCli(warm, warm_out, err), 0) << err;
    EXPECT_EQ(warm_out, single);
    EXPECT_NE(err.find("sims=0 "), std::string::npos) << err;
    std::filesystem::remove_all(cache_dir);
}

TEST(Cli, SpoolDirSendsMissesToTheQueue)
{
    const std::vector<const char *> sweep = {"fig4", "--benches=bfs",
                                             "--shrink=16"};
    std::string single, err;
    ASSERT_EQ(runCli(sweep, single, err), 0) << err;

    const std::string spool = ::testing::TempDir() + "bwsim-cli-spool";
    std::filesystem::remove_all(spool);
    WorkQueueConfig cfg;
    cfg.spoolDir = spool;
    cfg.pollIntervalSec = 0.001;
    SimCache worker_cache;
    std::thread worker([&] { runWorker(cfg, worker_cache); });

    SimCache::global().clear();
    const std::string spool_flag = "--spool-dir=" + spool;
    std::vector<const char *> args = sweep;
    args.push_back(spool_flag.c_str());
    std::string queued;
    const int rc = runCli(args, queued, err);
    std::ofstream(std::filesystem::path(spool) / "stop").close();
    worker.join();

    ASSERT_EQ(rc, 0) << err;
    EXPECT_EQ(queued, single);
    EXPECT_EQ(worker_cache.simsRun(), 1u) << "the miss did not reach "
                                             "the worker";
    exp::configureExecution(exp::ExperimentOptions{});
    std::filesystem::remove_all(spool);
}

#endif // __unix__
