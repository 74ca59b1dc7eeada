#include "cli/cli.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "core/cost_model.hh"
#include "core/disk_cache.hh"
#include "core/dse.hh"
#include "core/sim_cache.hh"
#include "core/work_queue.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "sim/tick_profile.hh"
#include "stats/table.hh"
#include "workloads/trace_source.hh"

#ifdef __unix__
#include <fcntl.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace bwsim::cli
{

namespace
{

/**
 * Format-aware emitters: in text mode every byte matches the legacy
 * reports; in csv/tsv mode tables become machine-readable grids,
 * section headings become '#' comment lines, and prose notes are
 * dropped so the output can be diffed and plotted directly. In json
 * mode each table is one single-line JSON object (valid JSON Lines
 * across tables) and headings/notes are dropped entirely.
 */
void
heading(const exp::ExperimentOptions &opts, std::ostream &os,
        const std::string &line)
{
    if (opts.format == exp::TableFormat::Text) {
        os << line << "\n";
        return;
    }
    if (opts.format == exp::TableFormat::Json)
        return;
    std::size_t first = line.find_first_not_of('\n');
    os << "# " << (first == std::string::npos ? line : line.substr(first))
       << "\n";
}

void
emit(const exp::ExperimentOptions &opts, std::ostream &os,
     const stats::TextTable &t)
{
    switch (opts.format) {
      case exp::TableFormat::Csv:
        t.printCsv(os);
        break;
      case exp::TableFormat::Tsv:
        t.printTsv(os);
        break;
      case exp::TableFormat::Json:
        t.printJson(os);
        break;
      default:
        t.print(os);
        break;
    }
}

void
note(const exp::ExperimentOptions &opts, std::ostream &os,
     const std::string &text)
{
    if (opts.format == exp::TableFormat::Text)
        os << text;
}

void
runFig1(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 1: issue stalls and memory latencies ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig1StallsAndLatencies(base).table);
    note(opts, os, "\npaper averages: stall 62%, L2-AHL 303, AML 452\n");
}

void
runFig3(const exp::ExperimentOptions &opts, std::ostream &os)
{
    exp::ExperimentOptions o = opts;
    if (o.benchmarks.empty())
        o.benchmarks = exp::fig3DefaultBenchmarks();
    heading(opts, os, "=== Fig. 3: IPC vs. fixed L1 miss latency ===");
    auto t = exp::fig3LatencySweep(o, exp::fig3DefaultLatencies());
    emit(opts, os, t.table);
    note(opts, os,
         "\n(each column: all L1 misses returned after that many "
         "core cycles;\n value = speedup over the baseline "
         "memory system)\n");
}

void
runFig4(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 4: L2 access queue occupancy ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig4L2QueueOccupancy(base).table);
    note(opts, os, "\npaper: average 100%-full share is 0.46\n");
}

void
runFig5(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 5: DRAM access queue occupancy ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig5DramQueueOccupancy(base).table);
    note(opts, os, "\npaper: average 100%-full share is 0.39\n");
}

void
runFig7(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 7: issue-stall distribution (%) ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig7IssueStallDistribution(base).table);
    note(opts, os,
         "\npaper averages: data-MEM 15, data-ALU 5.5, str-MEM 71,"
         " str-ALU 0.5, fetch 8\n");
}

void
runFig8(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 8: L2 stall distribution (%) ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig8L2StallDistribution(base).table);
    note(opts, os,
         "\npaper averages: bp-ICNT 42, port 12, cache 8, mshr 3, "
         "bp-DRAM 35\n");
}

void
runFig9(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 9: L1 stall distribution (%) ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig9L1StallDistribution(base).table);
    note(opts, os, "\npaper averages: cache 11, mshr 41, bp-L2 48\n");
}

void
runFig10(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 10: 4x bandwidth scaling (speedup) ===");
    auto t = exp::fig10DseScaling(opts);
    emit(opts, os, t.table);
    note(opts, os,
         "\npaper averages: L1 1.04, L2 1.59, DRAM 1.11, "
         "L1+L2 1.69, L2+DRAM 1.76, All 1.90\n");
}

void
runFig11(const exp::ExperimentOptions &opts, std::ostream &os)
{
    exp::ExperimentOptions o = opts;
    if (o.benchmarks.empty())
        o.benchmarks = exp::fig11DefaultBenchmarks();
    heading(opts, os, "=== Fig. 11: core-frequency sweep ===");
    auto t = exp::fig11FrequencySweep(o, exp::fig11DefaultFrequencies());
    emit(opts, os, t.table);
    note(opts, os,
         "\n(simulated stand-in for the paper's real-GPU "
         "experiment; see DESIGN.md)\n");
}

void
runFig12(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 12: cost-effective configurations ===");
    auto t = exp::fig12CostEffective(opts);
    emit(opts, os, t.table);
    note(opts, os,
         "\npaper averages: 16+48 1.234, 16+68 1.29, 32+52 1.257, "
         "HBM 1.11\n");
}

void
runTab1(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Table I: baseline architecture parameters ===");
    emit(opts, os, exp::tab1BaselineConfig());
}

void
runTab2(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Table II: speedup bounds (P-inf / P-DRAM) ===");
    auto t = exp::tab2SpeedupBounds(opts);
    emit(opts, os, t.table);
    note(opts, os, "\npaper: P-inf AVG 2.37, P-DRAM AVG 1.15\n");
}

void
runTab3(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Table III: consolidated design space ===");
    emit(opts, os, exp::tab3DesignSpace());
}

void
runSec4(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== §IV-B1: DRAM bandwidth efficiency ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::sec4DramEfficiency(base).table);
    note(opts, os, "\npaper: average 41%, max 65% (stencil)\n");
}

void
runSec6(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os,
            "=== Sec. VI: per-level bandwidth utilization under the "
            "mitigations ===");
    emit(opts, os, exp::sec6BandwidthUtilization(opts).table);
    heading(opts, os,
            "\nSec. VI: mitigation speedups over baseline");
    emit(opts, os, exp::sec6MitigationSpeedups(opts).table);
    note(opts, os,
         "\n(L1-bypass: read misses allocate nothing and fetch only "
         "the demand;\n L2-sectored: 32B-sector data movement below "
         "the L1s;\n L2-decoupled: 24 L2 banks on a bank-first "
         "interleave, 6 DRAM partitions)\n");
}

void
runSec7(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os,
            "=== §VII: area overhead of cost-effective configs ===");
    auto t = exp::sec7AreaOverhead();
    emit(opts, os, t.table);

    heading(opts, os, "\nStorage breakdown for 16+48:");
    AreaReport rep = AreaModel::delta(GpuConfig::baseline(),
                                      GpuConfig::costEffective16_48());
    stats::TextTable bt({"structure", "delta-entries", "instances",
                         "entry-bytes", "KB"});
    for (const auto &item : rep.items) {
        bt.newRow().add(item.structure);
        bt.addInt(item.entriesDelta);
        bt.addInt(item.instances);
        bt.addInt(item.entryBytes);
        bt.addNum(item.totalKB, 2);
    }
    emit(opts, os, bt);
    note(opts, os,
         "\npaper: 94 KB storage, 7.48 mm^2, 1.1% die overhead; "
         "with +20B wires 1.6%\n");
}

void
runAblation(const exp::ExperimentOptions &opts, std::ostream &os)
{
    exp::ExperimentOptions o = opts;
    if (o.benchmarks.empty())
        o.benchmarks = {"mm", "lbm", "sc"};
    auto profiles = exp::selectBenchmarks(o);

    struct Knob
    {
        const char *name;
        const char *type; // the paper's '=' / '+' classification
        GpuConfig cfg;
    };
    std::vector<Knob> knobs;
    auto add = [&knobs](const char *name, const char *type, auto mutate) {
        GpuConfig c = GpuConfig::baseline();
        c.name = name;
        mutate(c);
        knobs.push_back({name, type, c});
    };

    add("DRAM sched queue 4x", "=",
        [](GpuConfig &c) { c.dramSchedQueue *= 4; });
    add("DRAM banks 4x", "=", [](GpuConfig &c) { c.dramBanks *= 4; });
    add("DRAM bus 4x", "+",
        [](GpuConfig &c) { c.dramBusBytesPerCycle *= 4; });
    add("L2 miss queue 4x", "=",
        [](GpuConfig &c) { c.l2MissQueue *= 4; });
    add("L2 resp queue 4x", "=",
        [](GpuConfig &c) { c.l2RespQueue *= 4; });
    add("L2 MSHR 4x", "=", [](GpuConfig &c) { c.l2MshrEntries *= 4; });
    add("L2 access queue 4x", "=",
        [](GpuConfig &c) { c.l2AccessQueue *= 4; });
    add("L2 port 4x", "+", [](GpuConfig &c) { c.l2PortBytes *= 4; });
    add("Flits 4x (128+128)", "+", [](GpuConfig &c) {
        c.reqFlitBytes *= 4;
        c.replyFlitBytes *= 4;
    });
    add("L2 banks 4x", "+",
        [](GpuConfig &c) { c.l2BanksPerPartition *= 4; });
    add("L1 miss queue 4x", "=",
        [](GpuConfig &c) { c.l1dMissQueue *= 4; });
    add("L1 MSHR 4x", "=", [](GpuConfig &c) { c.l1dMshrEntries *= 4; });
    add("Mem pipeline 4x", "=",
        [](GpuConfig &c) { c.memPipelineWidth *= 4; });

    std::vector<RunSpec> specs;
    for (const auto &p : profiles) {
        specs.push_back({p, GpuConfig::baseline()});
        for (const auto &k : knobs)
            specs.push_back({p, k.cfg});
    }
    heading(opts, os,
            csprintf("=== Ablation: each Table III knob alone at 4x "
                     "(%zu sims) ===",
                     specs.size()));
    auto results = exp::executionBackend().runAll(specs, o.threads);

    std::vector<std::string> headers{"knob", "type"};
    for (const auto &p : profiles)
        headers.push_back(p.name());
    stats::TextTable t(headers);
    std::size_t stride = knobs.size() + 1;
    for (std::size_t k = 0; k < knobs.size(); ++k) {
        t.newRow().add(knobs[k].name).add(knobs[k].type);
        for (std::size_t b = 0; b < profiles.size(); ++b) {
            const SimResult &base = results[b * stride];
            const SimResult &r = results[b * stride + 1 + k];
            t.addNum(r.speedupOver(base), 2);
        }
    }
    emit(opts, os, t);
    note(opts, os,
         "\nNo single knob recovers the grouped Fig. 10 gains: "
         "the bottleneck\nmoves to the next unscaled resource, "
         "the paper's synergy argument.\n");
}

void
printUsage(std::ostream &os)
{
    os << "usage: bwsim [options] <experiment>...\n"
          "\n"
          "options:\n"
          "  --list            list registered experiments and exit\n"
          "  --benches=A,B,..  benchmark subset: paper abbreviations\n"
          "                    and/or generator probes\n"
          "                    pchase[:REGION[:INSTS]] (pointer-chase\n"
          "                    latency) and stride[:STRIDE[:REGION]]\n"
          "                    (bandwidth sweep); sizes take k/m/g\n"
          "  --trace=FILE      replay a memory trace (text 'type addr'\n"
          "                    lines or `bwsim trace pack` binary) as\n"
          "                    the workload; cached by content hash\n"
          "  --threads=N       host threads for the parallel runner\n"
          "  --shrink=K        divide workload size by K (quick runs)\n"
          "  --format=F        table output: text (default), csv, tsv,\n"
          "                    json (one JSON object per table; JSON\n"
          "                    Lines across tables)\n"
          "  --dump-stats      simulate the selected benchmarks on one\n"
          "                    config (--config=) and print the full\n"
          "                    per-component statistics tree instead\n"
          "                    of experiment tables\n"
          "  --config=NAME     config preset for --dump-stats:\n"
          "                    baseline (default), L1, L2, DRAM,\n"
          "                    L1+L2, L2+DRAM, All, HBM, 16+48, 16+68,\n"
          "                    32+52, L1-bypass, L2-sectored,\n"
          "                    L2-decoupled, P-inf, P-DRAM, fixed-<N>\n"
          "  --cache-dir=DIR   persistent SimCache tier: warm\n"
          "                    (profile, config) pairs load from DIR\n"
          "                    instead of re-simulating\n"
          "  --jobs=N          fork N shard workers over a shared\n"
          "                    cache dir, then merge and print\n"
          "  --shards=N        sharded-sweep worker mode: simulate\n"
          "  --shard-id=I      only this worker's share of the keys\n"
          "                    (requires --cache-dir; no tables are\n"
          "                    printed, run the merge pass for those)\n"
          "  --backend=B       how cache misses execute: threads\n"
          "                    (in-process pool, default), jobs\n"
          "                    (forked shard workers, needs --jobs),\n"
          "                    queue (spool-dir work queue drained by\n"
          "                    bwsim --worker processes on any hosts\n"
          "                    sharing the filesystem)\n"
          "  --spool-dir=DIR   work-queue spool directory\n"
          "                    (--backend=queue and --worker)\n"
          "  --job-timeout=S   reclaim a claimed-but-abandoned spool\n"
          "                    job after S seconds (default 300)\n"
          "  --worker          run as a work-queue worker: claim jobs\n"
          "                    from --spool-dir until DIR/stop exists\n"
          "                    and the queue is drained\n"
          "  --cache-stats     print --cache-dir entry count, bytes\n"
          "                    and per-config breakdown\n"
          "  --cache-max-mb=N  evict oldest --cache-dir entries until\n"
          "                    the directory fits in N MB\n"
          "  --exec-stats      print cache/backend counters and the\n"
          "                    simulation-speed report (core-cycles,\n"
          "                    wall seconds, cycles/sec, ticked vs\n"
          "                    skipped clock edges, fused spans,\n"
          "                    elided core ticks) to stderr\n"
          "  --profile-ticks   time every executed clock-domain tick:\n"
          "                    per-domain cost histograms appear as a\n"
          "                    'tick_profile' group in --dump-stats\n"
          "                    trees and totals in the --exec-stats\n"
          "                    epilogue (also BWSIM_PROFILE_TICKS=1);\n"
          "                    simulated results are unchanged\n"
          "  --scheduler=M     clock scheduler: skip (default;\n"
          "                    cycle-skipping event scheduler) or\n"
          "                    lockstep (tick every edge); results\n"
          "                    are bit-identical either way\n"
          "  --perf-out=FILE   where `bwsim perf` writes its JSON\n"
          "                    report (default BENCH_fig10.json)\n"
          "  --help            this message\n"
          "\n"
          "Subcommands: `bwsim trace pack IN OUT` converts a trace to\n"
          "the compact binary encoding (same content hash, so warm\n"
          "caches stay warm) and `bwsim trace info FILE` prints its\n"
          "records, content hash and workload key.\n"
          "\n"
          "As well as experiments, the name `perf` runs the pinned\n"
          "perf-benchmark harness: a shrunk Fig. 10 mini-sweep plus a\n"
          "latency-bound probe, each timed under both schedulers, with\n"
          "machine info and per-profile simulation rates written to\n"
          "--perf-out as JSON.\n"
          "\n"
          "Options may also come from BWSIM_BENCHES / BWSIM_THREADS /\n"
          "BWSIM_SHRINK / BWSIM_CACHE_DIR / BWSIM_SPOOL_DIR; flags\n"
          "win. Several experiments in one invocation share\n"
          "simulations through the SimCache; with --cache-dir they\n"
          "also share them across invocations and processes.\n";
}

void
printList(std::ostream &os)
{
    stats::TextTable t({"experiment", "replaces", "description"});
    for (const auto &e : experimentRegistry())
        t.newRow().add(e.name).add(e.legacy).add(e.title);
    t.print(os);
}

constexpr double kMB = 1024.0 * 1024.0;

/** The --cache-stats report: totals plus the per-config breakdown. */
void
printCacheStats(const std::string &dir, std::ostream &os)
{
    CacheDirStats s = scanCacheDir(dir);
    os << csprintf("cache dir %s: %llu entries, %.2f MB", dir.c_str(),
                   static_cast<unsigned long long>(s.entries),
                   double(s.bytes) / kMB);
    if (s.unreadable)
        os << csprintf(" (+%llu unreadable files, %.2f MB)",
                       static_cast<unsigned long long>(s.unreadable),
                       double(s.unreadableBytes) / kMB);
    if (s.tempFiles)
        os << csprintf(" (+%llu .part temp files, %.2f MB)",
                       static_cast<unsigned long long>(s.tempFiles),
                       double(s.tempBytes) / kMB);
    os << "\n";
    if (s.byConfig.empty())
        return;
    stats::TextTable t({"config", "entries", "MB"});
    for (const auto &g : s.byConfig) {
        t.newRow().add(g.config);
        t.addInt(static_cast<long long>(g.entries));
        t.addNum(double(g.bytes) / kMB, 2);
    }
    t.print(os);
}

/**
 * The --dump-stats mode: simulate each selected benchmark on one
 * config preset and print the full statistics tree -- every counter
 * of every component, named by its position in the hierarchy
 * (gpu.core3.l1d.accesses, gpu.part0.dram.activates, ...).
 */
int
runDumpStats(const exp::ExperimentOptions &opts,
             const std::string &config_name, std::ostream &out,
             std::ostream &err)
{
    GpuConfig cfg;
    if (!findConfigPreset(config_name, cfg)) {
        err << "bwsim: unknown --config '" << config_name
            << "'; expected one of:";
        for (const auto &n : configPresetNames())
            err << " " << n;
        err << "\n";
        return 1;
    }
    auto profiles = exp::selectBenchmarks(opts);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (i > 0)
            out << "\n";
        Gpu gpu(cfg, profiles[i]);
        gpu.run();
        out << "# stats: benchmark=" << profiles[i].name()
            << " config=" << cfg.name << "\n";
        gpu.dumpStats(out);
    }
    return 0;
}

/**
 * The --exec-stats epilogue: cache/backend counters, the
 * simulation-speed report and (when --profile-ticks is on) the
 * per-domain tick-cost totals. One helper so every exit path that
 * simulated something -- experiment tables and --dump-stats alike --
 * prints the same report.
 */
void
printExecStats(std::ostream &err)
{
    const SimCache &cache = SimCache::global();
    err << csprintf(
        "bwsim: exec stats: sims=%llu mem-hits=%llu disk-hits=%llu "
        "disk-stores=%llu skipped=%llu backend=%s\n",
        static_cast<unsigned long long>(cache.simsRun()),
        static_cast<unsigned long long>(cache.hits()),
        static_cast<unsigned long long>(cache.diskHits()),
        static_cast<unsigned long long>(cache.diskStores()),
        static_cast<unsigned long long>(cache.skipped()),
        exp::executionBackend().name().c_str());
    const SimSpeedTotals speed = simSpeedTotals();
    err << csprintf(
        "bwsim: sim speed: scheduler=%s runs=%llu "
        "core-cycles=%llu wall=%.3fs cycles/sec=%.4g "
        "ticked-edges=%llu skipped-edges=%llu "
        "fused-spans=%llu fused-cycles=%llu core-elided-ticks=%llu\n",
        schedulerModeName(schedulerMode()),
        static_cast<unsigned long long>(speed.runs),
        static_cast<unsigned long long>(speed.coreCycles),
        double(speed.wallNanos) / 1e9, speed.cyclesPerSec(),
        static_cast<unsigned long long>(speed.tickedEdges),
        static_cast<unsigned long long>(speed.skippedEdges),
        static_cast<unsigned long long>(speed.fusedSpans),
        static_cast<unsigned long long>(speed.fusedCycles),
        static_cast<unsigned long long>(speed.coreElidedTicks));
    if (tickProfileEnabled()) {
        for (const auto &d : tickProfileTotals()) {
            err << csprintf(
                "bwsim: tick profile: domain=%s ticks=%llu "
                "wall=%.3fs avg-ns-per-tick=%.1f\n",
                d.domain.c_str(),
                static_cast<unsigned long long>(d.ticks),
                double(d.nanos) / 1e9, d.avgNanos());
        }
        err << csprintf(
            "bwsim: tick profile: fused-spans=%llu fused-cycles=%llu "
            "avg-cycles-per-span=%.1f core-elided-ticks=%llu\n",
            static_cast<unsigned long long>(speed.fusedSpans),
            static_cast<unsigned long long>(speed.fusedCycles),
            speed.fusedSpans
                ? double(speed.fusedCycles) / double(speed.fusedSpans)
                : 0.0,
            static_cast<unsigned long long>(speed.coreElidedTicks));
    }
}

/** The --worker process mode: drain --spool-dir until stopped. */
int
runWorkerMode(const exp::ExperimentOptions &opts, std::ostream &err)
{
    SimCache &cache = SimCache::global();
    cache.attachDiskTier(opts.cacheDir);
    WorkQueueConfig cfg;
    cfg.spoolDir = opts.spoolDir;
    cfg.jobTimeoutSec = static_cast<double>(opts.jobTimeoutSec);
    WorkerStats stats = runWorker(cfg, cache);
    err << csprintf(
        "bwsim: worker on '%s' done: jobs=%llu corrupt=%llu "
        "sims=%llu disk-hits=%llu\n",
        opts.spoolDir.c_str(),
        static_cast<unsigned long long>(stats.jobsProcessed),
        static_cast<unsigned long long>(stats.corruptJobs),
        static_cast<unsigned long long>(cache.simsRun()),
        static_cast<unsigned long long>(cache.diskHits()));
    return 0;
}

/** JSON string escaping for the perf report (ASCII-safe). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += csprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

/** One (workload, config) pair timed under both schedulers. */
struct PerfCase
{
    std::string label;
    WorkloadSpec profile;
    GpuConfig config;
    bool latencyProbe = false;
    /** Congested-coverage case, excluded from the fig10 aggregate. */
    bool congestedExtra = false;

    std::uint64_t coreCycles = 0;
    double lockstepSec = 0.0;
    double skipSec = 0.0;
    /** Per-rep lockstep/skip wall-time ratios (the reps interleave the
     *  two schedulers, so each ratio pairs adjacent-in-time runs). */
    std::vector<double> ratios;
    std::uint64_t tickedEdges = 0;
    std::uint64_t skippedEdges = 0;
    std::uint64_t fusedSpans = 0;
    std::uint64_t fusedCycles = 0;

    /**
     * Median of the paired per-rep ratios: machine-speed drift that
     * spans several consecutive runs skews a best-of-N quotient but
     * cancels inside each adjacent pair, so the median is the stable
     * cross-commit metric. Falls back to the best-of quotient when no
     * pairs were recorded.
     */
    double
    speedup() const
    {
        if (!ratios.empty()) {
            std::vector<double> r = ratios;
            std::sort(r.begin(), r.end());
            std::size_t n = r.size();
            return n % 2 ? r[n / 2] : 0.5 * (r[n / 2 - 1] + r[n / 2]);
        }
        return skipSec > 0.0 ? lockstepSec / skipSec : 0.0;
    }
};

/**
 * Time one fresh simulation of @p pc under @p mode, returning the
 * wall seconds and filling the cycle/edge counters from the run's
 * process-global telemetry delta.
 */
double
timeOneRun(PerfCase &pc, SchedulerMode mode)
{
    setSchedulerMode(mode);
    const SimSpeedTotals before = simSpeedTotals();
    Gpu gpu(pc.config, pc.profile);
    const auto t0 = std::chrono::steady_clock::now();
    SimResult r = gpu.run();
    const auto t1 = std::chrono::steady_clock::now();
    const SimSpeedTotals after = simSpeedTotals();
    pc.coreCycles = r.coreCycles;
    if (mode == SchedulerMode::Skip) {
        pc.tickedEdges = after.tickedEdges - before.tickedEdges;
        pc.skippedEdges = after.skippedEdges - before.skippedEdges;
        pc.fusedSpans = after.fusedSpans - before.fusedSpans;
        pc.fusedCycles = after.fusedCycles - before.fusedCycles;
    }
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * The `bwsim perf` harness: a pinned mini-sweep (three Fig. 10
 * benchmarks at shrink=8 on the baseline and fully-scaled configs,
 * plus shrunk bfs as the congested-backpressure coverage case)
 * plus the tiny-latency probe, each simulated under the lockstep and
 * cycle-skip schedulers with per-profile wall time, simulation rate
 * and edge counts written as JSON to @p out_path. Runs are
 * best-of-@c kReps single-threaded simulations, so the numbers are
 * comparable across commits on the same machine.
 */
int
runPerf(const std::string &out_path, std::ostream &out, std::ostream &err)
{
    constexpr int kReps = 9;
    constexpr int kShrink = 8;
    const SchedulerMode saved_mode = schedulerMode();

    std::vector<PerfCase> cases;
    for (const char *bench : {"mm", "lbm", "sc"}) {
        const BenchmarkProfile *p = findBenchmark(bench);
        bwsim_assert(p, "perf harness bench '%s' missing", bench);
        for (const char *cfg_name : {"baseline", "All"}) {
            GpuConfig cfg;
            bool ok = findConfigPreset(cfg_name, cfg);
            bwsim_assert(ok, "perf harness config '%s' missing",
                         cfg_name);
            PerfCase pc;
            pc.label = csprintf("fig10:%s/%s", bench, cfg_name);
            pc.profile = shrinkProfile(*p, kShrink);
            pc.config = cfg;
            cases.push_back(std::move(pc));
        }
    }
    // The congested coverage case: shrunk bfs exercises crossbar
    // backpressure and the DRAM bus-sleep path. Labelled "congested:"
    // and kept out of the fig10 aggregate so the summary numbers stay
    // comparable across commits.
    {
        const BenchmarkProfile *p = findBenchmark("bfs");
        bwsim_assert(p, "perf harness bench 'bfs' missing");
        for (const char *cfg_name : {"baseline", "All"}) {
            GpuConfig cfg;
            bool ok = findConfigPreset(cfg_name, cfg);
            bwsim_assert(ok, "perf harness config '%s' missing",
                         cfg_name);
            PerfCase pc;
            pc.label = csprintf("congested:bfs/%s", cfg_name);
            pc.profile = shrinkProfile(*p, kShrink);
            pc.config = cfg;
            pc.congestedExtra = true;
            cases.push_back(std::move(pc));
        }
    }
    {
        PerfCase pc;
        pc.label = "latency-probe/baseline";
        pc.profile = makeTestProfile("tiny-latency");
        pc.config = GpuConfig::baseline();
        pc.latencyProbe = true;
        cases.push_back(std::move(pc));
    }

    for (auto &pc : cases) {
        for (int rep = 0; rep < kReps; ++rep) {
            double ls = timeOneRun(pc, SchedulerMode::Lockstep);
            double sk = timeOneRun(pc, SchedulerMode::Skip);
            pc.lockstepSec = rep ? std::min(pc.lockstepSec, ls) : ls;
            pc.skipSec = rep ? std::min(pc.skipSec, sk) : sk;
            if (sk > 0.0)
                pc.ratios.push_back(ls / sk);
        }
        err << csprintf(
            "bwsim: perf: %-24s %9llu cycles  lockstep %.4fs  "
            "skip %.4fs  speedup %.2fx\n",
            pc.label.c_str(),
            static_cast<unsigned long long>(pc.coreCycles),
            pc.lockstepSec, pc.skipSec, pc.speedup());
    }
    setSchedulerMode(saved_mode);

    // Aggregate rates over the fig10 mini-sweep (sum of cycles over
    // sum of seconds), plus the latency probe on its own.
    double fig10_ls_sec = 0.0, fig10_sk_sec = 0.0;
    std::uint64_t fig10_cycles = 0;
    double probe_speedup = 0.0;
    for (const auto &pc : cases) {
        if (pc.latencyProbe) {
            probe_speedup = pc.speedup();
        } else if (!pc.congestedExtra) {
            fig10_ls_sec += pc.lockstepSec;
            fig10_sk_sec += pc.skipSec;
            fig10_cycles += pc.coreCycles;
        }
    }
    const double fig10_speedup =
        fig10_sk_sec > 0.0 ? fig10_ls_sec / fig10_sk_sec : 0.0;

    const char *commit = std::getenv("BWSIM_COMMIT");
    if (!commit || !*commit)
        commit = std::getenv("GITHUB_SHA");
    if (!commit || !*commit)
        commit = "unknown";

    std::ofstream f(out_path, std::ios::binary | std::ios::trunc);
    if (!f) {
        err << "bwsim: cannot write perf report to '" << out_path
            << "'\n";
        return 1;
    }
    f << "{\n";
    f << "  \"schema\": 1,\n";
    f << "  \"generated_by\": \"bwsim perf\",\n";
    f << "  \"commit\": \"" << jsonEscape(commit) << "\",\n";
#ifdef __unix__
    {
        struct utsname un;
        if (::uname(&un) == 0) {
            f << "  \"host\": {\"sysname\": \"" << jsonEscape(un.sysname)
              << "\", \"release\": \"" << jsonEscape(un.release)
              << "\", \"machine\": \"" << jsonEscape(un.machine)
              << "\", \"hardware_concurrency\": "
              << std::thread::hardware_concurrency() << "},\n";
        }
    }
#endif
    f << "  \"reps\": " << kReps << ",\n";
    f << "  \"shrink\": " << kShrink << ",\n";
    f << "  \"profiles\": [\n";
    // Below this wall time a cycles/sec quotient is clock-resolution
    // noise (or a division by ~zero); report rate 0 instead so
    // downstream comparisons (scripts/perf_check.py) skip the row
    // rather than ingest an absurd or non-finite rate.
    constexpr double kMinWallSec = 1e-6;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const PerfCase &pc = cases[i];
        auto rate = [&pc, &err, kMinWallSec](double sec) {
            if (sec < kMinWallSec) {
                err << csprintf(
                    "bwsim: perf: warning: '%s' finished in %.2e s "
                    "(below the %.0e s floor); reporting rate 0\n",
                    pc.label.c_str(), sec, kMinWallSec);
                return 0.0;
            }
            return static_cast<double>(pc.coreCycles) / sec;
        };
        f << csprintf(
            "    {\"name\": \"%s\", \"workload_key\": \"%s\", "
            "\"core_cycles\": %llu, "
            "\"lockstep\": {\"wall_sec\": %.6f, \"cycles_per_sec\": "
            "%.1f}, \"skip\": {\"wall_sec\": %.6f, \"cycles_per_sec\": "
            "%.1f, \"ticked_edges\": %llu, \"skipped_edges\": %llu, "
            "\"fused_spans\": %llu, \"fused_cycles\": %llu}, "
            "\"speedup\": %.3f}%s\n",
            jsonEscape(pc.label).c_str(),
            workloadKeyTag(pc.profile).c_str(),
            static_cast<unsigned long long>(pc.coreCycles),
            pc.lockstepSec, rate(pc.lockstepSec), pc.skipSec,
            rate(pc.skipSec),
            static_cast<unsigned long long>(pc.tickedEdges),
            static_cast<unsigned long long>(pc.skippedEdges),
            static_cast<unsigned long long>(pc.fusedSpans),
            static_cast<unsigned long long>(pc.fusedCycles),
            pc.speedup(), i + 1 < cases.size() ? "," : "");
    }
    f << "  ],\n";
    f << csprintf("  \"summary\": {\"fig10_core_cycles\": %llu, "
                  "\"fig10_lockstep_sec\": %.6f, \"fig10_skip_sec\": "
                  "%.6f, \"fig10_speedup\": %.3f, "
                  "\"latency_probe_speedup\": %.3f}\n",
                  static_cast<unsigned long long>(fig10_cycles),
                  fig10_ls_sec, fig10_sk_sec, fig10_speedup,
                  probe_speedup);
    f << "}\n";
    f.close();

    out << csprintf("perf report written to %s (fig10 %.2fx, "
                    "latency probe %.2fx)\n",
                    out_path.c_str(), fig10_speedup, probe_speedup);
    return 0;
}

/**
 * The `bwsim trace` tool: pack converts a trace (text or already
 * binary) to the compact packed encoding; info prints its records,
 * content hash and the cache identity its replay would run under.
 * Packing never changes the content hash, so a packed trace hits
 * every cache entry its text original warmed.
 */
int
runTraceTool(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err)
{
    if (args.size() == 3 && args[0] == "pack") {
        std::string perr;
        auto trace = loadTraceFile(args[1], perr);
        if (!trace) {
            err << "bwsim: " << perr << "\n";
            return 1;
        }
        const std::string bytes = packTrace(*trace);
        std::ofstream f(args[2], std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
        f.close();
        if (!f) {
            err << "bwsim: cannot write packed trace to '" << args[2]
                << "'\n";
            return 1;
        }
        out << csprintf(
            "packed %zu records (content %016llx) to %s (%zu bytes)\n",
            trace->records.size(),
            static_cast<unsigned long long>(trace->contentHash),
            args[2].c_str(), bytes.size());
        return 0;
    }
    if (args.size() == 2 && args[0] == "info") {
        std::string perr;
        auto trace = loadTraceFile(args[1], perr);
        if (!trace) {
            err << "bwsim: " << perr << "\n";
            return 1;
        }
        std::size_t loads = 0;
        for (const auto &r : trace->records)
            loads += r.op == Op::Load;
        const WorkloadSpec spec = makeTraceWorkload(trace);
        out << "trace: " << trace->sourceName << "\n";
        out << csprintf("records: %zu (%zu loads, %zu stores)\n",
                        trace->records.size(), loads,
                        trace->records.size() - loads);
        out << "cta-tagged: " << (trace->ctaTagged ? "yes" : "no")
            << "\n";
        out << csprintf("content-hash: %016llx\n",
                        static_cast<unsigned long long>(
                            trace->contentHash));
        out << csprintf("launch-shape: %d ctas x %d warps "
                        "(max %d ctas/core)\n",
                        spec.profile.numCtas, spec.profile.warpsPerCta,
                        spec.profile.maxCtasPerCore);
        out << "workload-key: " << workloadKeyTag(spec) << "\n";
        return 0;
    }
    err << "bwsim: usage: bwsim trace pack IN OUT | "
           "bwsim trace info FILE\n";
    return 1;
}

#ifdef __unix__

/** Join for --benches= round trips. */
std::string
joinCsv(const std::vector<std::string> &items)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ',';
        out += items[i];
    }
    return out;
}

/**
 * The --jobs=N parent: fork N worker invocations of this binary, each
 * simulating one shard of the key space into a shared cache
 * directory, then run the experiments in-process against the warm
 * cache. The merged tables are byte-identical to a single-process
 * run.
 */
int
runJobs(const std::vector<std::string> &names,
        exp::ExperimentOptions opts, std::ostream &out, std::ostream &err)
{
    char exe[4096];
    ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0) {
        err << "bwsim: --jobs needs /proc/self/exe to respawn itself\n";
        return 1;
    }
    exe[len] = '\0';

    std::string dir = opts.cacheDir;
    if (dir.empty()) {
        std::string tmpl_str = scratchCacheDirTemplate();
        std::vector<char> tmpl(tmpl_str.begin(), tmpl_str.end());
        tmpl.push_back('\0');
        const char *d = ::mkdtemp(tmpl.data());
        if (!d) {
            err << "bwsim: cannot create a temporary --jobs cache dir "
                   "under '"
                << tmpl_str << "'\n";
            return 1;
        }
        dir = d;
        err << "bwsim: --jobs without --cache-dir; results kept in "
            << dir << "\n";
    }

    // Divide the thread budget across workers instead of letting each
    // one claim the whole machine (0 = hardware concurrency).
    int total_threads =
        opts.threads > 0
            ? opts.threads
            : static_cast<int>(
                  std::max(1u, std::thread::hardware_concurrency()));
    int worker_threads = std::max(1, total_threads / opts.jobs);

    std::vector<std::string> common_args;
    for (const auto &n : names)
        common_args.push_back(n);
    if (!opts.benchmarks.empty())
        common_args.push_back("--benches=" + joinCsv(opts.benchmarks));
    if (!opts.tracePath.empty())
        common_args.push_back("--trace=" + opts.tracePath);
    common_args.push_back(csprintf("--threads=%d", worker_threads));
    common_args.push_back(csprintf("--shrink=%d", opts.shrink));
    common_args.push_back("--cache-dir=" + dir);
    common_args.push_back(csprintf("--shards=%d", opts.jobs));

    std::vector<pid_t> workers;
    for (int i = 0; i < opts.jobs; ++i) {
        pid_t pid = ::fork();
        if (pid < 0) {
            err << "bwsim: fork failed for shard worker " << i << "\n";
            for (pid_t w : workers)
                ::waitpid(w, nullptr, 0);
            return 1;
        }
        if (pid == 0) {
            // Workers stay quiet on stdout: the parent's merge pass
            // prints the tables. stderr stays shared for errors. A
            // worker that cannot detach stdout must die rather than
            // interleave its tables with the merge pass's.
            int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull < 0)
                ::_exit(125);
            ::dup2(devnull, STDOUT_FILENO);
            ::close(devnull);
            std::vector<std::string> args = common_args;
            args.push_back(csprintf("--shard-id=%d", i));
            std::vector<char *> argv;
            argv.push_back(exe);
            for (auto &a : args)
                argv.push_back(const_cast<char *>(a.c_str()));
            argv.push_back(nullptr);
            ::execv(exe, argv.data());
            ::_exit(127);
        }
        workers.push_back(pid);
    }

    bool failed = false;
    for (pid_t w : workers) {
        int status = 0;
        if (::waitpid(w, &status, 0) < 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            failed = true;
    }
    if (failed) {
        err << "bwsim: a --jobs shard worker failed\n";
        return 1;
    }

    // Merge pass: every unique pair is warm in the shared directory,
    // so this simulates nothing and prints in spec order.
    opts.jobs = 1;
    opts.shards = 1;
    opts.shardId = 0;
    opts.cacheDir = dir;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            out << "\n";
        int rc = runExperiment(names[i], opts, out, err);
        if (rc)
            return rc;
    }
    return 0;
}

#endif // __unix__

} // anonymous namespace

std::string
scratchCacheDirTemplate()
{
    // Respect TMPDIR like mktemp(1)/mkstemp(3) users do; /tmp is only
    // the fallback. Trailing slashes are trimmed so "$TMPDIR/" does
    // not produce a double separator.
    const char *tmpdir = std::getenv("TMPDIR");
    std::string base = (tmpdir && *tmpdir) ? tmpdir : "/tmp";
    while (base.size() > 1 && base.back() == '/')
        base.pop_back();
    return base + "/bwsim-cache-XXXXXX";
}

const std::vector<Experiment> &
experimentRegistry()
{
    static const std::vector<Experiment> registry = {
        {"tab1", "Table I: baseline architecture parameters",
         "bench_tab01_config_dump", runTab1},
        {"fig1", "Fig. 1: issue stalls and memory latencies",
         "bench_fig01_stalls_latency", runFig1},
        {"tab2", "Table II: P-inf / P-DRAM speedup bounds",
         "bench_tab02_speedup_bounds", runTab2},
        {"fig3", "Fig. 3: IPC vs. fixed L1 miss latency",
         "bench_fig03_latency_sweep", runFig3},
        {"fig4", "Fig. 4: L2 access queue occupancy",
         "bench_fig04_l2q_occupancy", runFig4},
        {"fig5", "Fig. 5: DRAM access queue occupancy",
         "bench_fig05_dramq_occupancy", runFig5},
        {"sec4", "Sec. IV-B1: DRAM bandwidth efficiency",
         "bench_sec4_dram_efficiency", runSec4},
        {"fig7", "Fig. 7: issue-stall distribution",
         "bench_fig07_issue_stalls", runFig7},
        {"fig8", "Fig. 8: L2 stall distribution",
         "bench_fig08_l2_stalls", runFig8},
        {"fig9", "Fig. 9: L1 stall distribution",
         "bench_fig09_l1_stalls", runFig9},
        {"sec6", "Sec. VI: hierarchy mitigations (bandwidth + speedup)",
         "bench_sec6_mitigations", runSec6},
        {"tab3", "Table III: consolidated design space",
         "bench_tab03_design_space", runTab3},
        {"fig10", "Fig. 10: 4x bandwidth scaling",
         "bench_fig10_dse_scaling", runFig10},
        {"fig11", "Fig. 11: core-frequency sweep",
         "bench_fig11_freq_sweep", runFig11},
        {"fig12", "Fig. 12: cost-effective configurations",
         "bench_fig12_cost_effective", runFig12},
        {"sec7", "Sec. VII: area overhead of cost-effective configs",
         "bench_sec7_area_overhead", runSec7},
        {"ablation", "Each Table III knob alone at 4x",
         "bench_ablation_knobs", runAblation},
    };
    return registry;
}

const Experiment *
findExperiment(const std::string &name)
{
    for (const auto &e : experimentRegistry())
        if (e.name == name)
            return &e;
    return nullptr;
}

int
runExperiment(const std::string &name, const exp::ExperimentOptions &opts,
              std::ostream &out, std::ostream &err)
{
    const Experiment *e = findExperiment(name);
    if (!e) {
        err << "bwsim: unknown experiment '" << name
            << "' (try --list)\n";
        return 1;
    }
    exp::configureExecution(opts);
    e->run(opts, out);
    return 0;
}

int
runExperimentFromEnv(const std::string &name)
{
    return runExperiment(name, exp::ExperimentOptions::fromEnv(),
                         std::cout, std::cerr);
}

int
cliMain(int argc, const char *const *argv, std::ostream &out,
        std::ostream &err)
{
    // --help / --list answer before the environment is consulted, so
    // a malformed BWSIM_* variable (fatal in fromEnv()) cannot hide
    // the usage text.
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printUsage(out);
            return 0;
        }
        if (a == "--list") {
            printList(out);
            return 0;
        }
    }

    exp::ExperimentOptions opts = exp::ExperimentOptions::fromEnv();
    std::vector<std::string> names;
    bool exec_stats = false;
    bool backend_flag = false;
    bool worker = false;
    bool cache_stats = false;
    bool dump_stats = false;
    std::string config_name = "baseline";
    bool config_flag = false;
    int cache_max_mb = -1;
    std::string perf_out = "BENCH_fig10.json";

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto valueOf = [&a](const char *flag) {
            return a.substr(std::string(flag).size());
        };
        auto parseIntFlag = [&err](const char *flag, const std::string &v,
                                   int &dst) {
            if (!exp::parseInt(v, dst)) {
                err << "bwsim: " << flag << " expects an integer, got '"
                    << v << "'\n";
                return false;
            }
            return true;
        };
        if (a == "--help" || a == "-h") {
            printUsage(out);
            return 0;
        } else if (a == "--list") {
            printList(out);
            return 0;
        } else if (a.rfind("--benches=", 0) == 0) {
            opts.benchmarks = exp::splitCsv(valueOf("--benches="));
        } else if (a.rfind("--trace=", 0) == 0) {
            opts.tracePath = valueOf("--trace=");
            if (opts.tracePath.empty()) {
                err << "bwsim: --trace expects a file path\n";
                return 1;
            }
        } else if (a.rfind("--threads=", 0) == 0) {
            if (!parseIntFlag("--threads", valueOf("--threads="),
                              opts.threads))
                return 1;
        } else if (a.rfind("--shrink=", 0) == 0) {
            if (!parseIntFlag("--shrink", valueOf("--shrink="),
                              opts.shrink))
                return 1;
            opts.shrink = std::max(1, opts.shrink);
        } else if (a.rfind("--format=", 0) == 0) {
            if (!exp::parseTableFormat(valueOf("--format="),
                                       opts.format)) {
                err << "bwsim: --format expects text, csv or tsv, got '"
                    << valueOf("--format=") << "'\n";
                return 1;
            }
        } else if (a.rfind("--cache-dir=", 0) == 0) {
            opts.cacheDir = valueOf("--cache-dir=");
        } else if (a.rfind("--jobs=", 0) == 0) {
            if (!parseIntFlag("--jobs", valueOf("--jobs="), opts.jobs))
                return 1;
        } else if (a.rfind("--shards=", 0) == 0) {
            if (!parseIntFlag("--shards", valueOf("--shards="),
                              opts.shards))
                return 1;
        } else if (a.rfind("--shard-id=", 0) == 0) {
            if (!parseIntFlag("--shard-id", valueOf("--shard-id="),
                              opts.shardId))
                return 1;
        } else if (a.rfind("--backend=", 0) == 0) {
            opts.backend = valueOf("--backend=");
            backend_flag = true;
        } else if (a.rfind("--spool-dir=", 0) == 0) {
            opts.spoolDir = valueOf("--spool-dir=");
        } else if (a.rfind("--job-timeout=", 0) == 0) {
            if (!parseIntFlag("--job-timeout",
                              valueOf("--job-timeout="),
                              opts.jobTimeoutSec))
                return 1;
        } else if (a == "--worker") {
            worker = true;
        } else if (a == "--dump-stats") {
            dump_stats = true;
        } else if (a.rfind("--config=", 0) == 0) {
            config_name = valueOf("--config=");
            config_flag = true;
        } else if (a == "--cache-stats") {
            cache_stats = true;
        } else if (a.rfind("--cache-max-mb=", 0) == 0) {
            if (!parseIntFlag("--cache-max-mb",
                              valueOf("--cache-max-mb="), cache_max_mb))
                return 1;
            if (cache_max_mb < 0) {
                err << "bwsim: --cache-max-mb must be >= 0\n";
                return 1;
            }
        } else if (a == "--exec-stats") {
            exec_stats = true;
        } else if (a == "--profile-ticks") {
            setTickProfileEnabled(true);
        } else if (a.rfind("--scheduler=", 0) == 0) {
            SchedulerMode mode;
            if (!parseSchedulerMode(valueOf("--scheduler="), mode)) {
                err << "bwsim: --scheduler expects lockstep or skip, "
                       "got '"
                    << valueOf("--scheduler=") << "'\n";
                return 1;
            }
            setSchedulerMode(mode);
        } else if (a.rfind("--perf-out=", 0) == 0) {
            perf_out = valueOf("--perf-out=");
        } else if (!a.empty() && a[0] == '-') {
            err << "bwsim: unknown option '" << a << "'\n";
            printUsage(err);
            return 1;
        } else {
            names.push_back(a);
        }
    }

    if (opts.shards < 1) {
        err << "bwsim: --shards must be >= 1\n";
        return 1;
    }
    if (opts.shardId < 0 || opts.shardId >= opts.shards) {
        err << "bwsim: --shard-id must be in [0, --shards)\n";
        return 1;
    }
    if (opts.jobs < 1) {
        err << "bwsim: --jobs must be >= 1\n";
        return 1;
    }
    if (opts.jobs > 1 && opts.shards > 1) {
        err << "bwsim: --jobs (parent fan-out) and --shards/--shard-id "
               "(worker identity) are mutually exclusive\n";
        return 1;
    }
    if (opts.shards > 1 && opts.cacheDir.empty()) {
        err << "bwsim: --shards requires --cache-dir (workers publish "
               "their results there)\n";
        return 1;
    }
    if (opts.backend != "threads" && opts.backend != "jobs" &&
        opts.backend != "queue") {
        err << "bwsim: --backend expects threads, jobs or queue, got '"
            << opts.backend << "'\n";
        return 1;
    }
    if (opts.backend == "queue") {
        if (opts.spoolDir.empty()) {
            err << "bwsim: --backend=queue requires --spool-dir\n";
            return 1;
        }
        if (opts.jobs > 1 || opts.shards > 1) {
            err << "bwsim: --backend=queue is incompatible with "
                   "--jobs/--shards (workers come from bwsim "
                   "--worker)\n";
            return 1;
        }
    }
    if (opts.backend == "jobs" && opts.jobs < 2) {
        err << "bwsim: --backend=jobs requires --jobs=N with N >= 2\n";
        return 1;
    }
    if (backend_flag && opts.backend == "threads" && opts.jobs > 1) {
        err << "bwsim: --backend=threads contradicts --jobs=N (the "
               "fork fan-out is --backend=jobs)\n";
        return 1;
    }
    if (opts.jobTimeoutSec < 1) {
        err << "bwsim: --job-timeout must be >= 1\n";
        return 1;
    }
    if (opts.backend == "queue" &&
        opts.jobTimeoutSec < 2 * kDefaultClaimHeartbeatSec) {
        // Workers refresh their claim every kDefaultClaimHeartbeatSec;
        // a timeout inside that window reclaims live jobs.
        err << csprintf(
            "bwsim: warning: --job-timeout=%d is below twice the "
            "worker claim-heartbeat period (%.0fs); live jobs may be "
            "reclaimed and re-simulated\n",
            opts.jobTimeoutSec, kDefaultClaimHeartbeatSec);
    }
    if ((cache_stats || cache_max_mb >= 0) && opts.cacheDir.empty()) {
        err << "bwsim: --cache-stats/--cache-max-mb need --cache-dir\n";
        return 1;
    }

    if (config_flag && !dump_stats) {
        err << "bwsim: --config only applies to --dump-stats\n";
        return 1;
    }
    if (dump_stats) {
        if (!names.empty()) {
            err << "bwsim: --dump-stats takes no experiment names (it "
                   "dumps raw per-component stats, not figure "
                   "tables)\n";
            return 1;
        }
        if (worker || cache_stats || cache_max_mb >= 0) {
            err << "bwsim: --dump-stats cannot be combined with "
                   "--worker or cache housekeeping\n";
            return 1;
        }
        if (opts.format != exp::TableFormat::Text) {
            err << "bwsim: --dump-stats prints the raw stats tree, "
                   "not tables; --format does not apply\n";
            return 1;
        }
        if (opts.jobs > 1 || opts.shards > 1 ||
            (backend_flag && opts.backend != "threads")) {
            err << "bwsim: --dump-stats simulates in-process; "
                   "--jobs/--shards/--backend do not apply\n";
            return 1;
        }
        int dump_rc = runDumpStats(opts, config_name, out, err);
        // --dump-stats simulates too: the epilogue must not be lost
        // to this early return.
        if (exec_stats)
            printExecStats(err);
        return dump_rc;
    }

    if (worker) {
        if (!names.empty()) {
            err << "bwsim: --worker takes no experiment names (jobs "
                   "come from the spool)\n";
            return 1;
        }
        if (opts.spoolDir.empty()) {
            err << "bwsim: --worker requires --spool-dir\n";
            return 1;
        }
        return runWorkerMode(opts, err);
    }

    if (!names.empty() && names[0] == "trace")
        return runTraceTool(
            std::vector<std::string>(names.begin() + 1, names.end()),
            out, err);

    if (std::find(names.begin(), names.end(), "perf") != names.end()) {
        if (names.size() != 1) {
            err << "bwsim: perf runs alone (it pins its own sweep)\n";
            return 1;
        }
        return runPerf(perf_out, out, err);
    }

    const bool housekeeping = cache_stats || cache_max_mb >= 0;
    if (names.empty() && !housekeeping) {
        err << "bwsim: no experiment named\n";
        printUsage(err);
        return 1;
    }
    for (const auto &n : names)
        if (!findExperiment(n)) {
            err << "bwsim: unknown experiment '" << n
                << "' (try --list)\n";
            return 1;
        }

    int rc = 0;
    if (names.empty()) {
        // Housekeeping-only invocation (--cache-stats / --cache-max-mb
        // with no experiments); handled below.
    } else if (opts.jobs > 1) {
#ifdef __unix__
        rc = runJobs(names, opts, out, err);
#else
        err << "bwsim: --jobs is only supported on unix hosts\n";
        return 1;
#endif
    } else if (opts.shards > 1) {
        // Worker mode: simulate this shard's share into the shared
        // cache directory; tables come from the merge pass.
        std::ostringstream sink;
        for (const auto &n : names) {
            rc = runExperiment(n, opts, sink, err);
            if (rc)
                return rc;
        }
        // Diagnostics go to stderr like every other bwsim message;
        // worker stdout stays empty (tables come from the merge pass).
        const SimCache &cache = SimCache::global();
        err << csprintf(
            "bwsim: shard %d/%d: sims=%llu disk-hits=%llu "
            "skipped=%llu\n",
            opts.shardId, opts.shards,
            static_cast<unsigned long long>(cache.simsRun()),
            static_cast<unsigned long long>(cache.diskHits()),
            static_cast<unsigned long long>(cache.skipped()));
    } else {
        for (std::size_t i = 0; i < names.size() && rc == 0; ++i) {
            if (i > 0)
                out << "\n";
            rc = runExperiment(names[i], opts, out, err);
        }
    }

    if (rc == 0 && cache_stats)
        printCacheStats(opts.cacheDir, out);
    if (rc == 0 && cache_max_mb >= 0) {
        EvictionReport rep = evictCacheDir(
            opts.cacheDir,
            static_cast<std::uint64_t>(cache_max_mb) * 1024 * 1024);
        err << csprintf(
            "bwsim: cache dir %s: evicted %llu entries (%.2f MB), "
            "kept %llu (%.2f MB <= %d MB budget)\n",
            opts.cacheDir.c_str(),
            static_cast<unsigned long long>(rep.filesEvicted),
            double(rep.bytesEvicted) / kMB,
            static_cast<unsigned long long>(rep.filesKept),
            double(rep.bytesKept) / kMB, cache_max_mb);
    }

    if (exec_stats)
        printExecStats(err);
    return rc;
}

} // namespace bwsim::cli
