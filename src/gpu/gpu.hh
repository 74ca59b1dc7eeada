/**
 * @file
 * Gpu: the full modelled chip -- 15 SIMT cores in front of a pluggable
 * MemSystem (crossbars + memory partitions, or one of the paper's
 * ideal-memory models) -- advanced by a three-domain clock
 * (core / crossbar+L2 / DRAM).
 *
 * The Gpu is also the WorkSource feeding CTAs from the selected
 * WorkloadSpec (synthetic profile, trace replay, or generator probe)
 * to the cores. Which memory hierarchy sits below the
 * L1s is entirely the MemSystem's business (see mem/mem_system.hh):
 * the tick and completion paths here are mode-free, so the bounding
 * experiments of Table II and Fig. 3 are plain configs.
 *
 * Every component registers its counters in the stats tree rooted at
 * the "gpu" group ("core<N>" with "l1d"/"l1i" children, "icnt" with
 * "req"/"reply", "part<N>" with "l2b<B>"/"dram"); harvest() is a
 * declarative mapping from that tree into SimResult, and dumpStats()
 * prints the whole tree (the CLI's --dump-stats).
 */

#ifndef BWSIM_GPU_GPU_HH
#define BWSIM_GPU_GPU_HH

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/sim_result.hh"
#include "mem/mem_fetch.hh"
#include "mem/mem_system.hh"
#include "sim/clock.hh"
#include "smcore/sm_core.hh"
#include "stats/stat.hh"
#include "workloads/workload_spec.hh"

namespace bwsim
{

class Gpu : public WorkSource
{
  public:
    /** Accepts a plain BenchmarkProfile implicitly (synthetic spec). */
    Gpu(const GpuConfig &config, const WorkloadSpec &workload);
    ~Gpu() override;

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /** Run to completion (or the safety cycle cap) and harvest stats. */
    SimResult run();

    /** Advance a bounded number of core cycles (tests/debugging). */
    void runCycles(std::uint64_t core_cycles);

    /** @name WorkSource (CTA distribution to cores) */
    /**@{*/
    bool hasWork() const override { return ctasRemaining > 0; }
    CtaWork takeCta(int core_id) override;
    /**@}*/

    /** @name Introspection for tests and the analysis framework */
    /**@{*/
    const GpuConfig &config() const { return cfg; }
    const WorkloadSpec &workload() const { return spec; }
    const BenchmarkProfile &profile() const { return prof; }
    SmCore &core(int i) { return *cores.at(i); }
    MemSystem &memSystem() { return *memSys; }
    const MemSystem &memSystem() const { return *memSys; }
    /** Null when the config models an ideal (network-free) hierarchy. */
    Interconnect *interconnect() { return memSys->interconnect(); }
    const MemFetchAllocator &allocator() const { return alloc; }
    std::uint64_t coreCycles() const { return coreCycleCount; }
    /** Core ticks replaced by skipCycles(1) inside executed edges. */
    std::uint64_t elidedCoreTicks() const { return coreElidedTicks; }
    bool allWorkDone() const;
    SimResult harvest() const;
    /**@}*/

    /** @name The statistics tree rooted at this chip ("gpu") */
    /**@{*/
    stats::Group &statsTree() { return statsRoot; }
    const stats::Group &statsTree() const { return statsRoot; }
    /** Print every stat as "gpu.<path>.<stat> value # desc" lines. */
    void dumpStats(std::ostream &os) const;
    /**@}*/

  private:
    void coreTick();
    /**
     * Per-core quiescence proof: edges for which core @p c needs no
     * deliverResponses/tick/acceptRequests (0 = it must tick). Holds
     * when the core's own horizon is open, no outgoing miss could be
     * injected, and the MemSystem has nothing to hand it. @p pre_cycle
     * is the core-cycle count before the edge, which IdealMemSystem
     * keys its pipes on.
     */
    std::uint64_t coreIdleHorizon(int c, std::uint64_t pre_cycle);
    /** Core-domain quiescence horizon (min of coreIdleHorizon). */
    std::uint64_t coreQuiesceHorizon();
    /** Integrate a skipped core-domain span into every core. */
    void coreSkip(std::uint64_t n);

    /**
     * Per-domain tick-cost telemetry (--profile-ticks). Slots are
     * fixed (0 = dram, 1 = icnt, 2 = core); the log2Ns histogram
     * buckets one tick's wall cost at floor(log2(ns)), capped at the
     * last bucket. Only populated -- and only registered as a stats
     * group -- when the profiler is enabled, so the default stats
     * tree is byte-identical.
     */
    struct DomainTickProf
    {
        std::uint64_t ticks = 0;
        std::uint64_t nanos = 0;
        std::array<std::uint64_t, 16> log2Ns{};
    };
    static constexpr std::size_t numProfSlots = 3;
    /** Wrap @p fn with the steady_clock probe for @p slot (identity
     *  when the profiler is disabled). */
    std::function<void()> profiledTick(std::size_t slot,
                                       std::function<void()> fn);
    /** Register the "tick_profile" stats group (enabled runs only). */
    void registerTickProfileStats();

    GpuConfig cfg;
    WorkloadSpec spec;
    /** Shape/name shorthand; always a copy of spec.profile. */
    BenchmarkProfile prof;
    MemFetchAllocator alloc;

    MultiClock clocks;
    std::size_t coreDomain = 0, icntDomain = 0, dramDomain = 0;
    std::uint64_t coreCycleCount = 0;
    /** Core ticks replaced by skipCycles(1) inside executed edges. */
    std::uint64_t coreElidedTicks = 0;
    /** Core that vetoed the last horizon probe; scanned first next. */
    int lastCoreVeto = 0;

    /** Root of the stats tree; components register into it below. */
    stats::Group statsRoot{"gpu"};

    std::vector<std::unique_ptr<SmCore>> cores;
    std::unique_ptr<MemSystem> memSys;

    int ctasRemaining = 0;
    std::uint64_t ctaSeq = 0;
    bool resultTimedOut = false;

    std::array<DomainTickProf, numProfSlots> tickProf{};
};

} // namespace bwsim

#endif // BWSIM_GPU_GPU_HH
