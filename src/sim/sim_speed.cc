#include "sim/sim_speed.hh"

#include <atomic>
#include <cstdlib>

#include "common/log.hh"

namespace bwsim
{

namespace
{

SchedulerMode
modeFromEnv()
{
    const char *env = std::getenv("BWSIM_SCHEDULER");
    if (!env || !*env)
        return SchedulerMode::Skip;
    SchedulerMode m;
    if (!parseSchedulerMode(env, m)) {
        warn("BWSIM_SCHEDULER='%s' is not 'lockstep' or 'skip'; "
             "using skip",
             env);
        return SchedulerMode::Skip;
    }
    return m;
}

std::atomic<SchedulerMode> &
modeCell()
{
    static std::atomic<SchedulerMode> cell{modeFromEnv()};
    return cell;
}

struct Totals
{
    std::atomic<std::uint64_t> runs{0};
    std::atomic<std::uint64_t> coreCycles{0};
    std::atomic<std::uint64_t> tickedEdges{0};
    std::atomic<std::uint64_t> skippedEdges{0};
    std::atomic<std::uint64_t> fusedSpans{0};
    std::atomic<std::uint64_t> fusedCycles{0};
    std::atomic<std::uint64_t> coreElidedTicks{0};
    std::atomic<std::uint64_t> wallNanos{0};
};

Totals &
totals()
{
    static Totals t;
    return t;
}

} // namespace

SchedulerMode
schedulerMode()
{
    return modeCell().load(std::memory_order_relaxed);
}

void
setSchedulerMode(SchedulerMode mode)
{
    modeCell().store(mode, std::memory_order_relaxed);
}

const char *
schedulerModeName(SchedulerMode mode)
{
    return mode == SchedulerMode::Lockstep ? "lockstep" : "skip";
}

bool
parseSchedulerMode(const std::string &text, SchedulerMode &out)
{
    if (text == "lockstep") {
        out = SchedulerMode::Lockstep;
        return true;
    }
    if (text == "skip") {
        out = SchedulerMode::Skip;
        return true;
    }
    return false;
}

void
recordSimSpeed(std::uint64_t core_cycles, std::uint64_t ticked_edges,
               std::uint64_t skipped_edges, std::uint64_t core_elided_ticks,
               std::uint64_t wall_nanos)
{
    Totals &t = totals();
    t.runs.fetch_add(1, std::memory_order_relaxed);
    t.coreCycles.fetch_add(core_cycles, std::memory_order_relaxed);
    t.tickedEdges.fetch_add(ticked_edges, std::memory_order_relaxed);
    t.skippedEdges.fetch_add(skipped_edges, std::memory_order_relaxed);
    t.coreElidedTicks.fetch_add(core_elided_ticks,
                                std::memory_order_relaxed);
    t.wallNanos.fetch_add(wall_nanos, std::memory_order_relaxed);
}

void
recordFusedSpan(std::uint64_t fused_cycles)
{
    Totals &t = totals();
    t.fusedSpans.fetch_add(1, std::memory_order_relaxed);
    t.fusedCycles.fetch_add(fused_cycles, std::memory_order_relaxed);
}

SimSpeedTotals
simSpeedTotals()
{
    const Totals &t = totals();
    SimSpeedTotals out;
    out.runs = t.runs.load(std::memory_order_relaxed);
    out.coreCycles = t.coreCycles.load(std::memory_order_relaxed);
    out.tickedEdges = t.tickedEdges.load(std::memory_order_relaxed);
    out.skippedEdges = t.skippedEdges.load(std::memory_order_relaxed);
    out.fusedSpans = t.fusedSpans.load(std::memory_order_relaxed);
    out.fusedCycles = t.fusedCycles.load(std::memory_order_relaxed);
    out.coreElidedTicks =
        t.coreElidedTicks.load(std::memory_order_relaxed);
    out.wallNanos = t.wallNanos.load(std::memory_order_relaxed);
    return out;
}

} // namespace bwsim
