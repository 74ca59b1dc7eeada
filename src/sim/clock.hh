/**
 * @file
 * Multi-rate clocking in the GPGPU-Sim style.
 *
 * The GPU has several clock domains (core 1.4 GHz, crossbar/L2 700 MHz,
 * DRAM command clock 924 MHz in the baseline). A MultiClock advances
 * simulated time to the earliest pending domain edge and ticks every
 * domain whose edge falls on that instant, in registration order.
 * Registration order therefore fixes the intra-instant ordering; bwsim
 * registers drains before producers (DRAM, then L2/crossbar, then
 * cores) so requests never teleport through two levels in one instant.
 *
 * Cycle-skip scheduling: a domain may additionally install a horizon
 * hook reporting how many of its upcoming edges are provably
 * integrable ("quiescence horizon") -- either dead edges, whose only
 * effects are cycle counters and frozen occupancy samples, or fused
 * spans whose per-cycle effects are identical counter increments
 * (SmCore's memoized L1D/L1I stall replays) -- plus a skip hook that
 * integrates a span of skipped edges into those counters in one shot.
 * runUntil() then replays the exact lockstep sequence of edge instants
 * but elides the component callbacks on edges every due domain
 * declares integrable. Because each skipped edge still advances the
 * domain's next-edge time by one period (the same repeated
 * floating-point addition lockstep performs), the due-set grouping
 * math is unchanged, and every accumulated span is flushed into the
 * skip hooks before any tick executes at an instant (so the hooks
 * integrate from state exactly as frozen at span approval), a
 * skip-scheduled run visits the identical instants and produces
 * bit-identical state; the horizon contract only has to err early
 * (execute a harmless edge), never late.
 */

#ifndef BWSIM_SIM_CLOCK_HH
#define BWSIM_SIM_CLOCK_HH

#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace bwsim
{

/** Horizon sentinel: idle until external work arrives. */
constexpr std::uint64_t kInfiniteHorizon = ~std::uint64_t(0);

/** One clock domain: a frequency, a cycle counter and a tick callback. */
class ClockDomain
{
  public:
    /**
     * Returns how many upcoming edges of this domain are provably
     * integrable given current component state: 0 means the very next
     * edge must execute, kInfiniteHorizon means nothing happens until
     * some other domain's execution changes the component's inputs.
     * An integrable edge is either dead (cycle counters and frozen
     * occupancy samples only) or charges per-cycle counters whose
     * values are a frozen function of current state (the matching
     * SkipFn reproduces them in bulk). Only called when the domain
     * has no unreported skipped edges, so the component's own
     * counters are up to date.
     */
    using HorizonFn = std::function<std::uint64_t()>;
    /**
     * Integrate @p n skipped edges into the component's per-cycle
     * counters (cycle totals, frozen occupancy samples, memoized stall
     * replays). Must leave all observable state exactly as @p n
     * individual lockstep ticks would have; it runs before any tick
     * executes at the flush instant, so the component state it reads
     * is the state the span was approved against.
     */
    using SkipFn = std::function<void(std::uint64_t)>;

    ClockDomain(std::string name, double freq_mhz,
                std::function<void()> tick_fn);

    const std::string &name() const { return domainName; }
    double freqMhz() const { return freq; }
    /** Domain period in picoseconds (not necessarily integral). */
    double periodPs() const { return period; }
    /** Cycles completed so far. */
    Cycle cycle() const { return cycles; }
    /** Absolute time (ps) of the next edge. */
    double nextEdge() const { return next; }

    /** Run one cycle and schedule the next edge. */
    void tick();

    /** Change frequency mid-run (used by frequency-sweep experiments). */
    void setFreqMhz(double freq_mhz);

    /** @name Cycle-skip scheduling (see file comment) */
    /**@{*/
    /** Install the skip hooks; a domain without them never skips. */
    void setSkipHooks(HorizonFn horizon_fn, SkipFn skip_fn);
    bool skippable() const { return static_cast<bool>(horizonFn); }
    /** Cached quiescence horizon, recomputed when invalidated. */
    std::uint64_t horizon();
    /** Component inputs may have changed: recompute before next use. */
    void invalidateHorizon() { horizonValid = false; }
    /**
     * Advance one edge without the callback. The edge is accumulated
     * and reported to the SkipFn at the next flushSkips(); next-edge
     * time advances by exactly one period, as tick() would.
     */
    void skipEdge();
    /** Report accumulated skipped edges to the component, if any. */
    void flushSkips();
    /**@}*/

  private:
    std::string domainName;
    double freq;
    double period;
    double next = 0.0;
    Cycle cycles = 0;
    std::function<void()> fn;

    HorizonFn horizonFn;
    SkipFn skipFn;
    std::uint64_t cachedHorizon = 0;
    bool horizonValid = false;
    std::uint64_t pendingSkips = 0;
};

/**
 * A set of clock domains advanced in time order. Domains are ticked
 * lazily: step() advances to the next instant with at least one edge.
 */
class MultiClock
{
  public:
    /** Register a domain; returns its index. Order = intra-instant order. */
    std::size_t addDomain(std::string name, double freq_mhz,
                          std::function<void()> tick_fn);

    ClockDomain &domain(std::size_t idx) { return domains.at(idx); }
    const ClockDomain &domain(std::size_t idx) const
    {
        return domains.at(idx);
    }
    std::size_t numDomains() const { return domains.size(); }

    /** Current simulated time in picoseconds. */
    double nowPs() const { return now; }

    /** Advance to the next edge instant, ticking all due domains. */
    void step();

    /**
     * Declare which domains' horizons executing @p src can invalidate
     * (data-flow reachability; include @p src itself). Unset = all.
     */
    void setAffects(std::size_t src, std::vector<std::size_t> dsts);

    /**
     * Advance until domain @p driver_idx has completed @p target
     * cycles, skipping edge instants where every due domain reports a
     * positive horizon. The driver's target-reaching edge always
     * executes, so nowPs() matches a lockstep run; all accumulated
     * skips are flushed before returning.
     */
    void runUntil(std::size_t driver_idx, Cycle target);

    /** @name Edge accounting (lockstep step() counts as ticked) */
    /**@{*/
    std::uint64_t tickedEdges() const { return ticked; }
    std::uint64_t skippedEdges() const { return skipped; }
    /**@}*/

  private:
    std::vector<ClockDomain> domains;
    std::vector<std::vector<std::size_t>> affects;
    double now = 0.0;
    std::uint64_t ticked = 0;
    std::uint64_t skipped = 0;
};

} // namespace bwsim

#endif // BWSIM_SIM_CLOCK_HH
