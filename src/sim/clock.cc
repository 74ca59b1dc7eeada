#include "sim/clock.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace bwsim
{

ClockDomain::ClockDomain(std::string name, double freq_mhz,
                         std::function<void()> tick_fn)
    : domainName(std::move(name)), freq(freq_mhz),
      period(1e6 / freq_mhz), fn(std::move(tick_fn))
{
    bwsim_assert(freq_mhz > 0.0, "domain '%s' needs a positive frequency",
                 domainName.c_str());
}

void
ClockDomain::tick()
{
    fn();
    ++cycles;
    next += period;
    // The callback changed this domain's own state; cross-domain
    // effects are the MultiClock's affects-map's business.
    horizonValid = false;
}

void
ClockDomain::setSkipHooks(HorizonFn horizon_fn, SkipFn skip_fn)
{
    bwsim_assert(horizon_fn && skip_fn,
                 "domain '%s' needs both skip hooks", domainName.c_str());
    horizonFn = std::move(horizon_fn);
    skipFn = std::move(skip_fn);
}

std::uint64_t
ClockDomain::horizon()
{
    if (!horizonValid) {
        // Horizons are only recomputed with no skips pending: every
        // executed instant flushes all domains before invalidating, so
        // the component counters the hook reads are never stale.
        bwsim_assert(pendingSkips == 0,
                     "domain '%s': horizon recompute with %llu unreported "
                     "skips",
                     domainName.c_str(),
                     static_cast<unsigned long long>(pendingSkips));
        cachedHorizon = horizonFn();
        horizonValid = true;
    }
    return cachedHorizon;
}

void
ClockDomain::skipEdge()
{
    ++cycles;
    next += period;
    ++pendingSkips;
    bwsim_assert(horizonValid && cachedHorizon > 0,
                 "domain '%s': skip past the horizon", domainName.c_str());
    if (cachedHorizon != kInfiniteHorizon)
        --cachedHorizon;
}

void
ClockDomain::flushSkips()
{
    if (pendingSkips == 0)
        return;
    std::uint64_t n = pendingSkips;
    pendingSkips = 0;
    skipFn(n);
}

void
ClockDomain::setFreqMhz(double freq_mhz)
{
    bwsim_assert(freq_mhz > 0.0, "domain '%s' needs a positive frequency",
                 domainName.c_str());
    freq = freq_mhz;
    period = 1e6 / freq_mhz;
}

std::size_t
MultiClock::addDomain(std::string name, double freq_mhz,
                      std::function<void()> tick_fn)
{
    domains.emplace_back(std::move(name), freq_mhz, std::move(tick_fn));
    return domains.size() - 1;
}

void
MultiClock::step()
{
    bwsim_assert(!domains.empty(), "MultiClock has no domains");

    double earliest = std::numeric_limits<double>::max();
    for (const auto &d : domains)
        earliest = std::min(earliest, d.nextEdge());

    // Publish the new time before ticking so callbacks that consult
    // nowPs() observe the instant they execute at.
    now = earliest;

    // Tolerate floating-point drift between nominally coincident edges
    // (e.g. 700 MHz being exactly half of 1400 MHz).
    const double epsilon = 1e-6;
    for (auto &d : domains) {
        if (d.nextEdge() <= earliest + epsilon) {
            d.tick();
            ++ticked;
        }
    }
}

void
MultiClock::setAffects(std::size_t src, std::vector<std::size_t> dsts)
{
    if (affects.size() <= src)
        affects.resize(domains.size());
    affects.at(src) = std::move(dsts);
}

void
MultiClock::runUntil(std::size_t driver_idx, Cycle target)
{
    bwsim_assert(!domains.empty(), "MultiClock has no domains");
    bwsim_assert(domains.size() <= 16,
                 "runUntil supports at most 16 domains");
    ClockDomain &driver = domains.at(driver_idx);
    const double epsilon = 1e-6;
    // Few domains: scan them directly, no event queue needed.
    std::size_t due[16];

    while (driver.cycle() < target) {
        double earliest = std::numeric_limits<double>::max();
        for (const auto &d : domains)
            earliest = std::min(earliest, d.nextEdge());

        std::size_t n_due = 0;
        for (std::size_t i = 0; i < domains.size(); ++i) {
            if (domains[i].nextEdge() <= earliest + epsilon)
                due[n_due++] = i;
        }

        bool skip_ok = true;
        for (std::size_t k = 0; k < n_due; ++k) {
            ClockDomain &d = domains[due[k]];
            if (!d.skippable()) {
                skip_ok = false;
                break;
            }
            std::uint64_t h = d.horizon();
            if (due[k] == driver_idx) {
                // The target-reaching edge always executes so that
                // nowPs() lands on the same instant as lockstep.
                h = std::min<std::uint64_t>(h, target - 1 - d.cycle());
            }
            if (h == 0) {
                skip_ok = false;
                break;
            }
        }

        if (skip_ok) {
            for (std::size_t k = 0; k < n_due; ++k)
                domains[due[k]].skipEdge();
            skipped += n_due;
            continue;
        }

        // Executed instant: report all accumulated skips first so every
        // horizon recompute (and the callbacks themselves) see current
        // component counters, then tick in registration order.
        for (auto &d : domains)
            d.flushSkips();
        now = earliest;
        for (std::size_t k = 0; k < n_due; ++k)
            domains[due[k]].tick();
        ticked += n_due;
        for (std::size_t k = 0; k < n_due; ++k) {
            const std::size_t src = due[k];
            if (src < affects.size() && !affects[src].empty()) {
                for (std::size_t dst : affects[src])
                    domains.at(dst).invalidateHorizon();
            } else {
                for (auto &d : domains)
                    d.invalidateHorizon();
            }
        }
    }

    for (auto &d : domains)
        d.flushSkips();
}

} // namespace bwsim
