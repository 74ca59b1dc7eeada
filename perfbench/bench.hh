/**
 * @file
 * Pieces of the bwsim benchmark (bwbench) that its tests exercise: the
 * seed-mixing ExecutionBackend decorator, the per-sim correctness
 * checks, the result digest and the metric arithmetic. Header-only;
 * bwbench.cc and the tests (bench_tests.cc) include it.
 */

#ifndef BWSIM_PERFBENCH_BENCH_HH
#define BWSIM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/serdes.hh"
#include "core/backend.hh"
#include "core/experiments.hh"
#include "gpu/sim_result.hh"
#include "workloads/profile.hh"
#include "workloads/workload_spec.hh"

namespace perfbench
{

using namespace bwsim;

/** The seed that keeps every shipped profile seed unchanged, so the
 *  paper-grid workload at this seed is exactly `bwsim tab2 fig10`. */
constexpr std::uint64_t defaultSeed = 0;

/** Host seconds since an arbitrary steady epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * @p w with the benchmark seed mixed into its synthetic profile's
 * seed. The default seed, and every non-synthetic workload (probes
 * and traces carry no random stream), pass through unchanged.
 */
inline WorkloadSpec
seeded(const WorkloadSpec &w, std::uint64_t seed)
{
    if (seed == defaultSeed || w.kind != WorkloadKind::Synthetic)
        return w;
    WorkloadSpec out = w;
    out.profile.seed = Rng::mixSeed(w.profile.seed, seed);
    return out;
}

/**
 * Warp instructions a complete run of @p w issues: every warp of
 * every CTA runs its whole instruction stream. 0 for traces, whose
 * per-warp split depends on the CTA tags.
 */
inline std::uint64_t
expectedWarpInsts(const WorkloadSpec &w)
{
    const std::uint64_t warps =
        static_cast<std::uint64_t>(w.profile.numCtas) *
        static_cast<std::uint64_t>(w.profile.warpsPerCta);
    switch (w.kind) {
    case WorkloadKind::Synthetic:
        return warps * static_cast<std::uint64_t>(w.profile.instsPerWarp);
    case WorkloadKind::Generator:
        return warps * static_cast<std::uint64_t>(w.gen.insts);
    case WorkloadKind::Trace:
        break;
    }
    return 0;
}

/** The checks every sim must pass: it finished before the cycle cap
 *  and issued its workload's full instruction count. */
inline bool
resultOk(const WorkloadSpec &w, const SimResult &r)
{
    if (r.timedOut || r.warpInstsIssued == 0)
        return false;
    const std::uint64_t want = expectedWarpInsts(w);
    return want == 0 || r.warpInstsIssued == want;
}

/** Sims checked and sims that failed a check. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const WorkloadSpec &w, const SimResult &r)
    {
        ++attempted;
        if (!resultOk(w, r)) {
            ++failed;
            std::fprintf(stderr, "perfbench: check failed: %s on %s "
                                 "(timedOut=%d warpInsts=%llu want %llu)\n",
                         w.name().c_str(), r.config.c_str(),
                         r.timedOut ? 1 : 0,
                         static_cast<unsigned long long>(r.warpInstsIssued),
                         static_cast<unsigned long long>(
                             expectedWarpInsts(w)));
        }
    }

    double
    failedFrac() const
    {
        return attempted ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
    }
};

/** The serialized bytes of one result (the oracle compares these). */
inline std::string
resultBytes(const SimResult &r)
{
    ByteWriter w;
    serializeResult(w, r);
    return std::move(w).take();
}

/** fnv1a64 over the serialized results in order, as 16 hex digits. */
inline std::string
resultDigest(const std::vector<SimResult> &results)
{
    std::string all;
    for (const auto &r : results)
        all += resultBytes(r);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(all)));
    return buf;
}

/** @name Metric arithmetic */
/**@{*/
/** Share of the thread pool's time spent inside simulations. */
inline double
busyFrac(double sim_host_s, int threads, double wall_s)
{
    return threads > 0 && wall_s > 0 ? sim_host_s / (threads * wall_s)
                                     : 0.0;
}

/** Share of clock edges the skip scheduler elided. */
inline double
skipFrac(std::uint64_t ticked, std::uint64_t skipped)
{
    const std::uint64_t all = ticked + skipped;
    return all ? static_cast<double>(skipped) / static_cast<double>(all)
               : 0.0;
}

/** Mean |sim - paper| / paper over the pairs whose paper value is
 *  positive; 0 when there are none. */
inline double
meanRelErr(const std::vector<std::pair<double, double>> &sim_paper)
{
    double sum = 0;
    int n = 0;
    for (const auto &[sim, paper] : sim_paper) {
        if (paper <= 0)
            continue;
        sum += std::fabs(sim - paper) / paper;
        ++n;
    }
    return n ? sum / n : 0.0;
}

/** Table II fidelity: mean relative error of the P-inf and P-DRAM
 *  columns of a tab2SpeedupBounds() table against the paper. */
struct PaperErr
{
    double pinf = 0;
    double pdram = 0;
};

inline PaperErr
paperErr(const exp::SeriesTable &tab2)
{
    std::vector<std::pair<double, double>> pinf, pdram;
    for (const auto &row : tab2.rowNames) {
        const BenchmarkProfile *p = findBenchmark(row);
        if (!p)
            continue; // the AVG row
        pinf.emplace_back(tab2.at(row, "P-inf"), p->paperPinf);
        pdram.emplace_back(tab2.at(row, "P-DRAM"), p->paperPdram);
    }
    return {meanRelErr(pinf), meanRelErr(pdram)};
}
/**@}*/

/**
 * The decorator installed with exp::setExecutionBackend(): mixes the
 * benchmark seed into every RunSpec, forwards the batch to the inner
 * backend (a CachingBackend over SimCache::global() in bwbench),
 * and times each runAll() batch. It records every spec and result in
 * call order for the checks and the digest.
 */
class SeedingBackend : public ExecutionBackend
{
  public:
    SeedingBackend(std::uint64_t seed,
                   std::unique_ptr<ExecutionBackend> inner)
        : seed(seed), inner(std::move(inner))
    {
    }

    std::string name() const override { return "perfbench-seeding"; }

    std::vector<SimResult>
    runAll(const std::vector<RunSpec> &specs, int threads = 0) override
    {
        std::vector<RunSpec> mixed;
        mixed.reserve(specs.size());
        for (const auto &s : specs)
            mixed.push_back({seeded(s.workload, seed), s.config});
        const double t0 = nowSeconds();
        auto results = inner->runAll(mixed, threads);
        batchSeconds.push_back(nowSeconds() - t0);
        for (std::size_t i = 0; i < mixed.size(); ++i) {
            ranSpecs.push_back(mixed[i]);
            ranResults.push_back(results[i]);
        }
        return results;
    }

    /** Forget the recorded batches (start of a repetition). */
    void
    reset()
    {
        batchSeconds.clear();
        ranSpecs.clear();
        ranResults.clear();
    }

    /** Mixed into every spec; defaultSeed forwards specs unchanged. */
    std::uint64_t seed;
    std::vector<double> batchSeconds;
    std::vector<RunSpec> ranSpecs;
    std::vector<SimResult> ranResults;

  private:
    std::unique_ptr<ExecutionBackend> inner;
};

} // namespace perfbench

#endif // BWSIM_PERFBENCH_BENCH_HH
