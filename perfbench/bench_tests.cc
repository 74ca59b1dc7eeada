/**
 * @file
 * Tests of the benchmark's own logic: the metric arithmetic,
 * the seeding decorator and the checks behind failed_frac. Run with
 * `python3 perfbench/run.py --selftest`; exits non-zero on a failure.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.hh"
#include "gpu/gpu.hh"

using namespace perfbench;

namespace
{

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

/** Records the batches it is handed; returns placeholder results. */
class RecordingBackend : public ExecutionBackend
{
  public:
    explicit RecordingBackend(std::vector<RunSpec> &seen) : seen(seen) {}

    std::string name() const override { return "recording"; }

    std::vector<SimResult>
    runAll(const std::vector<RunSpec> &specs, int) override
    {
        seen.insert(seen.end(), specs.begin(), specs.end());
        return std::vector<SimResult>(specs.size());
    }

  private:
    std::vector<RunSpec> &seen;
};

void
testMetricArithmetic()
{
    // 6 s of simulation on 4 threads over 2 s of wall time.
    CHECK(near(busyFrac(6.0, 4, 2.0), 0.75));
    CHECK(busyFrac(1.0, 0, 1.0) == 0.0);
    CHECK(busyFrac(1.0, 4, 0.0) == 0.0);

    CHECK(near(skipFrac(75, 25), 0.25));
    CHECK(skipFrac(0, 0) == 0.0);

    // Pairs with no paper value are left out of the mean.
    CHECK(near(meanRelErr({{2.0, 1.0}, {3.0, 4.0}, {5.0, 0.0}}),
                (1.0 + 0.25) / 2));
    CHECK(meanRelErr({}) == 0.0);

    // A Table II table: the AVG row carries no paper value.
    const BenchmarkProfile &mm = *findBenchmark("mm");
    const BenchmarkProfile &bfs = *findBenchmark("bfs");
    exp::SeriesTable t;
    t.rowNames = {"mm", "bfs", "AVG"};
    t.colNames = {"P-inf", "P-DRAM"};
    t.value = {{mm.paperPinf * 1.1, mm.paperPdram * 0.5},
               {bfs.paperPinf * 0.8, bfs.paperPdram},
               {100.0, 100.0}};
    const PaperErr err = paperErr(t);
    CHECK(near(err.pinf, (0.1 + 0.2) / 2));
    CHECK(near(err.pdram, 0.5 / 2));
}

void
testSeedingDecorator()
{
    WorkloadSpec probe;
    CHECK(parseGeneratorForm("pchase:64m", probe));
    std::vector<RunSpec> specs;
    for (const auto &p : benchmarkSuite())
        specs.push_back({p, GpuConfig::scaledAll()});
    specs.push_back({probe, GpuConfig::baseline()});

    // The default seed forwards every spec unchanged.
    std::vector<RunSpec> seen;
    SeedingBackend plain(defaultSeed,
                         std::make_unique<RecordingBackend>(seen));
    CHECK(plain.runAll(specs, 2).size() == specs.size());
    CHECK(seen.size() == specs.size());
    for (std::size_t i = 0; i < seen.size() && i < specs.size(); ++i) {
        CHECK(seen[i].workload.cacheKey() == specs[i].workload.cacheKey());
        CHECK(seen[i].config.cacheKey() == specs[i].config.cacheKey());
    }
    CHECK(plain.batchSeconds.size() == 1);
    CHECK(plain.ranSpecs.size() == specs.size());

    // Another seed changes only the synthetic profiles' seed.
    seen.clear();
    SeedingBackend mixed(7, std::make_unique<RecordingBackend>(seen));
    mixed.runAll(specs, 2);
    CHECK(seen.size() == specs.size());
    for (std::size_t i = 0; i < seen.size() && i < specs.size(); ++i) {
        const WorkloadSpec &in = specs[i].workload;
        WorkloadSpec out = seen[i].workload;
        CHECK(seen[i].config.cacheKey() == specs[i].config.cacheKey());
        if (in.kind != WorkloadKind::Synthetic) {
            CHECK(out.cacheKey() == in.cacheKey());
            CHECK(out.profile.seed == in.profile.seed);
            continue;
        }
        CHECK(out.profile.seed != in.profile.seed);
        out.profile.seed = in.profile.seed;
        CHECK(out.cacheKey() == in.cacheKey());
    }
    // Deterministic: the same seed mixes to the same profile seed.
    CHECK(seeded(specs[0].workload, 7).profile.seed ==
          seen[0].workload.profile.seed);
}

void
testCycleCapCountsAsFailed()
{
    const WorkloadSpec spec = makeTestProfile("tiny-stream");
    const SimResult full = Gpu(GpuConfig::baseline(), spec).run();
    CHECK(!full.timedOut);
    CHECK(full.warpInstsIssued == expectedWarpInsts(spec));
    CHECK(resultOk(spec, full));

    // Cap the same sim halfway: it stops short and is flagged.
    GpuConfig capped = GpuConfig::baseline();
    capped.maxCoreCycles = full.coreCycles / 2;
    const SimResult cut = Gpu(capped, spec).run();
    CHECK(cut.timedOut);
    CHECK(cut.warpInstsIssued > 0);
    CHECK(!resultOk(spec, cut));

    Tally tally;
    tally.add(spec, full);
    tally.add(spec, cut);
    CHECK(tally.attempted == 2);
    CHECK(tally.failed == 1);
    CHECK(near(tally.failedFrac(), 0.5));

    // Each check fails a run on its own.
    SimResult flagged = full;
    flagged.timedOut = true;
    CHECK(!resultOk(spec, flagged));
    SimResult shortRun = full;
    shortRun.warpInstsIssued -= 1;
    CHECK(!resultOk(spec, shortRun));

    // The digest follows the serialized bytes.
    CHECK(resultDigest({full}) == resultDigest({full}));
    CHECK(resultDigest({full}) != resultDigest({cut}));
}

} // anonymous namespace

int
main()
{
    testMetricArithmetic();
    testSeedingDecorator();
    testCycleCapCountsAsFailed();
    if (failures) {
        std::fprintf(stderr, "bench_tests: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("bench_tests: all checks passed\n");
    return 0;
}
