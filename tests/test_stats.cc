/** @file Unit tests for src/stats: stats tree, occupancy hist, tables. */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/occupancy_hist.hh"
#include "stats/stat.hh"
#include "stats/table.hh"

using namespace bwsim;
using namespace bwsim::stats;

TEST(Stat, ScalarBasics)
{
    Group g("g");
    Scalar s(&g, "count", "a counter");
    EXPECT_EQ(s.get(), 0u);
    ++s;
    s += 5;
    EXPECT_EQ(s.get(), 6u);
    EXPECT_DOUBLE_EQ(s.value(), 6.0);
    s.reset();
    EXPECT_EQ(s.get(), 0u);
}

TEST(Stat, AverageBasics)
{
    Group g("g");
    Average a(&g, "avg", "an average");
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    a.sample(10);
    a.sample(20);
    EXPECT_DOUBLE_EQ(a.value(), 15.0);
    EXPECT_EQ(a.samples(), 2u);
}

TEST(Stat, DistributionBuckets)
{
    Group g("g");
    Distribution d(&g, "dist", "a distribution", 0, 100, 10);
    d.sample(5);   // bucket 0
    d.sample(95);  // bucket 9
    d.sample(-50); // clamped to bucket 0
    d.sample(500); // clamped to bucket 9
    EXPECT_EQ(d.bucketCount(0), 2u);
    EXPECT_EQ(d.bucketCount(9), 2u);
    EXPECT_EQ(d.samples(), 4u);
}

TEST(Stat, GroupTreeDump)
{
    Group root("gpu");
    Group child("core0", &root);
    Scalar s1(&root, "cycles", "total cycles");
    Scalar s2(&child, "insts", "instructions");
    ++s1;
    s2 += 3;
    std::ostringstream os;
    root.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("gpu.cycles"), std::string::npos);
    EXPECT_NE(out.find("gpu.core0.insts"), std::string::npos);
    root.resetAll();
    EXPECT_EQ(s1.get(), 0u);
    EXPECT_EQ(s2.get(), 0u);
}

TEST(Stat, BoundScalarIsAWriteThroughView)
{
    Group g("g");
    std::uint64_t counter = 0;
    BoundScalar s(&g, "bound", "a view over a plain counter", &counter);
    counter = 41;
    EXPECT_EQ(s.get(), 41u);
    EXPECT_DOUBLE_EQ(s.value(), 41.0);
    s.reset();
    EXPECT_EQ(counter, 0u); // reset() reaches the component's counter
}

TEST(Stat, BoundValueIsAWriteThroughView)
{
    Group g("g");
    double sum = 0.0;
    BoundValue v(&g, "sum", "a latency sum", &sum);
    sum = 2.5;
    EXPECT_DOUBLE_EQ(v.value(), 2.5);
    v.reset();
    EXPECT_DOUBLE_EQ(sum, 0.0);
}

TEST(Stat, BoundVectorSumsAndLabels)
{
    Group g("g");
    std::uint64_t causes[3] = {5, 0, 7};
    BoundVector v(&g, "stalls", "by cause", causes, 3, {"a", "b", "c"});
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.at(0), 5u);
    EXPECT_EQ(v.at(2), 7u);
    EXPECT_EQ(v.label(1), "b");
    EXPECT_EQ(v.total(), 12u);
    EXPECT_DOUBLE_EQ(v.value(), 12.0);
    EXPECT_NE(v.render().find("a=5"), std::string::npos);
    v.reset();
    EXPECT_EQ(causes[0] + causes[1] + causes[2], 0u);
}

TEST(Stat, FormulaComputesOnDemand)
{
    Group g("g");
    std::uint64_t n = 2;
    Formula f(&g, "double_n", "derived", [&n] { return 2.0 * n; });
    EXPECT_DOUBLE_EQ(f.value(), 4.0);
    n = 5;
    EXPECT_DOUBLE_EQ(f.value(), 10.0);
    f.reset(); // no-op
    EXPECT_DOUBLE_EQ(f.value(), 10.0);
}

TEST(Stat, OwnedChildrenAndBindFactories)
{
    Group root("gpu");
    std::uint64_t c0 = 3, c1 = 4;
    Group &core0 = root.createChild("core0");
    core0.bindScalar("insts", "issued", c0);
    Group &core1 = root.createChild("core1");
    core1.bindScalar("insts", "issued", c1);

    ASSERT_EQ(root.children().size(), 2u);
    EXPECT_EQ(root.child("core1"), root.children()[1]);
    EXPECT_EQ(root.child("nope"), nullptr);
    ASSERT_NE(core0.stat("insts"), nullptr);
    EXPECT_DOUBLE_EQ(core0.stat("insts")->value(), 3.0);

    root.resetAll();
    EXPECT_EQ(c0 + c1, 0u);
}

TEST(Stat, FindGroupsMatchesPrefixPatternsInOrder)
{
    Group root("gpu");
    std::uint64_t a = 1, b = 2, d = 10, e = 20;
    double lat = 0.5;
    for (int i = 0; i < 2; ++i) {
        Group &core = root.createChild("core" + std::to_string(i));
        core.bindScalar("insts", "issued", i == 0 ? a : b);
        core.bindValue("lat", "latency", lat);
        Group &l1 = core.createChild("l1d");
        std::uint64_t &v = i == 0 ? d : e;
        l1.bindScalar("accesses", "presented", v);
    }
    root.createChild("icnt");

    auto cores = findGroups(root, "core*");
    ASSERT_EQ(cores.size(), 2u);
    EXPECT_EQ(cores[0]->name(), "core0");
    EXPECT_EQ(cores[1]->name(), "core1");
    EXPECT_EQ(sumScalar(cores, "insts"), 3u);
    EXPECT_DOUBLE_EQ(sumValue(cores, "lat"), 1.0);

    auto l1s = findGroups(root, "core*.l1d");
    ASSERT_EQ(l1s.size(), 2u);
    EXPECT_EQ(sumScalar(l1s, "accesses"), 30u);

    EXPECT_EQ(findGroups(root, "icnt").size(), 1u);
    EXPECT_TRUE(findGroups(root, "part*").empty());
    EXPECT_TRUE(findGroups(root, "core0.l2").empty());
}

TEST(Stat, SumVectorAtAggregatesPerElement)
{
    Group root("gpu");
    std::uint64_t v0[2] = {1, 2}, v1[2] = {10, 20};
    root.createChild("p0").bindVector("occ", "bands", v0, 2, {"x", "y"});
    root.createChild("p1").bindVector("occ", "bands", v1, 2, {"x", "y"});
    auto parts = findGroups(root, "p*");
    EXPECT_EQ(sumVectorAt(parts, "occ", 0), 11u);
    EXPECT_EQ(sumVectorAt(parts, "occ", 1), 22u);
}

TEST(OccupancyHist, RegistersBandVectorAndLifetime)
{
    Group g("part0");
    OccupancyHist h;
    h.sample(8, 8);
    h.sample(1, 8);
    h.registerStats(g, "occ", "queue occupancy");
    const auto *vec = dynamic_cast<const BoundVector *>(g.stat("occ"));
    ASSERT_NE(vec, nullptr);
    EXPECT_EQ(vec->size(), numOccBands);
    EXPECT_EQ(vec->at(static_cast<unsigned>(OccBand::Full)), 1u);
    EXPECT_EQ(vec->label(static_cast<unsigned>(OccBand::Full)), "100%");
    const auto *life =
        dynamic_cast<const BoundScalar *>(g.stat("occ_lifetime"));
    ASSERT_NE(life, nullptr);
    EXPECT_EQ(life->get(), 2u);
    g.resetAll();
    EXPECT_EQ(h.usageLifetime(), 0u);
}

TEST(OccupancyHist, BandClassification)
{
    EXPECT_EQ(OccupancyHist::classify(1, 8), OccBand::UnderQuarter);
    EXPECT_EQ(OccupancyHist::classify(2, 8), OccBand::UnderHalf);
    EXPECT_EQ(OccupancyHist::classify(4, 8), OccBand::UnderThreeQ);
    EXPECT_EQ(OccupancyHist::classify(6, 8), OccBand::UnderFull);
    EXPECT_EQ(OccupancyHist::classify(7, 8), OccBand::UnderFull);
    EXPECT_EQ(OccupancyHist::classify(8, 8), OccBand::Full);
}

TEST(OccupancyHist, IntegerBandsMatchDoubleFractionExhaustively)
{
    // The band edges used to be tested on a double occ/cap; the
    // integer comparisons must agree on every queue up to 512 deep.
    auto by_double = [](std::size_t occ, std::size_t cap) {
        if (occ == cap)
            return OccBand::Full;
        double frac = static_cast<double>(occ) / static_cast<double>(cap);
        if (frac < 0.25)
            return OccBand::UnderQuarter;
        if (frac < 0.50)
            return OccBand::UnderHalf;
        if (frac < 0.75)
            return OccBand::UnderThreeQ;
        return OccBand::UnderFull;
    };
    for (std::size_t cap = 1; cap <= 512; ++cap)
        for (std::size_t occ = 1; occ <= cap; ++occ)
            ASSERT_EQ(OccupancyHist::classify(occ, cap), by_double(occ, cap))
                << occ << "/" << cap;
}

TEST(OccupancyHist, EmptyCyclesIgnored)
{
    OccupancyHist h;
    h.sample(0, 8);
    EXPECT_EQ(h.usageLifetime(), 0u);
    h.sample(8, 8);
    EXPECT_EQ(h.usageLifetime(), 1u);
    EXPECT_DOUBLE_EQ(h.fraction(OccBand::Full), 1.0);
}

TEST(OccupancyHist, FractionsNormalized)
{
    OccupancyHist h;
    for (std::size_t occ = 1; occ <= 16; ++occ)
        h.sample(occ, 16);
    double total = 0;
    for (unsigned b = 0; b < numOccBands; ++b)
        total += h.fraction(static_cast<OccBand>(b));
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(OccupancyHist, Merge)
{
    OccupancyHist a, b;
    a.sample(8, 8);
    b.sample(1, 8);
    b.sample(1, 8);
    a.merge(b);
    EXPECT_EQ(a.usageLifetime(), 3u);
    EXPECT_NEAR(a.fraction(OccBand::Full), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(a.fraction(OccBand::UnderQuarter), 2.0 / 3.0, 1e-12);
}

TEST(OccupancyHist, Labels)
{
    EXPECT_STREQ(occBandLabel(OccBand::UnderQuarter), "(0-25%)");
    EXPECT_STREQ(occBandLabel(OccBand::Full), "100%");
}

TEST(TextTable, CellsAndRender)
{
    TextTable t({"name", "value"});
    t.newRow().add("alpha").addNum(1.5, 2);
    t.newRow().add("b").addInt(42);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.cell(0, 0), "alpha");
    EXPECT_EQ(t.cell(0, 1), "1.50");
    EXPECT_EQ(t.cell(1, 1), "42");

    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
}

TEST(TextTable, Percentage)
{
    TextTable t({"x"});
    t.newRow().addPct(0.625, 1);
    EXPECT_EQ(t.cell(0, 0), "62.5%");
}

TEST(TextTable, CsvQuoting)
{
    TextTable t({"a", "b"});
    t.newRow().add("plain").add("with,comma");
    t.newRow().add("with\"quote").add("x");
    std::ostringstream os;
    t.printCsv(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TextTable, TsvEmitsTabSeparatedGrid)
{
    TextTable t({"benchmark", "ipc"});
    t.newRow().add("mm").addNum(1.25, 2);
    t.newRow().add("nn").addNum(0.75, 2);
    std::ostringstream os;
    t.printTsv(os);
    EXPECT_EQ(os.str(), "benchmark\tipc\nmm\t1.25\nnn\t0.75\n");
}

TEST(TextTable, TsvEscapesDelimitersInsideCells)
{
    // Hostile cell content must neither corrupt the grid (extra
    // tabs/rows) nor be silently lossy: the backslash escapes
    // round-trip, symmetric with printCsv's quoting.
    TextTable t({"a", "b"});
    t.newRow().add("with\ttab").add("with\nnewline");
    t.newRow().add("back\\slash").add("cr\rcell");
    std::ostringstream os;
    t.printTsv(os);
    EXPECT_EQ(os.str(), "a\tb\n"
                        "with\\ttab\twith\\nnewline\n"
                        "back\\\\slash\tcr\\rcell\n");
}

TEST(TextTable, TsvHostileCellsRoundTrip)
{
    const std::vector<std::string> cells{"tab\there", "line\nbreak",
                                         "slash\\t", "cr\rlf\n\t"};
    TextTable t({"c0", "c1", "c2", "c3"});
    t.newRow();
    for (const auto &c : cells)
        t.add(c);
    std::ostringstream os;
    t.printTsv(os);

    // Parse it back the way the golden suite / a script would: split
    // lines, split tabs, unescape. Every row must have exactly 4
    // cells and decode to the original bytes.
    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(bool(std::getline(in, line))); // header
    ASSERT_TRUE(bool(std::getline(in, line))); // data row
    std::vector<std::string> fields;
    std::string field;
    std::istringstream ls(line);
    while (std::getline(ls, field, '\t'))
        fields.push_back(field);
    ASSERT_EQ(fields.size(), 4u);
    auto unescape = [](const std::string &s) {
        std::string out;
        for (std::size_t i = 0; i < s.size(); ++i) {
            if (s[i] != '\\' || i + 1 == s.size()) {
                out += s[i];
                continue;
            }
            switch (s[++i]) {
              case 't': out += '\t'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case '\\': out += '\\'; break;
              default: out += s[i]; break;
            }
        }
        return out;
    };
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(unescape(fields[i]), cells[i]) << "cell " << i;
}

TEST(TextTable, JsonEmitsOneObjectPerTable)
{
    TextTable t({"benchmark", "ipc"});
    t.newRow().add("mm").addNum(1.25, 2);
    t.newRow().add("nn").addNum(0.75, 2);
    std::ostringstream os;
    t.printJson(os);
    EXPECT_EQ(os.str(),
              "{\"headers\":[\"benchmark\",\"ipc\"],"
              "\"rows\":[{\"benchmark\":\"mm\",\"ipc\":\"1.25\"},"
              "{\"benchmark\":\"nn\",\"ipc\":\"0.75\"}]}\n");
}

TEST(TextTable, JsonEscapesSpecialCharacters)
{
    TextTable t({"a"});
    t.newRow().add("q\"b\\c\nd\te");
    std::ostringstream os;
    t.printJson(os);
    EXPECT_EQ(os.str(),
              "{\"headers\":[\"a\"],"
              "\"rows\":[{\"a\":\"q\\\"b\\\\c\\nd\\te\"}]}\n");
}
