/** @file Unit tests for the MSHR table. */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "cache/mshr.hh"
#include "mem/mem_fetch.hh"

using namespace bwsim;

TEST(Mshr, AllocateAndFill)
{
    MshrTable m(4, 8);
    EXPECT_FALSE(m.hasEntry(0x100));
    m.allocate(0x100);
    EXPECT_TRUE(m.hasEntry(0x100));
    m.addWaiter(0x100, MshrWaiter{3, 7, nullptr, false});
    EXPECT_EQ(m.waiterCount(0x100), 1u);

    std::vector<MshrWaiter> out;
    m.fill(0x100, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].warpId, 3);
    EXPECT_EQ(out[0].slotId, 7);
    EXPECT_FALSE(m.hasEntry(0x100));
    EXPECT_EQ(m.size(), 0u);
}

TEST(Mshr, MergeOrderPreserved)
{
    MshrTable m(4, 8);
    m.allocate(0x100);
    for (int i = 0; i < 5; ++i)
        m.addWaiter(0x100, MshrWaiter{i, i, nullptr, false});
    std::vector<MshrWaiter> out;
    m.fill(0x100, out);
    ASSERT_EQ(out.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[i].warpId, i);
}

TEST(Mshr, MergeLimit)
{
    MshrTable m(4, 2);
    m.allocate(0x100);
    m.addWaiter(0x100, MshrWaiter{});
    EXPECT_TRUE(m.canMerge(0x100));
    m.addWaiter(0x100, MshrWaiter{});
    EXPECT_FALSE(m.canMerge(0x100));
}

TEST(Mshr, CapacityLimit)
{
    MshrTable m(2, 8);
    m.allocate(0x100);
    m.allocate(0x200);
    EXPECT_TRUE(m.full());
    EXPECT_TRUE(m.wouldAllocate(0x300));
    EXPECT_FALSE(m.canMerge(0x300));
    // Existing entries still merge when the table is full.
    EXPECT_TRUE(m.canMerge(0x100));
}

TEST(Mshr, DirtyOnFill)
{
    MshrTable m(4, 8);
    m.allocate(0x100);
    EXPECT_FALSE(m.isDirtyOnFill(0x100));
    m.markDirtyOnFill(0x100);
    EXPECT_TRUE(m.isDirtyOnFill(0x100));
    // Another entry is unaffected.
    m.allocate(0x200);
    EXPECT_FALSE(m.isDirtyOnFill(0x200));
}

TEST(Mshr, TotalWaiters)
{
    MshrTable m(4, 8);
    m.allocate(0x100);
    m.allocate(0x200);
    m.addWaiter(0x100, MshrWaiter{});
    m.addWaiter(0x200, MshrWaiter{});
    m.addWaiter(0x200, MshrWaiter{});
    EXPECT_EQ(m.totalWaiters(), 3u);
}

TEST(Mshr, IndependentLines)
{
    MshrTable m(8, 4);
    for (Addr a = 0; a < 8 * 128; a += 128)
        m.allocate(a);
    EXPECT_EQ(m.size(), 8u);
    std::vector<MshrWaiter> out;
    m.fill(3 * 128, out);
    EXPECT_EQ(m.size(), 7u);
    EXPECT_FALSE(m.hasEntry(3 * 128));
    EXPECT_TRUE(m.hasEntry(4 * 128));
}

TEST(Mshr, MergeOnFullTable)
{
    // A full table must still merge secondary misses into existing
    // entries: merging needs no new entry, only a waiter slot.
    MshrTable m(2, 4);
    m.allocate(0x100);
    m.allocate(0x200);
    ASSERT_TRUE(m.full());

    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(m.canMerge(0x100));
        m.addWaiter(0x100, MshrWaiter{i, i, nullptr, false});
    }
    EXPECT_EQ(m.waiterCount(0x100), 3u);
    EXPECT_TRUE(m.full());
    // The fourth waiter exhausts the merge budget, not the table.
    m.addWaiter(0x100, MshrWaiter{3, 3, nullptr, false});
    EXPECT_FALSE(m.canMerge(0x100));
    EXPECT_TRUE(m.canMerge(0x200));

    std::vector<MshrWaiter> out;
    m.fill(0x100, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_FALSE(m.full());
    EXPECT_TRUE(m.wouldAllocate(0x300));
}

TEST(Mshr, SecondaryMissOrderingAcrossLines)
{
    // Interleaved secondary misses on two lines: each fill delivers
    // only its own line's waiters, in arrival (FIFO) order.
    MshrTable m(4, 8);
    m.allocate(0x100);
    m.allocate(0x200);
    for (int i = 0; i < 3; ++i) {
        m.addWaiter(0x100, MshrWaiter{10 + i, i, nullptr, false});
        m.addWaiter(0x200, MshrWaiter{20 + i, i, nullptr, false});
    }

    std::vector<MshrWaiter> out;
    m.fill(0x200, out);
    ASSERT_EQ(out.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(out[i].warpId, 20 + i);

    // fill() appends: line 0x100's waiters follow, again in order.
    m.fill(0x100, out);
    ASSERT_EQ(out.size(), 6u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(out[3 + i].warpId, 10 + i);
}

TEST(Mshr, WaiterBookkeepingAcrossFillCycles)
{
    // size() counts in-flight lines and totalWaiters() their merged
    // accesses; both must return to zero after every fill completes,
    // and an entry slot freed by fill() must be reusable at once.
    MshrTable m(2, 4);
    for (int round = 0; round < 3; ++round) {
        Addr a = 0x1000 * (round + 1);
        m.allocate(a);
        m.allocate(a + 0x80);
        m.addWaiter(a, MshrWaiter{round, 0, nullptr, false});
        m.addWaiter(a + 0x80, MshrWaiter{round, 1, nullptr, false});
        m.addWaiter(a + 0x80, MshrWaiter{round, 2, nullptr, false});
        EXPECT_EQ(m.size(), 2u);
        EXPECT_EQ(m.totalWaiters(), 3u);

        std::vector<MshrWaiter> out;
        m.fill(a, out);
        EXPECT_EQ(m.size(), 1u);
        EXPECT_EQ(m.totalWaiters(), 2u);
        m.fill(a + 0x80, out);
        EXPECT_EQ(m.size(), 0u);
        EXPECT_EQ(m.totalWaiters(), 0u);
        EXPECT_EQ(out.size(), 3u);
    }
}

TEST(Mshr, InstFetchWaiterFlagSurvivesMerge)
{
    MshrTable m(2, 4);
    m.allocate(0x100);
    m.addWaiter(0x100, MshrWaiter{0, 0, nullptr, true});
    m.addWaiter(0x100, MshrWaiter{1, 0, nullptr, false});
    std::vector<MshrWaiter> out;
    m.fill(0x100, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].isInstFetch);
    EXPECT_FALSE(out[1].isInstFetch);
}

namespace
{

/** Line addresses (128-byte aligned) whose probes start at @p bucket. */
std::vector<Addr>
keysHomedAt(const MshrTable &m, std::size_t bucket, int n)
{
    std::vector<Addr> keys;
    for (Addr a = 0x80; int(keys.size()) < n; a += 0x80)
        if (m.homeBucket(a) == bucket)
            keys.push_back(a);
    return keys;
}

} // namespace

TEST(Mshr, DeleteInsideProbeChainKeepsLaterMembersReachable)
{
    MshrTable m(4, 8);
    ASSERT_EQ(m.numBuckets(), 8u);
    // Home the chain on the last bucket so it also wraps to bucket 0.
    const std::vector<Addr> k = keysHomedAt(m, m.numBuckets() - 1, 4);
    for (Addr a : k) {
        m.allocate(a);
        m.addWaiter(a, MshrWaiter{int(a >> 7), 0, nullptr, false});
    }
    EXPECT_TRUE(m.full());
    std::vector<MshrWaiter> out;
    m.fill(k[1], out); // a middle member of the chain
    EXPECT_FALSE(m.hasEntry(k[1]));
    for (Addr a : {k[0], k[2], k[3]}) {
        EXPECT_TRUE(m.hasEntry(a));
        EXPECT_EQ(m.waiterCount(a), 1u);
    }
    m.fill(k[0], out); // the chain's head
    EXPECT_TRUE(m.hasEntry(k[2]));
    EXPECT_TRUE(m.hasEntry(k[3]));
    m.allocate(k[1]); // re-inserts behind the shifted survivors
    m.fill(k[3], out);
    EXPECT_TRUE(m.hasEntry(k[1]));
    EXPECT_TRUE(m.hasEntry(k[2]));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].warpId, int(k[1] >> 7));
    EXPECT_EQ(out[1].warpId, int(k[0] >> 7));
    EXPECT_EQ(out[2].warpId, int(k[3] >> 7));
}

/**
 * Seeded random allocate / merge / markDirty / fill sequences against
 * a std::map reference model. The keys crowd two adjacent home
 * buckets, so probe chains collide, interleave and wrap, and fills
 * delete from their middles.
 */
TEST(Mshr, MatchesMapReferenceOnCollidingKeys)
{
    struct RefEntry
    {
        std::vector<int> waiters;
        bool dirty = false;
    };
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const std::uint32_t entries = 3 + seed % 6;
        const std::uint32_t merge = 1 + seed % 4;
        MshrTable m(entries, merge);
        const std::size_t home = seed % m.numBuckets();
        std::vector<Addr> keys = keysHomedAt(m, home, 6);
        for (Addr a : keysHomedAt(m, (home + 1) % m.numBuckets(), 4))
            keys.push_back(a);
        std::map<Addr, RefEntry> ref;
        std::mt19937_64 rng(seed);
        int next_waiter = 0;
        for (int step = 0; step < 3000; ++step) {
            const Addr a = keys[rng() % keys.size()];
            const auto it = ref.find(a);
            switch (rng() % 4) {
              case 0: // allocate a fresh entry, with its first waiter
                if (it == ref.end() && ref.size() < entries) {
                    m.allocate(a);
                    m.addWaiter(a, MshrWaiter{next_waiter, 0, nullptr,
                                              false});
                    ref[a].waiters.push_back(next_waiter++);
                }
                break;
              case 1: // merge
                if (it != ref.end() && it->second.waiters.size() < merge) {
                    m.addWaiter(a, MshrWaiter{next_waiter, 0, nullptr,
                                              false});
                    it->second.waiters.push_back(next_waiter++);
                }
                break;
              case 2:
                if (it != ref.end()) {
                    m.markDirtyOnFill(a);
                    it->second.dirty = true;
                }
                break;
              default:
                if (it != ref.end()) {
                    std::vector<MshrWaiter> out{MshrWaiter{-7, 0, nullptr,
                                                           false}};
                    m.fill(a, out); // appends after what is there
                    ASSERT_EQ(out.size(), it->second.waiters.size() + 1);
                    EXPECT_EQ(out[0].warpId, -7);
                    for (std::size_t i = 0; i < it->second.waiters.size();
                         ++i)
                        EXPECT_EQ(out[i + 1].warpId, it->second.waiters[i])
                            << "seed " << seed << " step " << step;
                    ref.erase(it);
                }
                break;
            }
            ASSERT_EQ(m.size(), ref.size()) << "seed " << seed;
            EXPECT_EQ(m.full(), ref.size() >= entries);
            std::size_t total = 0;
            for (Addr k : keys) {
                const auto r = ref.find(k);
                const bool has = r != ref.end();
                ASSERT_EQ(m.hasEntry(k), has)
                    << "seed " << seed << " step " << step << " key 0x"
                    << std::hex << k;
                EXPECT_EQ(m.wouldAllocate(k), !has);
                EXPECT_EQ(m.waiterCount(k), has ? r->second.waiters.size()
                                                : 0u);
                EXPECT_EQ(m.canMerge(k),
                          has && r->second.waiters.size() < merge);
                EXPECT_EQ(m.isDirtyOnFill(k), has && r->second.dirty);
                if (has)
                    total += r->second.waiters.size();
            }
            EXPECT_EQ(m.totalWaiters(), total);
        }
    }
}
