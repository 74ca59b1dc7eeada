/** @file Unit tests for src/sim: clock domains and queue primitives. */

#include <gtest/gtest.h>

#include "sim/clock.hh"
#include "sim/queue.hh"

using namespace bwsim;

TEST(Clock, DomainRatios)
{
    MultiClock mc;
    int core_ticks = 0, icnt_ticks = 0;
    mc.addDomain("core", 1400.0, [&] { ++core_ticks; });
    mc.addDomain("icnt", 700.0, [&] { ++icnt_ticks; });
    // Advance enough steps for 1400 core cycles.
    while (core_ticks < 1400)
        mc.step();
    // 700 MHz runs at exactly half the rate of 1400 MHz.
    EXPECT_NEAR(icnt_ticks, 700, 1);
}

TEST(Clock, ThreeDomainRates)
{
    MultiClock mc;
    std::uint64_t n_core = 0, n_icnt = 0, n_dram = 0;
    mc.addDomain("dram", 924.0, [&] { ++n_dram; });
    mc.addDomain("icnt", 700.0, [&] { ++n_icnt; });
    mc.addDomain("core", 1400.0, [&] { ++n_core; });
    for (int i = 0; i < 100000; ++i)
        mc.step();
    double t = mc.nowPs();
    EXPECT_NEAR(double(n_core) / (t * 1400e-6), 1.0, 0.01);
    EXPECT_NEAR(double(n_icnt) / (t * 700e-6), 1.0, 0.01);
    EXPECT_NEAR(double(n_dram) / (t * 924e-6), 1.0, 0.01);
}

TEST(Clock, IntraInstantOrder)
{
    // Domains due at the same instant tick in registration order.
    MultiClock mc;
    std::vector<int> order;
    mc.addDomain("first", 1000.0, [&] { order.push_back(1); });
    mc.addDomain("second", 1000.0, [&] { order.push_back(2); });
    mc.step();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

TEST(Clock, FrequencyChange)
{
    MultiClock mc;
    int ticks = 0;
    std::size_t d = mc.addDomain("core", 1000.0, [&] { ++ticks; });
    mc.step();
    mc.domain(d).setFreqMhz(2000.0);
    EXPECT_DOUBLE_EQ(mc.domain(d).periodPs(), 500.0);
}

TEST(BoundedQueue, CapacityAndOrder)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(3));
    EXPECT_EQ(q.free(), 0u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_TRUE(q.empty());
}

TEST(TimedQueue, ReadyGating)
{
    TimedQueue<int> q(4);
    EXPECT_TRUE(q.push(1, 10));
    EXPECT_FALSE(q.ready(9));
    EXPECT_TRUE(q.ready(10));
    EXPECT_EQ(q.pop(), 1);
}

TEST(TimedQueue, MonotoneClamp)
{
    // FIFO order dominates: a later push with an earlier deadline is
    // clamped to its predecessor's deadline.
    TimedQueue<int> q(4);
    q.push(1, 100);
    q.push(2, 50);
    EXPECT_FALSE(q.ready(60));
    EXPECT_TRUE(q.ready(100));
    q.pop();
    EXPECT_TRUE(q.ready(100)); // second entry clamped to 100
}

TEST(TimedQueue, CapacityEnforced)
{
    TimedQueue<int> q(1);
    EXPECT_TRUE(q.push(1, 0));
    EXPECT_FALSE(q.push(2, 0));
    EXPECT_TRUE(q.full());
}

TEST(DelayPipe, FifoWithDelays)
{
    DelayPipe<int> p;
    p.push(1, 5);
    p.push(2, 6);
    EXPECT_FALSE(p.ready(4));
    EXPECT_TRUE(p.ready(5));
    EXPECT_EQ(p.pop(), 1);
    EXPECT_FALSE(p.ready(5));
    EXPECT_TRUE(p.ready(6));
    EXPECT_EQ(p.pop(), 2);
    EXPECT_TRUE(p.empty());
}

TEST(RingBuffer, FifoAcrossManyWrapArounds)
{
    // Occupancy cycles between 1 and 3 in a 4-slot ring, so the head
    // wraps hundreds of times without the array ever growing.
    RingBuffer<int> r(3);
    ASSERT_EQ(r.slots(), 4u);
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 500; ++round) {
        while (r.size() < 3)
            r.push_back(next_in++);
        EXPECT_EQ(r.back(), next_in - 1);
        while (r.size() > 1) {
            EXPECT_EQ(r.front(), next_out++);
            r.pop_front();
        }
    }
    EXPECT_EQ(r.slots(), 4u);
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(RingBuffer, GrowsWithWrappedHeadAndKeepsOrder)
{
    RingBuffer<int> r(4);
    for (int i = 0; i < 4; ++i)
        r.push_back(i);
    r.pop_front();
    r.pop_front();
    r.push_back(4);
    r.push_back(5); // live entries 2..5 now wrap past the array end
    r.push_back(6); // full and wrapped: doubles
    EXPECT_EQ(r.slots(), 8u);
    for (int want = 2; want <= 6; ++want) {
        ASSERT_FALSE(r.empty());
        EXPECT_EQ(r.front(), want);
        r.pop_front();
    }
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.slots(), 8u); // never shrinks
}

TEST(BoundedQueue, FifoAcrossManyWrapArounds)
{
    BoundedQueue<int> q(3);
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 500; ++round) {
        while (q.push(next_in))
            ++next_in;
        EXPECT_TRUE(q.full());
        EXPECT_EQ(q.size(), 3u);
        EXPECT_EQ(q.pop(), next_out++);
        if (round % 3 == 0) {
            EXPECT_EQ(q.pop(), next_out++);
        }
    }
    while (!q.empty())
        EXPECT_EQ(q.pop(), next_out++);
    EXPECT_EQ(next_out, next_in);
}

TEST(BoundedQueue, RefusesPushAtCapacityWithSpareRingSlots)
{
    // A capacity of 5 rounds the ring up to 8 slots: the capacity, not
    // the ring, must stop the sixth push, before and after wrapping.
    BoundedQueue<int> q(5);
    for (int round = 0; round < 20; ++round) {
        while (!q.full())
            EXPECT_TRUE(q.push(round));
        EXPECT_EQ(q.size(), 5u);
        EXPECT_EQ(q.free(), 0u);
        EXPECT_FALSE(q.push(-1));
        EXPECT_EQ(q.size(), 5u);
        for (int i = 0; i < 3; ++i)
            EXPECT_NE(q.pop(), -1);
    }
}

TEST(TimedQueue, FifoAcrossManyWrapArounds)
{
    // One push per cycle at a 2-cycle latency keeps 2-3 entries in a
    // 4-slot ring; every entry pops exactly when it matures.
    TimedQueue<int> q(3);
    int next_in = 0, next_out = 0;
    for (Cycle now = 0; now < 1500; ++now) {
        EXPECT_TRUE(q.push(next_in++, now + 2));
        EXPECT_LE(q.size(), 3u);
        if (now >= 2) {
            ASSERT_TRUE(q.ready(now));
            EXPECT_EQ(q.frontReady(), now);
            EXPECT_EQ(q.pop(), next_out++);
        }
        EXPECT_FALSE(q.ready(now));
    }
    EXPECT_EQ(next_in - next_out, 2);
}

TEST(DelayPipe, FifoAcrossManyWrapArounds)
{
    DelayPipe<int> p;
    int next_in = 0, next_out = 0;
    for (Cycle now = 0; now < 2000; ++now) {
        p.push(next_in++, now + 3);
        while (p.ready(now)) {
            EXPECT_LE(p.frontReady(), now);
            EXPECT_EQ(p.pop(), next_out++);
        }
        EXPECT_LE(p.size(), 3u);
    }
    EXPECT_EQ(next_in - next_out, 3);
}

TEST(DelayPipe, GrowsWithWrappedHeadAndKeepsClamp)
{
    // A pipe starts with 4 ring slots. Wrap its head, then push past
    // the array while wrapped, including an entry whose ready time
    // runs backwards: growth must keep FIFO order and the clamp.
    DelayPipe<int> p;
    p.push(0, 10);
    p.push(1, 11);
    p.push(2, 12);
    EXPECT_EQ(p.pop(), 0);
    EXPECT_EQ(p.pop(), 1);
    p.push(3, 20);
    p.push(4, 21);
    p.push(5, 22); // four live entries, wrapped
    p.push(6, 5);  // grows; clamped to its predecessor's 22
    p.push(7, 30);
    p.push(8, 31);
    p.push(9, 32);
    p.push(10, 33); // grows again
    const Cycle want_ready[] = {12, 20, 21, 22, 22, 30, 31, 32, 33};
    for (int i = 0; i < 9; ++i) {
        ASSERT_FALSE(p.empty());
        EXPECT_EQ(p.frontReady(), want_ready[i]) << "entry " << i + 2;
        EXPECT_FALSE(p.ready(want_ready[i] - 1));
        EXPECT_TRUE(p.ready(want_ready[i]));
        EXPECT_EQ(p.pop(), i + 2);
    }
    EXPECT_TRUE(p.empty());
}
