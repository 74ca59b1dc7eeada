/**
 * @file
 * Bounded queues and delay pipes: the building blocks of every buffer
 * in the modelled memory system (Fig. 2 of the paper).
 *
 * BoundedQueue models a finite FIFO whose fullness is what creates
 * back-pressure. TimedQueue additionally enforces a minimum residency
 * (pipeline latency) before an entry may be popped. Both expose their
 * occupancy so congestion monitors can build usage-lifetime histograms.
 *
 * All of them keep their entries in a RingBuffer: one power-of-two
 * circular array that is allocated once and then reused, so pushing
 * and popping the millions of packets a congested run moves never
 * touches the heap.
 */

#ifndef BWSIM_SIM_QUEUE_HH
#define BWSIM_SIM_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace bwsim
{

/**
 * A FIFO over a power-of-two circular array. The array doubles when a
 * push finds it full and never shrinks; popped slots keep their
 * moved-from values until overwritten (so element types with heap
 * storage, such as vectors, keep their capacity for reuse).
 */
template <typename T>
class RingBuffer
{
  public:
    /** Preallocate room for @p min_capacity entries (0: grow lazily). */
    explicit RingBuffer(std::size_t min_capacity = 0)
    {
        if (min_capacity)
            resize(ceilPow2(min_capacity));
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    /** Entries the current array holds before it must grow. */
    std::size_t slots() const { return buf.size(); }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }
    T &back() { return buf[(head + count - 1) & mask]; }

    void
    push_back(T v)
    {
        if (count == buf.size())
            resize(buf.empty() ? 4 : 2 * buf.size());
        buf[(head + count) & mask] = std::move(v);
        ++count;
    }

    void
    pop_front()
    {
        head = (head + 1) & mask;
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    static std::size_t
    ceilPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    /** Re-home the live entries at index 0 of a @p n-slot array. */
    void
    resize(std::size_t n)
    {
        std::vector<T> next(n);
        for (std::size_t i = 0; i < count; ++i)
            next[i] = std::move(buf[(head + i) & mask]);
        buf = std::move(next);
        head = 0;
        mask = n - 1;
    }

    std::vector<T> buf;
    std::size_t head = 0;
    std::size_t count = 0;
    std::size_t mask = 0;
};

/**
 * Ring slots a bounded queue preallocates: its capacity, up to a cap
 * so that a huge configured capacity costs memory only as it fills.
 */
inline std::size_t
boundedQueuePrealloc(std::size_t capacity)
{
    return std::min<std::size_t>(capacity, 4096);
}

/** A finite FIFO; push fails (returns false) when full. */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity)
        : cap(capacity), q(boundedQueuePrealloc(capacity))
    {
        bwsim_assert(capacity > 0, "queue capacity must be positive");
    }

    bool full() const { return q.size() >= cap; }
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    std::size_t capacity() const { return cap; }

    /** Space left before the queue back-pressures. */
    std::size_t free() const { return cap - q.size(); }

    bool
    push(T v)
    {
        if (full())
            return false;
        q.push_back(std::move(v));
        return true;
    }

    T &front() { return q.front(); }
    const T &front() const { return q.front(); }

    T
    pop()
    {
        bwsim_assert(!q.empty(), "pop from empty queue");
        T v = std::move(q.front());
        q.pop_front();
        return v;
    }

  private:
    std::size_t cap;
    RingBuffer<T> q;
};

/**
 * A finite FIFO whose entries become poppable only once the owning
 * domain's cycle reaches their ready time. Models a fixed-latency
 * pipeline stage feeding a bounded buffer.
 */
template <typename T>
class TimedQueue
{
  public:
    explicit TimedQueue(std::size_t capacity)
        : cap(capacity), q(boundedQueuePrealloc(capacity))
    {
        bwsim_assert(capacity > 0, "queue capacity must be positive");
    }

    bool full() const { return q.size() >= cap; }
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    std::size_t capacity() const { return cap; }

    bool
    push(T v, Cycle ready)
    {
        if (full())
            return false;
        // FIFO order dominates: an entry can never be popped before its
        // predecessor, so clamping ready times to be monotone preserves
        // semantics while allowing out-of-order push deadlines.
        if (!q.empty() && q.back().second > ready)
            ready = q.back().second;
        q.push_back({std::move(v), ready});
        return true;
    }

    /** True if the head entry exists and is ready at @p now. */
    bool
    ready(Cycle now) const
    {
        return !q.empty() && q.front().second <= now;
    }

    T &front() { return q.front().first; }
    const T &front() const { return q.front().first; }
    Cycle frontReady() const { return q.front().second; }

    T
    pop()
    {
        bwsim_assert(!q.empty(), "pop from empty queue");
        T v = std::move(q.front().first);
        q.pop_front();
        return v;
    }

  private:
    std::size_t cap;
    RingBuffer<std::pair<T, Cycle>> q;
};

/** An unbounded delay pipe: entries emerge after a per-entry latency. */
template <typename T>
class DelayPipe
{
  public:
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }

    void
    push(T v, Cycle ready)
    {
        // See TimedQueue::push: clamp to preserve FIFO pop order.
        if (!q.empty() && q.back().second > ready)
            ready = q.back().second;
        q.push_back({std::move(v), ready});
    }

    bool
    ready(Cycle now) const
    {
        return !q.empty() && q.front().second <= now;
    }

    T &front() { return q.front().first; }
    /** Ready time of the head entry (requires non-empty). */
    Cycle frontReady() const { return q.front().second; }

    T
    pop()
    {
        bwsim_assert(!q.empty(), "pop from empty pipe");
        T v = std::move(q.front().first);
        q.pop_front();
        return v;
    }

  private:
    RingBuffer<std::pair<T, Cycle>> q;
};

} // namespace bwsim

#endif // BWSIM_SIM_QUEUE_HH
