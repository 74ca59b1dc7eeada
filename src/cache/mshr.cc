#include "cache/mshr.hh"

#include "common/intmath.hh"

namespace bwsim
{

MshrTable::MshrTable(std::uint32_t num_entries, std::uint32_t max_merge)
    : entries(num_entries), maxMerge(max_merge)
{
    bwsim_assert(num_entries > 0, "MSHR needs at least one entry");
    bwsim_assert(max_merge > 0, "MSHR merge limit must be positive");
    slots.resize(num_entries);
    freeSlots.reserve(num_entries);
    for (std::uint32_t s = num_entries; s-- > 0;)
        freeSlots.push_back(static_cast<int>(s));
    // At least two buckets per entry keeps the load factor at or
    // below one half, so probe chains stay short.
    const unsigned bits = ceilLog2(2 * std::uint64_t(num_entries));
    index.resize(std::size_t(1) << bits);
    indexMask = index.size() - 1;
    hashShift = 64 - bits;
}

long
MshrTable::findBucket(Addr line_addr) const
{
    for (std::size_t b = homeBucket(line_addr);; b = (b + 1) & indexMask) {
        const Bucket &k = index[b];
        if (k.slot < 0)
            return -1;
        if (k.line == line_addr)
            return static_cast<long>(b);
    }
}

MshrTable::Slot &
MshrTable::slotOf(Addr line_addr, const char *what)
{
    const int s = findSlot(line_addr);
    bwsim_assert(s >= 0, "MSHR %s with no entry for 0x%llx", what,
                 static_cast<unsigned long long>(line_addr));
    return slots[static_cast<std::size_t>(s)];
}

void
MshrTable::allocate(Addr line_addr)
{
    bwsim_assert(!full(), "MSHR allocate on a full table");
    bwsim_assert(!hasEntry(line_addr),
                 "MSHR allocate for already-tracked line 0x%llx",
                 static_cast<unsigned long long>(line_addr));
    std::size_t b = homeBucket(line_addr);
    while (index[b].slot >= 0)
        b = (b + 1) & indexMask;
    index[b].line = line_addr;
    index[b].slot = freeSlots.back();
    freeSlots.pop_back();
}

void
MshrTable::addWaiter(Addr line_addr, const MshrWaiter &waiter)
{
    Slot &s = slotOf(line_addr, "addWaiter");
    bwsim_assert(s.waiters.size() < maxMerge,
                 "MSHR merge past the merge limit");
    s.waiters.push_back(waiter);
}

std::size_t
MshrTable::waiterCount(Addr line_addr) const
{
    const int s = findSlot(line_addr);
    return s < 0 ? 0 : slots[static_cast<std::size_t>(s)].waiters.size();
}

void
MshrTable::markDirtyOnFill(Addr line_addr)
{
    slotOf(line_addr, "markDirtyOnFill").dirtyOnFill = true;
}

bool
MshrTable::isDirtyOnFill(Addr line_addr) const
{
    const int s = findSlot(line_addr);
    return s >= 0 && slots[static_cast<std::size_t>(s)].dirtyOnFill;
}

void
MshrTable::fill(Addr line_addr, std::vector<MshrWaiter> &out)
{
    const long b = findBucket(line_addr);
    bwsim_assert(b >= 0, "MSHR fill with no entry for 0x%llx",
                 static_cast<unsigned long long>(line_addr));
    const int id = index[static_cast<std::size_t>(b)].slot;
    Slot &s = slots[static_cast<std::size_t>(id)];
    out.insert(out.end(), s.waiters.begin(), s.waiters.end());
    s.waiters.clear(); // keeps its capacity for the slot's next entry
    s.dirtyOnFill = false;
    freeSlots.push_back(id);
    eraseBucket(static_cast<std::size_t>(b));
}

void
MshrTable::eraseBucket(std::size_t b)
{
    // Backward-shift deletion: walk the rest of the probe chain and
    // pull back every member whose home bucket does not lie strictly
    // after the hole (cyclically), so no lookup ever stops short at it.
    std::size_t hole = b;
    for (std::size_t j = (b + 1) & indexMask; index[j].slot >= 0;
         j = (j + 1) & indexMask) {
        const std::size_t home = homeBucket(index[j].line);
        if (((j - home) & indexMask) >= ((j - hole) & indexMask)) {
            index[hole] = index[j];
            hole = j;
        }
    }
    index[hole].slot = -1;
}

std::size_t
MshrTable::totalWaiters() const
{
    // Unused slots hold cleared vectors, so every slot can be summed.
    std::size_t n = 0;
    for (const auto &s : slots)
        n += s.waiters.size();
    return n;
}

} // namespace bwsim
