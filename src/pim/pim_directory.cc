#include "pim_directory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pei
{

PimDirectory::PimDirectory(EventQueue &eq, unsigned num_entries,
                           Ticks access_latency, StatRegistry &stats,
                           const std::string &name)
    : eq(eq), num_entries(num_entries), access_latency(access_latency)
{
    if (num_entries > 0) {
        fatal_if(!isPowerOf2(num_entries),
                 "PIM directory entry count must be a power of two");
        index_bits = floorLog2(num_entries);
        // Sized construction (not resize): Entry holds a deque of
        // move-only waiters, whose non-noexcept move makes resize's
        // relocation path demand a (deleted) copy constructor.
        entries = std::vector<Entry>(num_entries);
    }
    stats.add(name + ".acquires", &stat_acquires);
    stats.add(name + ".releases", &stat_releases);
    stats.add(name + ".conflicts", &stat_conflicts);
    stats.add(name + ".false_conflicts", &stat_false_conflicts);
    stats.add(name + ".pfences", &stat_pfences);
    stats.addInvariant(
        name + ".acquires == releases",
        [this] {
            if (stat_acquires.value() == stat_releases.value())
                return std::string();
            return "acquires=" + std::to_string(stat_acquires.value()) +
                   " != releases=" + std::to_string(stat_releases.value());
        });
    stats.addInvariant(
        name + ".no writers in flight at end of sim",
        [this] {
            if (writers_in_flight == 0)
                return std::string();
            return std::to_string(writers_in_flight) +
                   " writer(s) never retired";
        });
}

std::size_t
PimDirectory::indexOf(Addr block) const
{
    return static_cast<std::size_t>(foldedXor(block, index_bits));
}

PimDirectory::Entry &
PimDirectory::entryFor(Addr block)
{
    if (num_entries == 0)
        return ideal_map[block]; // ideal: exact per-block entry
    return entries[indexOf(block)];
}

void
PimDirectory::grantLocked(Entry &e, Waiter w)
{
    if (w.writer)
        e.active_writer = true;
    else
        ++e.active_readers;
    e.holder_blocks.push_back(w.block);
    if (access_latency == 0)
        eq.schedule(0, std::move(w.cb));
    else
        eq.schedule(access_latency, std::move(w.cb));
}

void
PimDirectory::registerWriter()
{
    ++writers_in_flight;
}

void
PimDirectory::acquire(Addr block, bool writer, Callback granted,
                      bool writer_registered)
{
    ++stat_acquires;
    if (writer && !writer_registered)
        ++writers_in_flight;

    Entry &e = entryFor(block);
    const bool compatible =
        writer ? (!e.active_writer && e.active_readers == 0)
               : !e.active_writer;
    // FIFO fairness: nobody overtakes a queued waiter.  A queued
    // writer therefore blocks later readers (the paper's
    // "non-readable" bit) and a queued reader behind a writer keeps
    // its place (the "non-writeable" bit analogue).
    if (compatible && e.queue.empty()) {
        grantLocked(e, Waiter{writer, block, std::move(granted)});
        return;
    }

    ++stat_conflicts;
    const bool same_block_held =
        std::find(e.holder_blocks.begin(), e.holder_blocks.end(), block) !=
            e.holder_blocks.end() ||
        std::any_of(e.queue.begin(), e.queue.end(),
                    [block](const Waiter &w) { return w.block == block; });
    if (!same_block_held)
        ++stat_false_conflicts;

    e.queue.push_back(Waiter{writer, block, std::move(granted)});
}

void
PimDirectory::drainEntry(Entry &e)
{
    while (!e.queue.empty()) {
        Waiter &front = e.queue.front();
        if (front.writer) {
            if (e.active_writer || e.active_readers > 0)
                break;
            Waiter w = std::move(front);
            e.queue.pop_front();
            grantLocked(e, std::move(w));
            break; // only one writer may hold the entry
        }
        if (e.active_writer)
            break;
        Waiter w = std::move(front);
        e.queue.pop_front();
        grantLocked(e, std::move(w)); // grant consecutive readers together
    }
}

void
PimDirectory::release(Addr block, bool writer)
{
    ++release_calls;
    if (release_calls == inject_skip_release)
        return; // fault injection: leak this lock (checker self-test)

    ++stat_releases;
    Entry &e = entryFor(block);
    auto holder =
        std::find(e.holder_blocks.begin(), e.holder_blocks.end(), block);
    panic_if(holder == e.holder_blocks.end(),
             "PIM directory release without matching acquire (0x%llx)",
             static_cast<unsigned long long>(block));
    e.holder_blocks.erase(holder);

    if (writer) {
        panic_if(!e.active_writer, "writer release without active writer");
        e.active_writer = false;
    } else {
        panic_if(e.active_readers == 0, "reader release underflow");
        --e.active_readers;
    }

    drainEntry(e);

    if (num_entries == 0 && !e.active_writer && e.active_readers == 0 &&
        e.queue.empty()) {
        ideal_map.erase(block);
    }

    if (writer)
        writerDone();
}

void
PimDirectory::writerDone()
{
    panic_if(writers_in_flight == 0, "writer completion underflow");
    --writers_in_flight;
    if (writers_in_flight == 0 && !pfence_waiters.empty()) {
        auto waiters = std::move(pfence_waiters);
        pfence_waiters.clear();
        for (auto &w : waiters)
            eq.schedule(0, std::move(w));
    }
}

std::string
PimDirectory::probeViolation() const
{
    auto check = [](const Entry &e, const std::string &which) {
        if (e.active_writer && e.active_readers > 0) {
            return which + ": writer and " +
                   std::to_string(e.active_readers) +
                   " reader(s) hold the entry together";
        }
        const std::size_t holders =
            e.active_readers + (e.active_writer ? 1u : 0u);
        if (e.holder_blocks.size() != holders) {
            return which + ": " + std::to_string(e.holder_blocks.size()) +
                   " holder block(s) recorded for " +
                   std::to_string(holders) + " grant(s)";
        }
        if (!e.queue.empty() && holders == 0) {
            return which + ": " + std::to_string(e.queue.size()) +
                   " waiter(s) queued behind a free entry";
        }
        return std::string();
    };

    for (std::size_t i = 0; i < entries.size(); ++i) {
        std::string v = check(entries[i], "entry " + std::to_string(i));
        if (!v.empty())
            return v;
    }
    for (const auto &[block, e] : ideal_map) {
        std::string v = check(
            e, "ideal entry for block " + std::to_string(block));
        if (!v.empty())
            return v;
    }
    return std::string();
}

void
PimDirectory::pfence(Callback done)
{
    ++stat_pfences;
    if (writers_in_flight == 0) {
        eq.schedule(access_latency, std::move(done));
        return;
    }
    pfence_waiters.push_back(std::move(done));
}

} // namespace pei
