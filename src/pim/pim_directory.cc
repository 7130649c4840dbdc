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
        entries.resize(num_entries);
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
        e.members.push_back(Member{block, writer});
        e.hold(writer);
        eq.schedule(access_latency, std::move(granted));
        return;
    }

    ++stat_conflicts;
    if (std::none_of(e.members.begin(), e.members.end(),
                     [block](const Member &m) { return m.block == block; }))
        ++stat_false_conflicts;
    e.members.push_back(Member{block, writer});
    eq.park(e.queue, std::move(granted));
}

void
PimDirectory::drainEntry(Entry &e)
{
    // Grant the front waiter and any readers right behind it; only
    // one writer may hold the entry.
    while (!e.queue.empty() && !e.active_writer) {
        const bool writer = e.members[e.holders()].writer;
        if (writer && e.active_readers > 0)
            break;
        e.hold(writer);
        eq.wake(e.queue, access_latency);
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
    const auto holders_end = e.members.begin() + e.holders();
    const auto holder =
        std::find_if(e.members.begin(), holders_end,
                     [block](const Member &m) { return m.block == block; });
    panic_if(holder == holders_end,
             "PIM directory release without matching acquire (0x%llx)",
             static_cast<unsigned long long>(block));
    e.members.erase(holder);

    if (writer) {
        panic_if(!e.active_writer, "writer release without active writer");
        e.active_writer = false;
    } else {
        panic_if(e.active_readers == 0, "reader release underflow");
        --e.active_readers;
    }

    drainEntry(e);

    if (num_entries == 0 && e.members.empty())
        ideal_map.erase(block);

    if (writer)
        writerDone();
}

void
PimDirectory::writerDone()
{
    panic_if(writers_in_flight == 0, "writer completion underflow");
    --writers_in_flight;
    while (writers_in_flight == 0 && !pfence_waiters.empty())
        eq.wake(pfence_waiters);
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
        const std::size_t holders = e.holders();
        if (e.members.size() != holders + e.queue.size) {
            return which + ": " + std::to_string(e.members.size()) +
                   " member(s) recorded for " + std::to_string(holders) +
                   " grant(s) and " + std::to_string(e.queue.size) +
                   " waiter(s)";
        }
        if (!e.queue.empty() && holders == 0) {
            return which + ": " + std::to_string(e.queue.size) +
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
    eq.park(pfence_waiters, std::move(done));
}

} // namespace pei
