/**
 * @file
 * Host-time spans recorded by the benchmark around its own calls into
 * the simulator, kept in memory and written out once as Chrome
 * trace-event JSON (chrome://tracing and Perfetto open it).  Each span
 * carries its id and the id of the span open around it, so a layer's
 * self time is its duration minus its children's.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** One event-queue boundary sample (taken every 2^16 events). */
struct QueueSample
{
    Clock::time_point host;
    std::uint64_t executed;
    std::uint64_t tick;
    std::uint64_t pending;
};

class SpanLog
{
  public:
    /** A disabled log still times its spans but records nothing. */
    explicit SpanLog(bool enabled) : enabled(enabled) {}

    /**
     * Run @p fn inside a span named @p name, a child of the innermost
     * open span.  Returns the span's host seconds.
     */
    template <typename Fn>
    double
    time(const std::string &name, Fn &&fn)
    {
        const int id = next_id++;
        const int parent = open.empty() ? -1 : open.back();
        open.push_back(id);
        const Clock::time_point start = Clock::now();
        fn();
        const Clock::time_point end = Clock::now();
        open.pop_back();
        if (enabled)
            spans.push_back(Span{name, id, parent, start, end});
        return seconds(end - start);
    }

    /** Write every span, plus @p samples as counter tracks. */
    void
    writeChromeTrace(const std::string &path,
                     const std::vector<QueueSample> &samples) const
    {
        std::ofstream os(path);
        os << "{\"traceEvents\":[";
        bool first = true;
        const auto us = [this](Clock::time_point t) {
            return seconds(t - origin) * 1e6;
        };
        for (const Span &s : spans) {
            os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
               << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
               << "}}";
            first = false;
        }
        for (const QueueSample &q : samples) {
            os << (first ? "" : ",") << "\n{\"name\":\"event_queue\","
               << "\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" << us(q.host)
               << ",\"args\":{\"pending\":" << q.pending
               << ",\"executed\":" << q.executed << ",\"tick\":" << q.tick
               << "}}";
            first = false;
        }
        os << "\n]}\n";
    }

  private:
    struct Span
    {
        std::string name;
        int id;
        int parent;
        Clock::time_point start;
        Clock::time_point end;
    };

    bool enabled;
    Clock::time_point origin = Clock::now();
    int next_id = 0;
    std::vector<int> open;
    std::vector<Span> spans;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
