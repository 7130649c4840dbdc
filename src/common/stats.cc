#include "stats.hh"

#include <sstream>

#include "logging.hh"

namespace pei
{

namespace
{

/** Escape a string for embedding in a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c; break;
        }
    }
    return out;
}

} // namespace

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    const double rank = p * static_cast<double>(count_ - 1);
    std::uint64_t before = 0;
    for (unsigned b = 0; b < num_buckets; ++b) {
        const std::uint64_t n = buckets_[b];
        if (n == 0)
            continue;
        if (static_cast<double>(before) + static_cast<double>(n) > rank) {
            const double lo = static_cast<double>(bucketLow(b));
            const double span =
                b == 0 ? 0.0
                       : static_cast<double>(bucketHigh(b)) + 1.0 - lo;
            double v = lo + span * ((rank - static_cast<double>(before)) /
                                    static_cast<double>(n));
            if (v > static_cast<double>(max_))
                v = static_cast<double>(max_);
            if (v < static_cast<double>(min_))
                v = static_cast<double>(min_);
            return v;
        }
        before += n;
    }
    return static_cast<double>(max_);
}

void
StatRegistry::add(const std::string &name, Counter *counter)
{
    auto [it, inserted] = counters.emplace(name, counter);
    (void)it;
    panic_if(!inserted, "duplicate stat name '%s'", name.c_str());
}

void
StatRegistry::add(const std::string &name, Histogram *histogram)
{
    panic_if(counters.count(name) != 0, "histogram '%s' shadows a counter",
             name.c_str());
    auto [it, inserted] = histograms.emplace(name, histogram);
    (void)it;
    panic_if(!inserted, "duplicate histogram name '%s'", name.c_str());
}

void
StatRegistry::addInvariant(const std::string &name, InvariantFn check)
{
    invariants.emplace_back(name, std::move(check));
}

std::uint64_t
StatRegistry::get(const std::string &name) const
{
    auto it = counters.find(name);
    fatal_if(it == counters.end(), "unknown stat '%s'", name.c_str());
    return it->second->value();
}

bool
StatRegistry::has(const std::string &name) const
{
    return counters.count(name) != 0;
}

const Histogram &
StatRegistry::histogram(const std::string &name) const
{
    auto it = histograms.find(name);
    fatal_if(it == histograms.end(), "unknown histogram '%s'", name.c_str());
    return *it->second;
}

bool
StatRegistry::hasHistogram(const std::string &name) const
{
    return histograms.count(name) != 0;
}

std::map<std::string, std::uint64_t>
StatRegistry::snapshot() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, counter] : counters)
        out.emplace(name, counter->value());
    return out;
}

std::vector<std::string>
StatRegistry::audit() const
{
    std::vector<std::string> violations;
    for (const auto &[name, check] : invariants) {
        std::string msg = check();
        if (!msg.empty())
            violations.push_back(name + ": " + msg);
    }
    return violations;
}

std::string
StatRegistry::countersJson() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, counter] : counters) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":" << counter->value();
    }
    os << "}";
    return os.str();
}

std::string
StatRegistry::histogramsJson() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, h] : histograms) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":{\"count\":" << h->count()
           << ",\"sum\":" << h->sum() << ",\"min\":" << h->min()
           << ",\"max\":" << h->max() << ",\"mean\":" << h->mean()
           << ",\"p50\":" << h->percentile(0.50)
           << ",\"p95\":" << h->percentile(0.95)
           << ",\"p99\":" << h->percentile(0.99)
           << ",\"buckets\":[";
        bool bfirst = true;
        for (unsigned b = 0; b < Histogram::num_buckets; ++b) {
            if (h->bucketCount(b) == 0)
                continue;
            if (!bfirst)
                os << ",";
            bfirst = false;
            os << "[" << Histogram::bucketLow(b) << ","
               << Histogram::bucketHigh(b) << "," << h->bucketCount(b)
               << "]";
        }
        os << "]}";
    }
    os << "}";
    return os.str();
}

std::string
StatRegistry::toJson() const
{
    return "{\"counters\":" + countersJson() +
           ",\"histograms\":" + histogramsJson() + "}";
}

} // namespace pei
