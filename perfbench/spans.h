/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code around its calls into
 * the simulator's layers: name, start, end, and the span that was open
 * when it began. They stay in memory while the run is measured and are
 * written out once, when the benchmark ends.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t
ns_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    /** Opens a span as a child of the innermost open one. */
    int
    open(const char *name)
    {
        spans_.push_back({name, parent(), ns_between(origin_, Clock::now()),
                          -1, 1});
        open_.push_back(int(spans_.size()) - 1);
        return open_.back();
    }

    /** Closes the innermost open span, which must be `index`. */
    void
    close(int index)
    {
        spans_[size_t(index)].end_ns = ns_between(origin_, Clock::now());
        open_.pop_back();
    }

    /** Records an already finished span of `count` merged events under
     *  the innermost open span. */
    void
    add(const char *name, Clock::time_point start, Clock::time_point end,
        uint64_t count)
    {
        spans_.push_back({name, parent(), ns_between(origin_, start),
                          ns_between(origin_, end), count});
    }

    /** Seconds of each span name not covered by its child spans. */
    std::map<std::string, double>
    self_seconds() const
    {
        std::vector<int64_t> child_ns(spans_.size(), 0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child_ns[size_t(s.parent)] += s.end_ns - s.start_ns;
        }
        std::map<std::string, double> self;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            self[s.name] += double(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
        }
        return self;
    }

    /** Writes one tab-separated line per span; false on an I/O error. */
    bool
    write(const std::string &path, const std::string &workload,
          uint64_t seed) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            return false;
        std::fprintf(out, "index\tworkload\tseed\tname\tstart_ns\tend_ns"
                          "\tparent\tcount\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(out, "%zu\t%s\t%llu\t%s\t%lld\t%lld\t%d\t%llu\n", i,
                         workload.c_str(), (unsigned long long)seed, s.name,
                         (long long)s.start_ns, (long long)s.end_ns,
                         s.parent, (unsigned long long)s.count);
        }
        return std::fclose(out) == 0;
    }

  private:
    struct Span {
        const char *name; ///< a string literal
        int parent;       ///< index, or -1 for a root span
        int64_t start_ns;
        int64_t end_ns;
        uint64_t count;   ///< events merged into this span
    };

    int parent() const { return open_.empty() ? -1 : open_.back(); }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Opens a span for the enclosing scope; a null recorder records
 *  nothing, so untraced runs share the traced code path. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const char *name)
        : recorder_(recorder), index_(recorder ? recorder->open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder_;
    int index_;
};

} // namespace perfbench
