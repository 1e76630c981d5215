#include "harness/spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "stats/json.h"

namespace perfbench
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::int64_t
SpanRecorder::begin(const std::string &name, std::int64_t parent,
                    const std::string &id, int track)
{
    Span span{name, nowNs(), 0, parent, id, track};
    return add(std::move(span));
}

void
SpanRecorder::end(std::int64_t index)
{
    const std::uint64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].endNs = t;
}

std::int64_t
SpanRecorder::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    const std::vector<Span> all = spans();
    std::uint64_t origin = all.empty() ? 0 : all.front().startNs;
    for (const Span &s : all)
        origin = std::min(origin, s.startNs);

    fetchsim::JsonWriter json(os, 0);
    json.beginObject();
    json.key("displayTimeUnit").value("ns");
    json.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        const std::uint64_t end = std::max(s.endNs, s.startNs);
        json.beginObject();
        json.key("name").value(s.name);
        json.key("ph").value("X");
        json.key("pid").value(1);
        json.key("tid").value(s.track);
        json.key("ts").value(
            static_cast<double>(s.startNs - origin) / 1000.0);
        json.key("dur").value(
            static_cast<double>(end - s.startNs) / 1000.0);
        json.key("args").beginObject();
        json.key("span").value(static_cast<std::uint64_t>(i));
        json.key("parent").value(static_cast<std::int64_t>(s.parent));
        if (!s.id.empty())
            json.key("id").value(s.id);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

std::uint64_t
selfTimeNs(const std::vector<Span> &spans, std::int64_t index)
{
    const Span &self = spans[static_cast<std::size_t>(index)];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (const Span &s : spans) {
        if (s.parent != index)
            continue;
        const std::uint64_t lo = std::max(s.startNs, self.startNs);
        const std::uint64_t hi = std::min(s.endNs, self.endNs);
        if (lo < hi)
            covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t busy = 0;
    std::uint64_t reach = self.startNs;
    for (const auto &[lo, hi] : covered) {
        const std::uint64_t from = std::max(lo, reach);
        if (hi > from)
            busy += hi - from;
        reach = std::max(reach, hi);
    }
    const std::uint64_t total = self.endNs - self.startNs;
    return total > busy ? total - busy : 0;
}

} // namespace perfbench
