/**
 * @file
 * In-memory span recording for the traced run.
 *
 * A span is one timed call at a layer boundary: name, start, end, the
 * span that caused it (parent), and the cell or job it belongs to.
 * Spans stay in memory while the run executes and are written once,
 * at the end, as a Chrome trace-event document (chrome://tracing,
 * https://ui.perfetto.dev).  Per-call spans on the cycle-loop paths
 * (fill, formGroup) would number in the millions, so those paths keep
 * exact totals in a LayerClock and record only their first calls per
 * cell as spans.
 */

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host time in nanoseconds (std::chrono::steady_clock). */
std::uint64_t nowNs();

/** Sentinel parent of a root span. */
constexpr std::int64_t kNoParent = -1;

/** One recorded span. */
struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::int64_t parent = kNoParent; //!< index into the recorder
    std::string id;                  //!< cell or job id ("" = none)
    int track = 0;                   //!< trace row (0 = main thread)
};

/** Thread-safe append-only span store. */
class SpanRecorder
{
  public:
    /** Open a span now; returns its index (use as a parent). */
    std::int64_t begin(const std::string &name, std::int64_t parent,
                       const std::string &id = "", int track = 0);

    /** Close span @p index now. */
    void end(std::int64_t index);

    /** Record a span whose interval is already known. */
    std::int64_t add(Span span);

    /** A copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write all spans as a Chrome trace-event JSON document. */
    void writeChromeTrace(std::ostream &os) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: begin on construction, end on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &recorder, const std::string &name,
              std::int64_t parent, const std::string &id = "",
              int track = 0)
        : recorder_(recorder),
          index_(recorder.begin(name, parent, id, track))
    {
    }
    ~SpanScope() { recorder_.end(index_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::int64_t index() const { return index_; }

  private:
    SpanRecorder &recorder_;
    std::int64_t index_;
};

/**
 * Self time of span @p index: its duration minus the part of that
 * interval covered by its direct children (overlapping children are
 * counted once).
 */
std::uint64_t selfTimeNs(const std::vector<Span> &spans,
                         std::int64_t index);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H_
