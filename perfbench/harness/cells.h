/**
 * @file
 * Kernel-cell plumbing shared by the timed runs, the traced run and
 * the self-check tests: the kernel-steady grid, RunCounters
 * fingerprints, and the two timing decorators the traced run hands to
 * Processor.
 */

#ifndef PERFBENCH_CELLS_H_
#define PERFBENCH_CELLS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/spans.h"
#include "exec/inst_source.h"
#include "fetch/fetch_mechanism.h"
#include "sim/experiment.h"

namespace perfbench
{

/**
 * Retired instructions per kernel-steady cell.  Large enough that a
 * cell's fixed cost (machine tables, mechanism, processor slabs) is a
 * small share of it, small enough for several grid passes per run.
 */
constexpr std::uint64_t kKernelBudget = 100000;

/** Benchmarks of the kernel-steady grid (see perfbench/README.md). */
const std::vector<std::string> &kernelBenchmarks();

/**
 * The kernel-steady grid for executor input @p input: every kernel
 * benchmark x {P14, P112} x every registered fetch scheme, unordered
 * layout, @p budget retired instructions per cell.
 */
std::vector<fetchsim::RunConfig>
kernelGrid(int input, std::uint64_t budget = kKernelBudget);

/** "benchmark/machine/scheme" label of a cell. */
std::string cellLabel(const fetchsim::RunConfig &config);

/**
 * Fingerprint of one run: FNV-1a over the checkpoint line of
 * (runKey(config), counters), as 16 hex digits.  Two runs share a
 * fingerprint exactly when config and every counter agree.
 */
std::string fingerprint(const fetchsim::RunConfig &config,
                        const fetchsim::RunCounters &counters);

/** Expected fingerprints keyed by (input id, cell label). */
using FingerprintSet = std::map<std::pair<int, std::string>, std::string>;

/** Path of the expected-fingerprint file kept with the benchmark. */
std::string fingerprintPath();

/** Load @p path; throws SimException(Io) when it cannot be read. */
FingerprintSet loadFingerprints(const std::string &path);

/** Exact host time spent in one wrapped call site. */
struct LayerClock
{
    std::uint64_t ns = 0;    //!< host time inside the wrapped calls
    std::uint64_t calls = 0; //!< wrapped calls made
    std::uint64_t items = 0; //!< instructions filled / groups formed
};

/**
 * Where a decorator records its first few calls as spans (the rest
 * only accumulate into its LayerClock).  A null recorder records none.
 * Decorators hold a pointer to their sink, so the owner can open the
 * parent span after constructing the Processor around them.
 */
struct SpanSink
{
    SpanRecorder *recorder = nullptr;
    std::int64_t parent = kNoParent;
    std::string id;
    int budget = 32; //!< spans still to record
};

/** InstSource decorator timing every fill() of the wrapped source. */
class TimedSource : public fetchsim::InstSource
{
  public:
    TimedSource(fetchsim::InstSource &inner, LayerClock &clock,
                SpanSink *sink = nullptr)
        : inner_(inner), clock_(clock), sink_(sink)
    {
    }

    bool next(fetchsim::DynInst &out) override;
    std::size_t fill(fetchsim::DynInst *out, std::size_t max) override;

  private:
    fetchsim::InstSource &inner_;
    LayerClock &clock_;
    SpanSink *sink_;
};

/**
 * FetchMechanism decorator timing every formGroup() of the wrapped
 * mechanism; kind, penalty and metrics delegate unchanged.
 */
class TimedFetch : public fetchsim::FetchMechanism
{
  public:
    TimedFetch(std::unique_ptr<fetchsim::FetchMechanism> inner,
               const fetchsim::MachineConfig &cfg, LayerClock &clock,
               SpanSink *sink = nullptr);

    fetchsim::FetchOutcome formGroup(fetchsim::FetchContext &ctx) override;
    fetchsim::SchemeKind kind() const override { return inner_->kind(); }
    int mispredictPenalty() const override
    {
        return inner_->mispredictPenalty();
    }
    void attachMetrics(fetchsim::MetricRegistry &registry) override
    {
        inner_->attachMetrics(registry);
    }

  private:
    std::unique_ptr<fetchsim::FetchMechanism> inner_;
    LayerClock &clock_;
    SpanSink *sink_;
    std::string span_name_; //!< "fetch.<scheme key>"
};

/** The MachineConfig Session::run derives from @p config. */
fetchsim::MachineConfig cellMachine(const fetchsim::RunConfig &config);

/** Host-time breakdown of one rebuilt cell. */
struct CellTiming
{
    LayerClock fill;       //!< InstSource::fill
    LayerClock formGroup;  //!< FetchMechanism::formGroup
    std::uint64_t runNs = 0; //!< Processor::run
};

/**
 * Rebuild @p config the way Session::run does -- makeMachine plus the
 * config's overrides, FetchSchemeRegistry::make -- over @p source and
 * run it to its budget.  With @p timing the source and mechanism are
 * wrapped in the timing decorators (spans go to @p sink's recorder
 * under a "proc.run" span); without it the cell runs undecorated and
 * only Processor::run is timed into @p run_ns (when non-null).
 */
fetchsim::RunCounters runCell(const fetchsim::RunConfig &config,
                              fetchsim::InstSource &source,
                              CellTiming *timing,
                              const SpanSink &sink = {},
                              std::uint64_t *run_ns = nullptr);

} // namespace perfbench

#endif // PERFBENCH_CELLS_H_
