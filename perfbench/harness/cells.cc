#include "harness/cells.h"

#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/processor.h"
#include "exec/trace_file.h"
#include "fetch/scheme_registry.h"
#include "sim/checkpoint.h"
#include "sim/plan.h"

using namespace fetchsim;

namespace perfbench
{

const std::vector<std::string> &
kernelBenchmarks()
{
    // eqntott: dense intra-block taken branches (the collapsing
    // buffer's work); gcc: many mispredicts and the largest code
    // footprint; nasa7: long straight runs, backend-bound.
    static const std::vector<std::string> names = {"eqntott", "gcc",
                                                   "nasa7"};
    return names;
}

std::vector<RunConfig>
kernelGrid(int input, std::uint64_t budget)
{
    std::vector<SchemeKind> schemes;
    for (const SchemeInfo &info : FetchSchemeRegistry::instance().schemes())
        schemes.push_back(info.kind);
    ExperimentPlan plan;
    plan.benchmarks(kernelBenchmarks())
        .machines({MachineModel::P14, MachineModel::P112})
        .schemes(schemes)
        .layout(LayoutKind::Unordered)
        .maxRetired(budget)
        .input(input);
    return plan.expand();
}

std::string
cellLabel(const RunConfig &config)
{
    return config.benchmark + "/" + machineName(config.machine) + "/" +
           FetchSchemeRegistry::instance().info(config.scheme).key;
}

std::string
fingerprint(const RunConfig &config, const RunCounters &counters)
{
    const std::string line = checkpointLine(runKey(config), counters);
    const std::uint64_t hash =
        traceHashBytes(kTraceHashOffset, line.data(), line.size());
    return runKeyHex(hash);
}

std::string
fingerprintPath()
{
    return std::string(PERFBENCH_ROOT) +
           "/perfbench/expected/kernel_fingerprints.txt";
}

FingerprintSet
loadFingerprints(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw SimException(ErrorKind::Io, "cannot read " + path);
    FingerprintSet set;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        int input = -1;
        std::string label, fp;
        if (!(fields >> input >> label >> fp))
            throw SimException(ErrorKind::Io,
                               "malformed fingerprint line: " + line);
        set[{input, label}] = fp;
    }
    return set;
}

namespace
{

void
note(LayerClock &clock, SpanSink *sink, const std::string &name,
     std::uint64_t t0, std::uint64_t t1, std::uint64_t items)
{
    clock.ns += t1 - t0;
    ++clock.calls;
    clock.items += items;
    if (sink && sink->recorder && sink->budget > 0) {
        --sink->budget;
        sink->recorder->add(
            Span{name, t0, t1, sink->parent, sink->id, 0});
    }
}

} // anonymous namespace

bool
TimedSource::next(DynInst &out)
{
    const std::uint64_t t0 = nowNs();
    const bool ok = inner_.next(out);
    note(clock_, sink_, "exec.fill", t0, nowNs(), ok ? 1 : 0);
    return ok;
}

std::size_t
TimedSource::fill(DynInst *out, std::size_t max)
{
    const std::uint64_t t0 = nowNs();
    const std::size_t got = inner_.fill(out, max);
    note(clock_, sink_, "exec.fill", t0, nowNs(), got);
    return got;
}

TimedFetch::TimedFetch(std::unique_ptr<FetchMechanism> inner,
                       const MachineConfig &cfg, LayerClock &clock,
                       SpanSink *sink)
    : FetchMechanism(cfg), inner_(std::move(inner)), clock_(clock),
      sink_(sink),
      span_name_(std::string("fetch.") +
                 FetchSchemeRegistry::instance().info(inner_->kind()).key)
{
}

FetchOutcome
TimedFetch::formGroup(FetchContext &ctx)
{
    const std::uint64_t t0 = nowNs();
    const FetchOutcome outcome = inner_->formGroup(ctx);
    note(clock_, sink_, span_name_, t0, nowNs(), 1);
    return outcome;
}

MachineConfig
cellMachine(const RunConfig &config)
{
    MachineConfig cfg = makeMachine(config.machine);
    cfg.predictorKind = config.predictorKind;
    cfg.useRas = config.useRas;
    if (config.specDepthOverride >= 0)
        cfg.specDepth = config.specDepthOverride;
    if (config.btbEntriesOverride > 0)
        cfg.btbEntries = config.btbEntriesOverride;
    if (config.windowSizeOverride > 0)
        cfg.windowSize = config.windowSizeOverride;
    if (config.missPenaltyOverride >= 0)
        cfg.icacheMissPenalty = config.missPenaltyOverride;
    if (config.icacheWaysOverride > 0)
        cfg.icacheWays = config.icacheWaysOverride;
    return cfg;
}

RunCounters
runCell(const RunConfig &config, InstSource &source, CellTiming *timing,
        const SpanSink &sink, std::uint64_t *run_ns)
{
    const MachineConfig cfg = cellMachine(config);
    std::unique_ptr<FetchMechanism> mechanism =
        FetchSchemeRegistry::instance().make(
            config.scheme, cfg, {config.cbImpl, config.cbAllowBackward});
    const std::uint64_t budget =
        config.maxRetired ? config.maxRetired : defaultDynInsts();

    if (!timing) {
        Processor proc(source, cfg, std::move(mechanism));
        const std::uint64_t t0 = nowNs();
        proc.run(budget);
        if (run_ns)
            *run_ns = nowNs() - t0;
        return proc.counters();
    }

    SpanSink fill_sink = sink;
    SpanSink fetch_sink = sink;
    TimedSource timed_source(source, timing->fill, &fill_sink);
    Processor proc(timed_source, cfg,
                   std::make_unique<TimedFetch>(std::move(mechanism), cfg,
                                                timing->formGroup,
                                                &fetch_sink));
    std::int64_t run_span = kNoParent;
    if (sink.recorder) {
        run_span = sink.recorder->begin("proc.run", sink.parent, sink.id);
        fill_sink.parent = fetch_sink.parent = run_span;
    }
    const std::uint64_t t0 = nowNs();
    proc.run(budget);
    timing->runNs = nowNs() - t0;
    if (sink.recorder)
        sink.recorder->end(run_span);
    if (run_ns)
        *run_ns = timing->runNs;
    return proc.counters();
}

} // namespace perfbench
