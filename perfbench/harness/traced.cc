/**
 * @file
 * The layer-by-layer traced run.
 *
 * Every layer is timed from outside, at the public entry point of its
 * module, and the spans land in one SpanRecorder written as a Chrome
 * trace at the end.  The run is separate from the timed workloads (it
 * perturbs what it measures); it states its own overhead as
 * trace.overhead_ratio.  Whatever workload it is started for, it
 * measures every layer, so every traced run reports the same metric
 * set; the seed picks the kernel input id and the service plan mix.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>

#include "branch/predictor_suite.h"
#include "cache/icache.h"
#include "compiler/code_layout.h"
#include "compiler/function_layout.h"
#include "compiler/nop_padding.h"
#include "compiler/profile.h"
#include "compiler/trace_selection.h"
#include "core/error.h"
#include "exec/executor.h"
#include "exec/replay_buffer.h"
#include "fetch/scheme_registry.h"
#include "harness/cells.h"
#include "harness/workloads.h"
#include "workload/benchmark_suite.h"

using namespace fetchsim;

namespace perfbench
{

namespace
{

/** Block size of the padded layouts timed (P112's 64-byte blocks). */
constexpr std::uint64_t kPadBlockBytes = 64;

/** Budget and repetitions of the run-overhead cells. */
constexpr std::uint64_t kOverheadInsts = 2000;
constexpr int kOverheadReps = 15;

/** Jobs per client in the traced service session. */
constexpr std::size_t kTracedJobsPerClient = 40;

/** Budget of the traced service session's fresh plans (plus offset). */
constexpr std::uint64_t kTracedInstsBase = 60100;

double
msSince(std::uint64_t t0)
{
    return (nowNs() - t0) / 1e6;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Time one call into @p spans under @p parent; returns ms. */
template <typename Fn>
double
timed(SpanRecorder &spans, const char *name, std::int64_t parent,
      const std::string &id, Fn fn)
{
    SpanScope scope(spans, name, parent, id);
    const std::uint64_t t0 = nowNs();
    fn();
    return msSince(t0);
}

/** Preparation layers: generate, profile, layout, pad. */
void
tracePreparation(SpanRecorder &spans, std::map<std::string, double> &m)
{
    std::vector<double> generate, profile_ms, layout_ms, pad_ms;
    for (const std::string &name : kernelBenchmarks()) {
        SpanScope prep(spans, "prepare", kNoParent, name);
        const WorkloadSpec &spec = benchmarkByName(name);
        Workload wl(spec);
        generate.push_back(timed(spans, "workload.generate", prep.index(),
                                 name, [&] { wl = generateWorkload(spec); }));
        EdgeProfile profile;
        profile_ms.push_back(timed(spans, "compiler.profile", prep.index(),
                                   name,
                                   [&] { profile = collectProfile(wl); }));
        Workload reordered = wl;
        std::vector<Trace> traces;
        layout_ms.push_back(
            timed(spans, "compiler.layout", prep.index(), name, [&] {
                traces = selectTraces(reordered.program, profile);
                applyTraceLayout(reordered, traces);
            }));
        Workload placed = reordered;
        layout_ms.back() +=
            timed(spans, "compiler.layout", prep.index(), name,
                  [&] { placeFunctions(placed, profile); });
        Workload pad_all = wl;
        Workload pad_trace = reordered;
        pad_ms.push_back(timed(spans, "compiler.pad", prep.index(), name, [&] {
            padAll(pad_all, kPadBlockBytes);
            padTrace(pad_trace, traces, kPadBlockBytes);
        }));
    }
    m["workload.generate_ms"] = median(generate);
    m["compiler.profile_ms"] = median(profile_ms);
    m["compiler.layout_ms"] = median(layout_ms);
    m["compiler.pad_ms"] = median(pad_ms);
}

/** Per-scheme and whole-grid sums over the traced kernel cells. */
struct KernelSums
{
    std::map<SchemeKind, LayerClock> formGroup;
    std::map<SchemeKind, double> delivered, slots;
    LayerClock fill;
    double formGroupNs = 0, runNs = 0, tracedNs = 0, sessionNs = 0;
    RunCounters total;

    void
    add(const RunConfig &config, const RunCounters &c,
        const CellTiming &t)
    {
        LayerClock &fg = formGroup[config.scheme];
        fg.ns += t.formGroup.ns;
        fg.calls += t.formGroup.calls;
        delivered[config.scheme] += static_cast<double>(c.delivered);
        slots[config.scheme] += static_cast<double>(c.fetchGroups) *
                                cellMachine(config).issueRate;
        fill.ns += t.fill.ns;
        fill.items += t.fill.items;
        formGroupNs += static_cast<double>(t.formGroup.ns);
        runNs += static_cast<double>(t.runNs);
        total.cycles += c.cycles;
        total.retired += c.retired;
        total.condBranches += c.condBranches;
        total.mispredicts += c.mispredicts;
        total.btbLookups += c.btbLookups;
        total.btbHits += c.btbHits;
        total.icacheAccesses += c.icacheAccesses;
        total.icacheMisses += c.icacheMisses;
    }
};

/** Branch predictor and I-cache driven on their own over @p stream. */
void
traceProbes(SpanRecorder &spans, const std::map<std::string, DynTrace> &traces,
            std::map<std::string, double> &m)
{
    double predict_ns = 0, predicts = 0, access_ns = 0, accesses = 0;
    std::uint64_t sink = 0;
    for (const std::string &name : kernelBenchmarks()) {
        const DynTrace &trace = traces.at(name);
        std::vector<DynInst> stream(trace.size());
        trace.getBatch(0, stream.size(), stream.data());
        for (MachineModel model : {MachineModel::P14, MachineModel::P112}) {
            const MachineConfig cfg = makeMachine(model);
            const std::string id = name + "/" + machineName(model);
            PredictorSuite suite(cfg.btbEntries, cfg.instsPerBlock(),
                                 PredictorConfig{cfg.predictorKind,
                                                 cfg.useRas, cfg.rasDepth});
            {
                SpanScope scope(spans, "branch.predict", kNoParent, id);
                const std::uint64_t t0 = nowNs();
                for (const DynInst &di : stream) {
                    if (!di.isControl())
                        continue;
                    sink += suite.predict(di).mispredict;
                    suite.onDecode(di);
                    suite.onResolve(di);
                    ++predicts;
                }
                predict_ns += static_cast<double>(nowNs() - t0);
            }
            ICache icache(cfg.icacheBytes, cfg.blockBytes, cfg.icacheBanks,
                          cfg.icacheWays);
            {
                SpanScope scope(spans, "cache.access", kNoParent, id);
                const std::uint64_t t0 = nowNs();
                std::uint64_t last = ~0ull;
                for (const DynInst &di : stream) {
                    const std::uint64_t block = icache.blockAlign(di.pc);
                    if (block == last)
                        continue;
                    last = block;
                    sink += icache.access(di.pc);
                    ++accesses;
                }
                access_ns += static_cast<double>(nowNs() - t0);
            }
        }
    }
    std::cerr << "perfbench: probe checksum " << sink << "\n";
    m["branch.ns_per_predict"] = ratio(predict_ns, predicts);
    m["cache.ns_per_access"] = ratio(access_ns, accesses);
}

/** Session::run minus Processor::run on short live cells. */
double
runOverheadUs(Session &session, int input)
{
    std::vector<double> overhead;
    for (const RunConfig &config : kernelGrid(input, kOverheadInsts)) {
        const Workload &wl =
            session.workload(config.benchmark, config.layout);
        std::vector<double> whole, proc;
        for (int rep = 0; rep < kOverheadReps; ++rep) {
            const std::uint64_t t0 = nowNs();
            session.run(config);
            whole.push_back(static_cast<double>(nowNs() - t0));
            Executor exec(wl, config.input);
            std::uint64_t run_ns = 0;
            runCell(config, exec, nullptr, {}, &run_ns);
            proc.push_back(static_cast<double>(run_ns));
        }
        overhead.push_back((median(whole) - median(proc)) / 1e3);
    }
    return median(overhead);
}

} // anonymous namespace

RunReport
runTraced(const Options &options)
{
    const std::uint64_t run_start = nowNs();
    RunReport report;
    SpanRecorder spans;
    std::map<std::string, double> m;
    const int input = static_cast<int>(options.seed % (kEvalInput + 1));
    const std::vector<RunConfig> configs = kernelGrid(input);
    const FingerprintSet expected = loadFingerprints(fingerprintPath());

    tracePreparation(spans, m);

    // Stream supply: the Session's replay recordings (exec.record_ms),
    // plus the same recordings made here for the rebuilt cells.
    Session session;
    ReplayOptions replay;
    replay.policy = ReplayPolicy::InMemory;
    std::vector<double> record_ms;
    std::map<std::string, DynTrace> traces;
    for (const std::string &name : kernelBenchmarks()) {
        const Workload &wl = session.workload(name, LayoutKind::Unordered);
        const RunConfig &first = *std::find_if(
            configs.begin(), configs.end(),
            [&](const RunConfig &c) { return c.benchmark == name; });
        record_ms.push_back(timed(spans, "exec.record", kNoParent, name,
                                  [&] { session.prepareReplay(first, replay); }));
        Executor exec(wl, input);
        traces.emplace(name,
                       recordStream(exec, kKernelBudget + kReplayStreamSlack));
    }
    m["exec.record_ms"] = median(record_ms);
    m["exec.replay_mb"] =
        static_cast<double>(session.replayStats().bytesInMemory) /
        (1024.0 * 1024.0);

    // The kernel grid, untraced through Session::run and rebuilt with
    // the timing decorators over a replay of the same stream, in passes
    // until the run's --seconds are used (per-call spans: first pass).
    KernelSums sums;
    const std::uint64_t deadline =
        run_start + static_cast<std::uint64_t>(options.seconds * 1e9);
    auto traceCell = [&](const RunConfig &config, int call_spans) {
        const std::string label = cellLabel(config);
        SpanScope cell(spans, "cell", kNoParent, label);
        std::uint64_t t0 = nowNs();
        RunResult base;
        {
            SpanScope run(spans, "session.run", cell.index(), label);
            base = session.run(config, {}, 0, replay);
        }
        sums.sessionNs += static_cast<double>(nowNs() - t0);

        TraceReplaySource source(traces.at(config.benchmark));
        CellTiming timing;
        t0 = nowNs();
        const RunCounters counters =
            runCell(config, source, &timing,
                    SpanSink{&spans, cell.index(), label, call_spans});
        sums.tracedNs += static_cast<double>(nowNs() - t0);
        sums.add(config, counters, timing);

        const std::string fp = fingerprint(config, counters);
        auto it = expected.find({input, label});
        report.check(fp == fingerprint(config, base.counters) &&
                     it != expected.end() && it->second == fp);
    };
    for (int pass = 0; pass == 0 || nowNs() < deadline; ++pass)
        for (const RunConfig &config : configs)
            traceCell(config, pass == 0 ? 32 : 0);

    // Live stream supply: one cell per benchmark x machine.
    LayerClock live;
    for (const RunConfig &config : configs) {
        if (config.scheme != configs.front().scheme)
            continue;
        const std::string label = cellLabel(config);
        SpanScope cell(spans, "cell.live", kNoParent, label);
        Executor exec(session.workload(config.benchmark, config.layout),
                      config.input);
        CellTiming timing;
        const RunCounters counters = runCell(
            config, exec, &timing, SpanSink{&spans, cell.index(), label});
        live.ns += timing.fill.ns;
        live.items += timing.fill.items;
        auto it = expected.find({input, label});
        report.check(it != expected.end() &&
                     it->second == fingerprint(config, counters));
    }

    m["exec.live_fill_ns_per_inst"] =
        ratio(static_cast<double>(live.ns), static_cast<double>(live.items));
    m["exec.replay_fill_ns_per_inst"] =
        ratio(static_cast<double>(sums.fill.ns),
              static_cast<double>(sums.fill.items));
    m["exec.fill_share"] = ratio(static_cast<double>(sums.fill.ns), sums.runNs);
    for (const SchemeInfo &info : FetchSchemeRegistry::instance().schemes()) {
        const LayerClock &fg = sums.formGroup[info.kind];
        m[std::string("fetch.") + info.key + ".ns_per_group"] =
            ratio(static_cast<double>(fg.ns), static_cast<double>(fg.calls));
        m[std::string("fetch.") + info.key + ".slot_utilization"] =
            ratio(sums.delivered[info.kind], sums.slots[info.kind]);
    }
    m["fetch.share"] = ratio(sums.formGroupNs, sums.runNs);
    // A remainder, not a measurement: it also holds what the decorators'
    // clock reads cost the loop beyond their own spans (README).
    m["core.backend_share"] =
        ratio(sums.runNs - sums.formGroupNs -
                  static_cast<double>(sums.fill.ns),
              sums.runNs);
    m["core.ns_per_cycle"] =
        ratio(sums.sessionNs, static_cast<double>(sums.total.cycles));
    m["branch.mispredict_ratio"] =
        ratio(static_cast<double>(sums.total.mispredicts),
              static_cast<double>(sums.total.condBranches));
    m["branch.btb_hit_ratio"] =
        ratio(static_cast<double>(sums.total.btbHits),
              static_cast<double>(sums.total.btbLookups));
    m["cache.miss_ratio"] =
        ratio(static_cast<double>(sums.total.icacheMisses),
              static_cast<double>(sums.total.icacheAccesses));
    m["trace.overhead_ratio"] = ratio(sums.tracedNs, sums.sessionNs);

    traceProbes(spans, traces, m);
    m["fetch.probe_share_est"] = ratio(
        m["branch.ns_per_predict"] *
                static_cast<double>(sums.total.btbLookups) +
            m["cache.ns_per_access"] *
                static_cast<double>(sums.total.icacheAccesses),
        sums.runNs);

    {
        SpanScope scope(spans, "sim.run_overhead", kNoParent);
        m["sim.run_overhead_us"] = runOverheadUs(session, input);
    }

    // One paper-report regeneration for the sweep/report layers.
    {
        const std::int64_t root = spans.begin("report.generate", kNoParent);
        const ReportPass pass = regenerateReport();
        spans.end(root);
        report.check(pass.doc == expectedReport());
        std::vector<std::uint64_t> done = pass.cellDoneNs;
        std::sort(done.begin(), done.end());
        double busy = 0;
        for (const HostStats &host : pass.grid.host)
            busy += static_cast<double>(host.wallNs);
        m["sweep.parallel_efficiency"] = ratio(
            busy, static_cast<double>(pass.grid.wallNs) * kReportThreads);
        const std::size_t n = done.size();
        const std::uint64_t first_idle =
            n >= kReportThreads ? done[n - kReportThreads] : done.front();
        m["sweep.tail_idle_ms"] = (done.back() - first_idle) / 1e6;
        m["report.serial_ms"] =
            (static_cast<double>(pass.wallNs) -
             static_cast<double>(pass.grid.wallNs)) /
            1e6;
        spans.add(Span{"sweep.grid", done.back() - pass.grid.wallNs,
                       done.back(), root, "", 0});
    }

    // A fixed-length closed-loop service session.
    {
        const std::int64_t setup = spans.begin("service.setup", kNoParent);
        SweepService &service = startService(options.workDir);
        spans.end(setup);
        const ServiceLoad load =
            driveService(service.socketPath(), options.seed,
                         kTracedInstsBase, kTracedJobsPerClient, &spans);
        const ServiceStats stats = service.stats();
        const ResultCacheStats cache = service.resultCache().stats();
        removeServiceSockets();
        verifyJobs(load, report);
        std::vector<double> submit, fetch, queue, hit, miss;
        for (const JobRecord &job : load.jobs) {
            submit.push_back(job.submitMs);
            fetch.push_back(job.fetchMs);
            queue.push_back(job.queueWaitP50Ms);
            (job.hit ? hit : miss).push_back(job.latencyMs());
        }
        m["service.submit_ms"] = median(submit);
        m["service.result_fetch_ms"] = median(fetch);
        m["service.queue_wait_p50_ms"] = median(queue);
        m["service.hit_p50_ms"] = median(hit);
        m["service.miss_p50_ms"] = median(miss);
        m["result_cache.hit_ratio"] =
            ratio(static_cast<double>(cache.hits),
                  static_cast<double>(cache.hits + cache.misses));
        m["service.cells_simulated"] =
            static_cast<double>(stats.cellsSimulated);
        m["service.cells_cache_served"] =
            static_cast<double>(stats.cellsCacheServed);
    }

    const std::string path = options.workDir + "/perfbench-trace-" +
                             options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    std::ofstream out(path);
    spans.writeChromeTrace(out);
    out.close();
    if (!out)
        throw SimException(ErrorKind::Io, "cannot write " + path);
    std::cerr << "perfbench: wrote Chrome trace " << path << "\n";

    for (const MetricSpec &spec : perLayerMetrics()) {
        auto it = m.find(spec.name);
        if (it == m.end())
            throw SimException(ErrorKind::Internal,
                               "traced run did not measure " + spec.name);
        report.add(spec.name, it->second, spec.unit);
    }
    return report;
}

} // namespace perfbench
