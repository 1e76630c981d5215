#include "harness/workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include <sched.h>
#include <unistd.h>

#include "core/error.h"
#include "fetch/scheme_registry.h"
#include "harness/cells.h"
#include "perf/host_stats.h"
#include "sim/report.h"
#include "sim/repro_report.h"
#include "stats/json_parse.h"

using namespace fetchsim;

namespace perfbench
{

namespace
{

/**
 * Set-ups per run, reported as their median (a paper-report set-up is
 * a whole regeneration; a kernel-steady one takes a few tens of ms).
 */
constexpr int kSetupReps = 15;
constexpr int kReportSetupReps = 5;

/** Timed passes per run at least, so the in-run spread is defined. */
constexpr std::size_t kMinPasses = 4;

/** Service sessions: simulation workers and closed-loop clients. */
constexpr int kServiceWorkers = 2;
constexpr int kServiceClients = 2;

/**
 * Service sessions: jobs per fresh plan (the rest re-submit).  One
 * fresh plan per re-submission, the mix of scripts/serve_smoke.sh
 * (a plan submitted, then the identical plan again); no measured
 * traffic mix exists to take it from.
 */
constexpr std::size_t kJobsPerFresh = 2;

/**
 * Service sessions: a client's fresh plans, one per benchmark x layout
 * x machine of the pool.
 */
constexpr std::size_t kFreshPlans = 6 * 2 * 3;

/**
 * Retired instructions per cell of the service warm-up's fresh plans
 * (plus a per-plan offset that keeps each plan's cache key unique).
 */
constexpr std::uint64_t kWarmupInstsBase = 60000;

/** Benchmarks a service plan draws from (int and fp, both sizes). */
const std::vector<std::string> &
servicePool()
{
    static const std::vector<std::string> names = {
        "compress", "eqntott", "gcc", "li", "doduc", "tomcatv"};
    return names;
}

const std::vector<std::string> &
serviceLayouts()
{
    static const std::vector<std::string> names = {"unordered",
                                                   "reordered"};
    return names;
}

double
peakRssMb()
{
    return static_cast<double>(processPeakRssBytes()) / (1024.0 * 1024.0);
}

const MetricSpec &
specOf(const std::string &name)
{
    for (const MetricSpec &spec : endToEndMetrics())
        if (spec.name == name)
            return spec;
    throw SimException(ErrorKind::Internal, "unknown metric " + name);
}

/** One timed pass: its wall time, work and per-cell times. */
struct Pass
{
    double wallS = 0;
    double instsPerS = 0;       //!< retired simulated instructions / s
    std::vector<double> cellMs; //!< one per sweep cell, in plan order
};

/** A run's readings of the timed metrics. */
struct Reading
{
    double wallS = 0;
    double instsPerS = 0;
};

/** Reads the timed metrics from the passes listed in @p pick. */
using Reader = Reading (*)(const std::vector<Pass> &passes,
                           const std::vector<std::size_t> &pick);

/**
 * Sweep passes on one worker, which run the same cells in the same
 * order: the pass time is the sum of each cell's best time over the
 * picked passes, so that a contended stretch costs only the cells it
 * overlapped.
 */
Reading
readCells(const std::vector<Pass> &passes,
          const std::vector<std::size_t> &pick)
{
    double wall_s = 0;
    for (std::size_t cell = 0; cell < passes.front().cellMs.size();
         ++cell) {
        std::vector<double> times;
        for (std::size_t i : pick)
            times.push_back(passes[i].cellMs[cell]);
        wall_s += best(times, false) / 1e3;
    }
    const Pass &first = passes.front();
    return {wall_s, first.instsPerS * first.wallS / wall_s};
}

/**
 * Report regenerations: wall time and throughput are the best pass's
 * (the 4 workers overlap, so cell times do not add up to the wall).
 */
Reading
readReport(const std::vector<Pass> &passes,
           const std::vector<std::size_t> &pick)
{
    std::vector<double> wall, ips;
    for (std::size_t i : pick) {
        wall.push_back(passes[i].wallS);
        ips.push_back(passes[i].instsPerS);
    }
    return {best(wall, false), best(ips, true)};
}

/**
 * Refuse (throw UnsteadyMetric) when the readings from the run's even
 * and odd passes differ by more than the metric's bound, relative to
 * the whole run's reading: the run then disagrees with itself by more
 * than the change it is meant to resolve.  The halves interleave, so a
 * slow phase of the host reaches both alike; this check therefore
 * catches an unsteady run, not the spread from one run to the next.
 */
void
requireSteady(const std::string &name, double full, double even,
              double odd, std::size_t passes)
{
    const double bound = specOf(name).bound;
    const double spread = std::fabs(even - odd) / full;
    std::cerr << "perfbench: " << name << " " << full
              << ", even/odd difference " << spread << " (bound "
              << bound << ", " << passes << " passes)\n";
    if (passes >= kMinPasses && spread > bound) {
        std::ostringstream os;
        os << name << ": even and odd passes differ by " << spread
           << " of the reading, more than its bound " << bound;
        throw UnsteadyMetric(os.str());
    }
}

/** Check steadiness, then add every end-to-end metric to @p report. */
void
reportEndToEnd(RunReport &report, const std::vector<double> &setup_s,
               const std::vector<Pass> &passes, Reader read,
               double rss_mb, const Accuracy &acc)
{
    std::vector<std::size_t> all, halves[2];
    for (std::size_t i = 0; i < passes.size(); ++i) {
        all.push_back(i);
        halves[i % 2].push_back(i);
    }
    if (passes.empty())
        throw SimException(ErrorKind::Internal, "no timed passes");
    const Reading r = read(passes, all);
    if (halves[1].empty())
        halves[1] = halves[0];
    const Reading even = read(passes, halves[0]);
    const Reading odd = read(passes, halves[1]);
    const std::size_t n = passes.size();
    requireSteady("wall_s", r.wallS, even.wallS, odd.wallS, n);
    requireSteady("sim_insts_per_s", r.instsPerS, even.instsPerS,
                  odd.instsPerS, n);
    report.add("setup_s", median(setup_s), "s");
    report.add("wall_s", r.wallS, "s");
    report.add("sim_insts_per_s", r.instsPerS, "1/s");
    report.add("peak_rss_mb", rss_mb, "MB");
    report.add("paper_claims_held", acc.claimsHeld, "count");
    report.add("paper_table_mae_pp", acc.tableMaePp, "pp");
}

/**
 * Moves the calling thread over the CPUs it may run on, two passes per
 * CPU, and back to all of them when destroyed.  The vCPUs of a shared
 * host differ in speed, each with its own neighbours' load, and the
 * scheduler leaves a busy thread where it first put it; rotating makes
 * every run sample every vCPU, so best-of readings do not depend on
 * that placement.  Two passes per CPU give the even and the odd passes
 * the same CPUs.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed_))
                cpus_.push_back(cpu);
    }

    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof allowed_, &allowed_);
    }

    /** Pin the calling thread for pass @p pass. */
    void
    pin(std::size_t pass) const
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[pass / 2 % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
};

/** Run @p pass until @p seconds have elapsed and kMinPasses ran. */
template <typename Fn>
void
timedPasses(double seconds, Fn pass)
{
    const std::uint64_t start = nowNs();
    const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
    for (std::size_t n = 0; n < kMinPasses || nowNs() - start < budget;
         ++n)
        pass();
}

/** Accuracy from one untimed regeneration, checked like the timed. */
Accuracy
checkedAccuracy(RunReport &report)
{
    const ReportPass pass = regenerateReport();
    report.check(pass.doc == expectedReport());
    return reportAccuracy(pass.doc);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SimException(ErrorKind::Io, "cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Numbers in a Markdown table cell ("21.9 → 14.5", "25.3%"). */
bool
parseNumber(std::string text, double &out)
{
    text.erase(std::remove(text.begin(), text.end(), '%'), text.end());
    text.erase(std::remove(text.begin(), text.end(), ' '), text.end());
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end && *end == '\0';
}

std::vector<std::string>
tableCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::size_t pos = 1;
    while (pos < line.size()) {
        const std::size_t bar = line.find('|', pos);
        if (bar == std::string::npos)
            break;
        std::string cell = line.substr(pos, bar - pos);
        const std::size_t first = cell.find_first_not_of(' ');
        const std::size_t last = cell.find_last_not_of(' ');
        cells.push_back(first == std::string::npos
                            ? std::string()
                            : cell.substr(first, last - first + 1));
        pos = bar + 1;
    }
    return cells;
}

/**
 * One client's seeded job sequence.  Its fresh plans are a fixed set
 * -- one per benchmark x layout x machine, each with a scheme pair
 * fixed by the combination and client -- so every seed does the same
 * work; the seed shuffles their order, places the one fresh plan in
 * each block of kJobsPerFresh jobs (the others re-submit the client's
 * earlier plans) and picks which earlier plans are re-submitted.  A
 * fresh plan is one machine x two distinct schemes: two cells, so it
 * holds both workers and a concurrent re-submission queues behind it.
 */
class PlanStream
{
  public:
    PlanStream(std::uint64_t seed, int client)
        : rng_(seed * 0x9E3779B97F4A7C15ull +
               static_cast<std::uint64_t>(client)),
          client_(static_cast<std::size_t>(client))
    {
        if (servicePool().size() * serviceLayouts().size() * 3 != kFreshPlans)
            throw SimException(ErrorKind::Internal, "kFreshPlans is stale");
        order_.resize(kFreshPlans);
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        std::shuffle(order_.begin(), order_.end(), rng_);
    }

    /** Whether the next job submits a fresh plan. */
    bool
    nextIsFresh()
    {
        const std::size_t pos = job_++ % kJobsPerFresh;
        if (pos == 0) // the client's very first job must be fresh
            fresh_pos_ = job_ == 1 ? 0 : rng_() % kJobsPerFresh;
        return pos == fresh_pos_;
    }

    /** Index of the earlier plan a re-submission repeats. */
    std::size_t pick(std::size_t n) { return rng_() % n; }

    /** The next fresh plan, at @p insts retired per cell. */
    std::string
    freshPlan(std::uint64_t insts)
    {
        static const std::vector<std::string> machines = {"P14", "P18",
                                                          "P112"};
        const std::size_t combo = order_[next_++ % order_.size()];
        const auto &schemes = FetchSchemeRegistry::instance().schemes();
        std::size_t pair = (combo + 7 * client_) %
                           (schemes.size() * (schemes.size() - 1) / 2);
        std::size_t a = 0;
        while (pair >= schemes.size() - 1 - a)
            pair -= schemes.size() - 1 - a++;
        const std::size_t b = a + 1 + pair;
        std::size_t rest = combo;
        const std::string &machine = machines[rest % machines.size()];
        rest /= machines.size();
        const std::string &layout =
            serviceLayouts()[rest % serviceLayouts().size()];
        const std::string &benchmark =
            servicePool()[rest / serviceLayouts().size()];
        return planRequestJson({benchmark}, {machine},
                               {schemes[a].key, schemes[b].key}, {layout},
                               insts, 0);
    }

  private:
    std::mt19937_64 rng_;
    std::size_t client_;
    std::size_t job_ = 0;
    std::size_t fresh_pos_ = 0;
    std::vector<std::size_t> order_;
    std::size_t next_ = 0;
};

/** Submit, long-poll and fetch one job the way `submit` does. */
void
runJob(const std::string &socket, const std::string &body,
       JobRecord &job, SpanRecorder *spans, const std::string &id)
{
    const std::uint64_t t0 = nowNs();
    job.startNs = t0;
    try {
        const ServiceResponse submitted =
            serviceRequest(socket, "POST", "/v1/jobs", body);
        const std::uint64_t t1 = nowNs();
        job.submitMs = (t1 - t0) / 1e6;
        if (submitted.status != 202) {
            job.endNs = t1;
            return;
        }
        auto accepted = parseJson(submitted.body);
        const JsonValue *job_id =
            accepted.ok() ? accepted.value().find("job") : nullptr;
        if (!job_id) {
            job.endNs = t1;
            return;
        }
        const std::string base =
            "/v1/jobs/" + std::to_string(job_id->asU64());
        const ServiceResponse status =
            serviceRequest(socket, "GET", base + "?wait=1");
        const std::uint64_t t2 = nowNs();
        const ServiceResponse result =
            serviceRequest(socket, "GET", base + "/result");
        const std::uint64_t t3 = nowNs();
        job.endNs = t3;
        job.fetchMs = (t3 - t2) / 1e6;
        job.result = result.body;

        auto snap = parseJson(status.body);
        bool done = false;
        std::uint64_t failed = 1;
        if (snap.ok()) {
            const JsonValue &v = snap.value();
            if (const JsonValue *s = v.find("state"))
                done = s->asString() == "done";
            if (const JsonValue *f = v.find("failed"))
                failed = f->asU64();
            if (const JsonValue *c = v.find("cells"))
                job.cells = c->asU64();
            if (const JsonValue *h = v.find("cache_hits"))
                job.cacheHits = h->asU64();
            if (const JsonValue *m = v.find("simulated"))
                job.simulated = m->asU64();
            const JsonValue *lat = v.find("latency");
            const JsonValue *wait =
                lat ? lat->find("queue_wait_us") : nullptr;
            const JsonValue *p50 = wait ? wait->find("p50") : nullptr;
            if (p50)
                job.queueWaitP50Ms = p50->asNumber() / 1000.0;
        }
        job.ok = status.status == 200 && result.status == 200 && done &&
                 failed == 0;
        if (spans) {
            const int track = job.client + 1;
            const std::int64_t parent = spans->add(
                Span{"service.job", t0, t3, kNoParent, id, track});
            spans->add(Span{"service.submit", t0, t1, parent, id, track});
            spans->add(Span{"service.wait", t1, t2, parent, id, track});
            spans->add(
                Span{"service.result_fetch", t2, t3, parent, id, track});
        }
    } catch (const SimException &e) {
        job.endNs = nowNs();
        job.ok = false;
        std::cerr << "perfbench: job failed: " << e.what() << "\n";
    }
}

} // anonymous namespace

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s", false, 0.25},
        {"wall_s", "s", false, 0.25},
        {"sim_insts_per_s", "1/s", true, 0.25},
        {"peak_rss_mb", "MB", false, 0.15},
        {"paper_claims_held", "count", true, 0.01},
        {"paper_table_mae_pp", "pp", false, 0.02},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            {"workload.generate_ms", "ms", false, 0},
            {"compiler.profile_ms", "ms", false, 0},
            {"compiler.layout_ms", "ms", false, 0},
            {"compiler.pad_ms", "ms", false, 0},
            {"exec.record_ms", "ms", false, 0},
            {"exec.replay_mb", "MB", false, 0},
            {"exec.live_fill_ns_per_inst", "ns", false, 0},
            {"exec.replay_fill_ns_per_inst", "ns", false, 0},
            {"exec.fill_share", "ratio", false, 0},
        };
        for (const SchemeInfo &info :
             FetchSchemeRegistry::instance().schemes())
            s.push_back({std::string("fetch.") + info.key +
                             ".ns_per_group",
                         "ns", false, 0});
        for (const SchemeInfo &info :
             FetchSchemeRegistry::instance().schemes())
            s.push_back({std::string("fetch.") + info.key +
                             ".slot_utilization",
                         "ratio", true, 0});
        const std::vector<MetricSpec> rest = {
            {"fetch.share", "ratio", false, 0},
            {"fetch.probe_share_est", "ratio", false, 0},
            {"branch.ns_per_predict", "ns", false, 0},
            {"branch.mispredict_ratio", "ratio", false, 0},
            {"branch.btb_hit_ratio", "ratio", true, 0},
            {"cache.ns_per_access", "ns", false, 0},
            {"cache.miss_ratio", "ratio", false, 0},
            {"core.ns_per_cycle", "ns", false, 0},
            {"core.backend_share", "ratio", false, 0},
            {"sim.run_overhead_us", "us", false, 0},
            {"sweep.parallel_efficiency", "ratio", true, 0},
            {"sweep.tail_idle_ms", "ms", false, 0},
            {"report.serial_ms", "ms", false, 0},
            {"service.submit_ms", "ms", false, 0},
            {"service.result_fetch_ms", "ms", false, 0},
            {"service.queue_wait_p50_ms", "ms", false, 0},
            {"service.hit_p50_ms", "ms", false, 0},
            {"service.miss_p50_ms", "ms", false, 0},
            {"result_cache.hit_ratio", "ratio", true, 0},
            {"service.cells_simulated", "count", false, 0},
            {"service.cells_cache_served", "count", true, 0},
            {"trace.overhead_ratio", "ratio", false, 0},
        };
        s.insert(s.end(), rest.begin(), rest.end());
        return s;
    }();
    return specs;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-report", "kernel-steady"};
    return names;
}

const std::string &
expectedReport()
{
    static const std::string doc =
        readFile(std::string(PERFBENCH_ROOT) + "/docs/RESULTS.md");
    return doc;
}

ReportPass
regenerateReport()
{
    ReportPass pass;
    Session session;
    ReproReportOptions options;
    options.threads = kReportThreads;
    options.dynInsts = kReportInsts;
    options.progress = [&pass](std::size_t, std::size_t) {
        pass.cellDoneNs.push_back(nowNs());
    };
    const std::uint64_t t0 = nowNs();
    pass.doc = generateReproReport(session, options, &pass.grid);
    pass.wallNs = nowNs() - t0;
    return pass;
}

Accuracy
reportAccuracy(const std::string &doc)
{
    Accuracy acc;
    double error_sum = 0;
    std::istringstream lines(doc);
    std::string line, section;
    bool table3 = false;
    while (std::getline(lines, line)) {
        if (line.rfind("## ", 0) == 0) {
            section = line;
            table3 = false;
            continue;
        }
        if (line.empty() || line[0] != '|')
            continue;
        const std::vector<std::string> cells = tableCells(line);
        if (!cells.empty() && cells.back() == "✓")
            ++acc.claimsHeld;
        if (section.rfind("## Table 2", 0) == 0) {
            // "paper → ours" cells; "–" marks no paper value.
            const std::string arrow_text = "→";
            for (const std::string &cell : cells) {
                const std::size_t arrow = cell.find(arrow_text);
                double paper = 0, ours = 0;
                if (arrow == std::string::npos ||
                    !parseNumber(cell.substr(0, arrow), paper) ||
                    !parseNumber(cell.substr(arrow + arrow_text.size()),
                                 ours))
                    continue;
                error_sum += std::fabs(paper - ours);
                ++acc.tableCells;
            }
        } else if (section.rfind("## Table 3", 0) == 0) {
            if (cells.size() == 5 && cells[4] == "reduction (paper)") {
                table3 = true;
                continue;
            }
            double ours = 0, paper = 0;
            if (table3 && cells.size() == 5 &&
                parseNumber(cells[3], ours) &&
                parseNumber(cells[4], paper)) {
                error_sum += std::fabs(paper - ours);
                ++acc.tableCells;
            }
        }
    }
    if (acc.tableCells)
        acc.tableMaePp = error_sum / static_cast<double>(acc.tableCells);
    return acc;
}

RunReport
runPaperReport(const Options &options)
{
    RunReport report;
    const std::string &expected = expectedReport();
    // Set-up is the warm-up regeneration (thread pool, allocator and
    // page cache); nothing carries over, each pass uses a new Session.
    std::vector<double> setup_s;
    for (int i = 0; i < kReportSetupReps; ++i) {
        const ReportPass warm = regenerateReport();
        report.check(warm.doc == expected);
        setup_s.push_back(warm.wallNs / 1e9);
    }
    std::vector<Pass> passes;
    std::string last;
    timedPasses(options.seconds, [&] {
        ReportPass run = regenerateReport();
        report.check(run.doc == expected);
        Pass pass;
        pass.wallS = run.wallNs / 1e9;
        double insts = 0;
        for (const RunResult &cell : run.grid.runs)
            insts += static_cast<double>(cell.counters.retired);
        pass.instsPerS = insts / pass.wallS;
        passes.push_back(std::move(pass));
        last = std::move(run.doc);
    });
    reportEndToEnd(report, setup_s, passes, readReport, peakRssMb(),
                   reportAccuracy(last));
    return report;
}

RunReport
runKernelSteady(const Options &options)
{
    RunReport report;
    const int input = static_cast<int>(options.seed % (kEvalInput + 1));
    const std::vector<RunConfig> configs = kernelGrid(input);
    const FingerprintSet expected = loadFingerprints(fingerprintPath());
    ReplayOptions replay;
    replay.policy = ReplayPolicy::InMemory;

    std::vector<double> setup_s;
    std::unique_ptr<Session> session;
    for (int i = 0; i < kSetupReps; ++i) {
        session.reset();
        const std::uint64_t t0 = nowNs();
        session = std::make_unique<Session>();
        for (const std::string &name : kernelBenchmarks())
            session->workload(name, LayoutKind::Unordered);
        for (const RunConfig &config : configs)
            session->prepareReplay(config, replay);
        setup_s.push_back((nowNs() - t0) / 1e9);
    }

    SweepOptions sweep_options;
    sweep_options.threads = 1;
    sweep_options.replay = replay;
    sweep_options.faults = FaultPlan{};
    SweepEngine engine(*session, sweep_options);

    // Discarded warm-up: the first cell of each scheme.
    std::vector<RunConfig> warmup;
    for (const RunConfig &config : configs)
        if (std::none_of(warmup.begin(), warmup.end(),
                         [&](const RunConfig &w) {
                             return w.scheme == config.scheme;
                         }))
            warmup.push_back(config);
    engine.run(warmup);

    // One sweep worker runs its cells on this thread, which is unpinned
    // again before the accuracy regeneration starts its threads.
    std::vector<Pass> passes;
    {
        const CpuRotation rotation;
        timedPasses(options.seconds, [&] {
            rotation.pin(passes.size());
            const std::uint64_t t0 = nowNs();
            const SweepResult sweep = engine.run(configs);
            Pass pass;
            pass.wallS = (nowNs() - t0) / 1e9;
            double insts = 0;
            for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
                const RunResult &run = sweep.runs[i];
                auto it = expected.find({input, cellLabel(run.config)});
                report.check(sweep.cellOk(i) && it != expected.end() &&
                             it->second ==
                                 fingerprint(run.config, run.counters));
                insts += static_cast<double>(run.counters.retired);
                pass.cellMs.push_back(sweep.host[i].wallNs / 1e6);
            }
            pass.instsPerS = insts / pass.wallS;
            passes.push_back(std::move(pass));
        });
    }
    const double rss = peakRssMb();
    session.reset();
    reportEndToEnd(report, setup_s, passes, readCells, rss,
                   checkedAccuracy(report));
    return report;
}

void
captureFingerprints(std::ostream &os)
{
    os << "# Expected kernel-steady RunCounters fingerprints: input id,\n"
          "# cell, FNV-1a of the cell's checkpoint line.  Regenerate with\n"
          "# `perfbench --capture-fingerprints` on a trusted commit.\n";
    for (int input = 0; input <= kEvalInput; ++input) {
        Session session;
        SweepOptions sweep_options;
        sweep_options.threads = kReportThreads;
        sweep_options.faults = FaultPlan{};
        SweepEngine engine(session, sweep_options);
        const SweepResult sweep = engine.run(kernelGrid(input));
        for (const RunResult &run : sweep.runs)
            os << input << " " << cellLabel(run.config) << " "
               << fingerprint(run.config, run.counters) << "\n";
    }
}

ServiceLoad
driveService(const std::string &socket, std::uint64_t seed,
             std::uint64_t insts_base, std::size_t jobs_per_client,
             SpanRecorder *spans)
{
    ServiceLoad load;
    std::mutex mutex; // guards load
    auto client = [&](int c) {
        PlanStream stream(seed, c);
        std::vector<std::size_t> history;
        std::vector<JobRecord> mine;
        std::uint64_t fresh = 0;
        while (mine.size() < jobs_per_client) {
            JobRecord job;
            job.client = c;
            job.hit = !stream.nextIsFresh();
            std::string body;
            if (job.hit) {
                job.plan = history[stream.pick(history.size())];
                std::lock_guard<std::mutex> lock(mutex);
                body = load.plans[job.plan];
            } else {
                body = stream.freshPlan(
                    insts_base + kServiceClients * fresh++ +
                    static_cast<std::uint64_t>(c));
                std::lock_guard<std::mutex> lock(mutex);
                job.plan = load.plans.size();
                load.plans.push_back(body);
                history.push_back(job.plan);
            }
            runJob(socket, body, job, spans,
                   "job " + std::to_string(c) + "." +
                       std::to_string(mine.size()));
            mine.push_back(std::move(job));
        }
        std::lock_guard<std::mutex> lock(mutex);
        for (JobRecord &job : mine)
            load.jobs.push_back(std::move(job));
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kServiceClients; ++c)
        clients.emplace_back(client, c);
    for (std::thread &t : clients)
        t.join();
    std::sort(load.jobs.begin(), load.jobs.end(),
              [](const JobRecord &a, const JobRecord &b) {
                  return a.endNs < b.endNs;
              });
    return load;
}

std::vector<std::uint64_t>
verifyJobs(const ServiceLoad &load, RunReport &report)
{
    // One-shot references: every plan's configs, exactly as the
    // service parses them, run as one sweep on a fresh Session and
    // rendered per plan the way `sweep --json` renders a plan.
    std::vector<RunConfig> all;
    std::vector<std::size_t> first(load.plans.size() + 1, 0);
    for (std::size_t p = 0; p < load.plans.size(); ++p) {
        auto request = parseJson(load.plans[p]);
        auto configs = planConfigsFromJson(request.value());
        all.insert(all.end(), configs.value().begin(), configs.value().end());
        first[p + 1] = all.size();
    }
    Session session;
    SweepOptions sweep_options;
    sweep_options.threads = kReportThreads;
    sweep_options.faults = FaultPlan{};
    SweepEngine engine(session, sweep_options);
    const SweepResult sweep = engine.run(all);

    std::vector<std::string> docs(load.plans.size());
    std::vector<std::uint64_t> retired(load.plans.size(), 0);
    for (std::size_t p = 0; p < load.plans.size(); ++p) {
        const std::vector<RunResult> runs(
            sweep.runs.begin() + static_cast<std::ptrdiff_t>(first[p]),
            sweep.runs.begin() + static_cast<std::ptrdiff_t>(first[p + 1]));
        std::ostringstream os;
        writeRunsJson(os, runs);
        docs[p] = os.str();
        for (const RunResult &run : runs)
            retired[p] += run.counters.retired;
    }
    for (const JobRecord &job : load.jobs) {
        const bool counts_ok = job.hit ? job.cacheHits == job.cells
                                       : job.simulated == job.cells;
        report.check(job.ok && counts_ok && job.cells > 0 &&
                     job.result == docs[job.plan]);
    }
    return retired;
}

namespace
{

std::mutex g_sockets_mutex;
std::vector<std::string> g_sockets; // guarded by g_sockets_mutex

} // anonymous namespace

SweepService &
startService(const std::string &work_dir)
{
    ServiceOptions options;
    {
        std::lock_guard<std::mutex> lock(g_sockets_mutex);
        options.socketPath = work_dir + "/perfbench-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(g_sockets.size()) + ".sock";
        g_sockets.push_back(options.socketPath);
    }
    options.threads = kServiceWorkers;
    auto *service = new SweepService(options); // never deleted: see header
    service->start();
    for (const std::string &name : servicePool()) {
        service->session().workload(name, LayoutKind::Unordered);
        service->session().workload(name, LayoutKind::Reordered);
    }
    driveService(service->socketPath(), 0, kWarmupInstsBase, 3);
    return *service;
}

void
removeServiceSockets()
{
    std::lock_guard<std::mutex> lock(g_sockets_mutex);
    std::error_code ec;
    for (const std::string &path : g_sockets)
        std::filesystem::remove(path, ec);
}

} // namespace perfbench
