/**
 * @file
 * The benchmark's workloads and the helpers they share with the
 * traced run.  See perfbench/README.md for what each workload
 * exercises, what it bypasses, and every metric it reports.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/spans.h"
#include "harness/stats.h"
#include "sim/service.h"
#include "sim/sweep.h"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build"; //!< sockets, Chrome traces
};

/** Name, unit and direction of one metric the harness reports. */
struct MetricSpec
{
    std::string name;
    std::string unit;
    bool higherIsBetter;
    double bound; //!< allowed relative worsening; 0 for per-layer
};

/** The end-to-end metrics, in BENCHMARK.json order. */
const std::vector<MetricSpec> &endToEndMetrics();

/** The per-layer metrics of the traced run, in BENCHMARK.json order. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Thrown instead of reporting a timed metric whose spread across the
 * run's passes exceeds the metric's bound: such a number cannot
 * resolve a change of that size, so the run reports nothing.
 */
struct UnsteadyMetric : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Timed workloads (tracing off). */
RunReport runPaperReport(const Options &options);
RunReport runKernelSteady(const Options &options);

/** The layer-by-layer traced run (traced.cc). */
RunReport runTraced(const Options &options);

/**
 * Print the expected kernel-steady fingerprints for every input id,
 * one "input label fingerprint" line per cell, from Session::run.
 */
void captureFingerprints(std::ostream &os);

// ------------------------------------------------------------------
// Shared with the traced run.
// ------------------------------------------------------------------

/** Sweep workers for paper-report (and its traced pass). */
constexpr int kReportThreads = 4;

/** Retired-instruction budget docs/RESULTS.md is generated at. */
constexpr std::uint64_t kReportInsts = 120000;

/** One regeneration of the reproduction report. */
struct ReportPass
{
    std::string doc;
    fetchsim::SweepResult grid;
    std::uint64_t wallNs = 0;
    std::vector<std::uint64_t> cellDoneNs; //!< completion times
};

/** generateReproReport into a fresh Session at kReportThreads. */
ReportPass regenerateReport();

/** The checked-in docs/RESULTS.md (throws when unreadable). */
const std::string &expectedReport();

/** Accuracy guards read from a rendered report. */
struct Accuracy
{
    double claimsHeld = 0;  //!< verdict cells reading ✓
    double tableMaePp = 0;  //!< mean |paper - ours| over Tables 2/3
    std::size_t tableCells = 0;
};
Accuracy reportAccuracy(const std::string &doc);

/** One job of a closed-loop service session. */
struct JobRecord
{
    std::size_t plan = 0;     //!< index into ServiceLoad::plans
    bool hit = false;         //!< re-submission of an earlier plan
    int client = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    double submitMs = 0;      //!< POST /v1/jobs round trip
    double fetchMs = 0;       //!< GET /result round trip
    double queueWaitP50Ms = 0; //!< from the job's final snapshot
    bool ok = false;          //!< 2xx answers, state done, no failures
    std::size_t cells = 0;
    std::size_t cacheHits = 0;
    std::size_t simulated = 0;
    std::string result;       //!< result document bytes

    double latencyMs() const { return (endNs - startNs) / 1e6; }
};

/** Plans and jobs of one closed-loop session against a service. */
struct ServiceLoad
{
    std::vector<std::string> plans; //!< request bodies
    std::vector<JobRecord> jobs;    //!< in completion order
};

/**
 * Drive @p socket with a closed loop of two clients until each has
 * completed @p jobs_per_client jobs.  Plans are drawn from @p seed;
 * fresh plans get budgets from @p insts_base up, so sessions with
 * different bases never share result-cache entries.  With @p spans,
 * each job records a span tree (job → submit, wait, result fetch) on
 * the client's trace row.
 */
ServiceLoad driveService(const std::string &socket, std::uint64_t seed,
                         std::uint64_t insts_base,
                         std::size_t jobs_per_client,
                         SpanRecorder *spans = nullptr);

/**
 * Check every job's result document against a one-shot
 * writeRunsJson for the same plan (and each job's cache-hit/miss
 * counts against its kind), counting each job into @p report.
 * Returns the retired instructions of each plan of @p load.
 */
std::vector<std::uint64_t> verifyJobs(const ServiceLoad &load,
                                      RunReport &report);

/**
 * Start a SweepService with kServiceWorkers workers on a new socket
 * under @p work_dir, prepare the workloads its plans draw from, and
 * warm both request paths.
 *
 * The service is deliberately never destroyed: it ends with the
 * process.  SweepService::drain() can deadlock -- it sets stopping_
 * without holding mutex_, so a worker re-checking its wait predicate
 * right after drain's first wake-up misses the second one and drain()
 * blocks forever joining it (about one drain in 150 here) -- and the
 * benchmark measures the request path, not shutdown.
 */
fetchsim::SweepService &startService(const std::string &work_dir);

/** Remove the socket files of every service startService() made. */
void removeServiceSockets();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
