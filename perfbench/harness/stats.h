/**
 * @file
 * Sample statistics and the result document of the benchmark harness.
 */

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** Median (mean of the two middle values for an even count). */
double median(std::vector<double> samples);

/**
 * A run's reading of a timed metric from repeated samples of it: the
 * best sample (the minimum when lower is better, the maximum when
 * higher is better).  The reference host is a shared 4-vCPU VM whose
 * speed drifts -- over seconds and over minutes -- by up to ~2x with
 * other tenants' load (visible in CPU time too), so a median reads
 * whatever share of the run was contended and does not repeat.
 * Contention only ever slows a sample, and even a contended stretch
 * leaves some samples at full speed, so the best of many samples
 * repeats to a few percent.
 */
double best(const std::vector<double> &samples, bool higher_is_better);

/** Metric names: [A-Za-z0-9][A-Za-z0-9_.-]{0,63}. */
bool validMetricName(const std::string &name);

/** Units: [A-Za-z0-9_/%.-]{1,16}. */
bool validUnit(const std::string &unit);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The harness's one-line result document. */
struct RunReport
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    /** Count one checked operation; a failed check clears correct. */
    void
    check(bool ok)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            correct = false;
        }
    }

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }
};

/** Write @p report as one compact JSON line (no trailing newline). */
void writeReport(std::ostream &os, const RunReport &report);

} // namespace perfbench

#endif // PERFBENCH_STATS_H_
