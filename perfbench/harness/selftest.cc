/**
 * @file
 * Self-check tests of the benchmark harness: the statistics it reports
 * with, the metric tables against BENCHMARK.json, the timing
 * decorators' counter identity, and the traced run's spans.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "exec/executor.h"
#include "exec/replay_buffer.h"
#include "fetch/scheme_registry.h"
#include "harness/cells.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "sim/session.h"
#include "stats/json_parse.h"

using namespace fetchsim;
using namespace perfbench;

namespace
{

/** A short cell that exercises taken-branch collapsing. */
RunConfig
shortCell()
{
    RunConfig config;
    config.benchmark = "eqntott";
    config.machine = MachineModel::P112;
    config.scheme = SchemeKind::CollapsingBuffer;
    config.maxRetired = 20000;
    return config;
}

} // anonymous namespace

TEST(PerfbenchStats, Median)
{
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PerfbenchStats, BestFollowsTheMetricsDirection)
{
    EXPECT_DOUBLE_EQ(best({3, 1, 4, 1.5}, false), 1);
    EXPECT_DOUBLE_EQ(best({3, 1, 4, 1.5}, true), 4);
    EXPECT_DOUBLE_EQ(best({}, false), 0);
}

TEST(PerfbenchStats, MetricNameAndUnitCharset)
{
    EXPECT_TRUE(validMetricName("fetch.multi-banked.ns_per_group"));
    EXPECT_TRUE(validMetricName("p95_ms"));
    EXPECT_TRUE(validMetricName("9lives"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_hidden"));
    EXPECT_FALSE(validMetricName(".dot"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_TRUE(validUnit("1/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("m s"));
    EXPECT_FALSE(validUnit(std::string(17, 's')));
}

TEST(PerfbenchStats, ReportLineIsOneJsonObject)
{
    RunReport report;
    report.check(true);
    report.check(false);
    report.add("wall_s", 1.25, "s");
    std::ostringstream os;
    writeReport(os, report);
    EXPECT_EQ(os.str().find('\n'), std::string::npos);
    auto parsed = parseJson(os.str());
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed.value().find("correct")->asBool());
    EXPECT_EQ(parsed.value().find("attempted")->asU64(), 2u);
    EXPECT_EQ(parsed.value().find("failed")->asU64(), 1u);
    const JsonValue *wall = parsed.value().find("metrics")->find("wall_s");
    ASSERT_NE(wall, nullptr);
    EXPECT_DOUBLE_EQ(wall->find("value")->asNumber(), 1.25);
    EXPECT_EQ(wall->find("unit")->asString(), "s");
}

TEST(PerfbenchMetrics, TablesMatchBenchmarkJson)
{
    std::ifstream in(std::string(PERFBENCH_ROOT) + "/BENCHMARK.json");
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    auto doc = parseJson(text.str());
    ASSERT_TRUE(doc.ok());

    auto expectSame = [&](const char *key,
                          const std::vector<MetricSpec> &specs,
                          bool bounded) {
        const std::vector<JsonValue> &listed =
            doc.value().find(key)->elements();
        ASSERT_EQ(listed.size(), specs.size()) << key;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const MetricSpec &spec = specs[i];
            EXPECT_TRUE(validMetricName(spec.name)) << spec.name;
            EXPECT_TRUE(validUnit(spec.unit)) << spec.unit;
            EXPECT_EQ(listed[i].find("name")->asString(), spec.name);
            EXPECT_EQ(listed[i].find("unit")->asString(), spec.unit);
            EXPECT_EQ(listed[i].find("better")->asString(),
                      spec.higherIsBetter ? "higher" : "lower");
            if (bounded) {
                EXPECT_DOUBLE_EQ(listed[i].find("bound")->asNumber(),
                                 spec.bound);
                EXPECT_LE(spec.bound, 0.25);
            }
        }
    };
    expectSame("end_to_end", endToEndMetrics(), true);
    expectSame("per_layer", perLayerMetrics(), false);

    const std::vector<JsonValue> &workloads =
        doc.value().find("workloads")->elements();
    ASSERT_EQ(workloads.size(), workloadNames().size());
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(workloads[i].find("name")->asString(), workloadNames()[i]);
}

TEST(PerfbenchCells, KernelGridCoversEveryRegisteredScheme)
{
    const std::vector<RunConfig> grid = kernelGrid(kEvalInput);
    EXPECT_EQ(grid.size(), kernelBenchmarks().size() * 2 *
                               FetchSchemeRegistry::instance().schemes().size());
    const FingerprintSet expected = loadFingerprints(fingerprintPath());
    for (int input = 0; input <= kEvalInput; ++input)
        for (const RunConfig &config : kernelGrid(input))
            EXPECT_TRUE(expected.count({input, cellLabel(config)}))
                << input << " " << cellLabel(config);
}

TEST(PerfbenchCells, DecoratedCellMatchesSessionRun)
{
    const RunConfig config = shortCell();
    Session session;
    const RunResult base = session.run(config);
    const Workload &wl = session.workload(config.benchmark, config.layout);

    // Over a replay of the recorded stream, as the traced run does.
    Executor recorder(wl, config.input);
    const DynTrace trace =
        recordStream(recorder, config.maxRetired + kReplayStreamSlack);
    TraceReplaySource replay(trace);
    CellTiming timing;
    const RunCounters replayed = runCell(config, replay, &timing);
    EXPECT_EQ(fingerprint(config, replayed),
              fingerprint(config, base.counters));
    EXPECT_GT(timing.fill.items, config.maxRetired);
    EXPECT_GE(timing.formGroup.calls, base.counters.fetchGroups);
    EXPECT_LE(timing.fill.ns + timing.formGroup.ns, timing.runNs);

    // Over the live executor.
    Executor live(wl, config.input);
    CellTiming live_timing;
    const RunCounters executed = runCell(config, live, &live_timing);
    EXPECT_EQ(fingerprint(config, executed),
              fingerprint(config, base.counters));
}

TEST(PerfbenchSpans, SelfTimeSubtractsChildCoverageOnce)
{
    std::vector<Span> spans = {
        {"parent", 0, 100, kNoParent, "", 0},
        {"a", 10, 30, 0, "", 0},
        {"b", 20, 40, 0, "", 0}, // overlaps a
        {"c", 50, 60, 0, "", 0},
        {"grandchild", 50, 55, 3, "", 0},
        {"outside", 90, 120, 0, "", 0}, // clipped to the parent
    };
    EXPECT_EQ(selfTimeNs(spans, 0), 100u - 30u - 10u - 10u);
    EXPECT_EQ(selfTimeNs(spans, 3), 5u);
}

TEST(PerfbenchSpans, SpansCarryTheDecoratorTotals)
{
    const RunConfig config = shortCell();
    Session session;
    const Workload &wl = session.workload(config.benchmark, config.layout);
    Executor recorder(wl, config.input);
    const DynTrace trace =
        recordStream(recorder, config.maxRetired + kReplayStreamSlack);
    TraceReplaySource replay(trace);

    SpanRecorder recorder_spans;
    SpanSink sink{&recorder_spans, kNoParent, "cell", 1 << 30};
    CellTiming timing;
    runCell(config, replay, &timing, sink);

    const std::vector<Span> spans = recorder_spans.spans();
    std::int64_t run = -1;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == "proc.run")
            run = static_cast<std::int64_t>(i);
    ASSERT_GE(run, 0);
    double fill = 0, fetch = 0;
    for (const Span &s : spans) {
        if (s.parent != run)
            continue;
        EXPECT_GE(s.startNs, spans[run].startNs);
        EXPECT_LE(s.endNs, spans[run].endNs);
        (s.name == "exec.fill" ? fill : fetch) +=
            static_cast<double>(s.endNs - s.startNs);
    }
    // Every call was recorded, so the spans carry the exact totals.
    EXPECT_DOUBLE_EQ(fill, static_cast<double>(timing.fill.ns));
    EXPECT_DOUBLE_EQ(fetch, static_cast<double>(timing.formGroup.ns));
    EXPECT_LT(fill + fetch, static_cast<double>(timing.runNs));
}
