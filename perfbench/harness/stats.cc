#include "harness/stats.h"

#include <algorithm>

#include "stats/json.h"

namespace perfbench
{

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double
best(const std::vector<double> &samples, bool higher_is_better)
{
    if (samples.empty())
        return 0.0;
    return higher_is_better
               ? *std::max_element(samples.begin(), samples.end())
               : *std::min_element(samples.begin(), samples.end());
}

namespace
{

bool
nameChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

} // anonymous namespace

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !nameChar(name[0]) ||
        name[0] == '_' || name[0] == '.' || name[0] == '-')
        return false;
    return std::all_of(name.begin(), name.end(), nameChar);
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return nameChar(c) || c == '/' || c == '%';
    });
}

void
writeReport(std::ostream &os, const RunReport &report)
{
    fetchsim::JsonWriter json(os, 0);
    json.beginObject();
    json.key("correct").value(report.correct);
    json.key("attempted").value(report.attempted);
    json.key("failed").value(report.failed);
    json.key("metrics").beginObject();
    for (const Metric &m : report.metrics) {
        json.key(m.name).beginObject();
        json.key("value").value(m.value);
        json.key("unit").value(m.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
}

} // namespace perfbench
