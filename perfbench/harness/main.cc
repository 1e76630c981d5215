/**
 * @file
 * perfbench: the repository benchmark harness.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR]
 *   perfbench --capture-fingerprints
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed and the metrics (end-to-end with --trace 0,
 * per-layer with --trace 1).  Exit codes: 0 with a result (check
 * `correct`), 2 usage, 3 a timed metric too unsteady to report,
 * 1 any other failure (no result printed).
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "core/error.h"
#include "harness/workloads.h"
#include "stats/log.h"

using namespace perfbench;

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n"
                 "       perfbench --capture-fingerprints\n";
    return 2;
}

bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--capture-fingerprints") {
            args[flag] = "1";
        } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
            args[flag] = argv[++i];
        } else {
            return usage("bad argument " + flag);
        }
    }

    try {
        // The service's per-request access log would measure the
        // output pipe rather than the service; warnings still show.
        fetchsim::Logger::instance().setLevel(fetchsim::LogLevel::Warn);
        if (args.count("--capture-fingerprints")) {
            captureFingerprints(std::cout);
            return 0;
        }
        Options options;
        std::uint64_t seconds = 0;
        if (!args.count("--workload") ||
            !parseU64(args["--seed"], options.seed) ||
            !parseU64(args["--seconds"], seconds) || seconds == 0 ||
            (args["--trace"] != "0" && args["--trace"] != "1"))
            return usage("missing or malformed arguments");
        options.workload = args["--workload"];
        options.seconds = static_cast<double>(seconds);
        options.trace = args["--trace"] == "1";
        if (args.count("--work-dir"))
            options.workDir = args["--work-dir"];

        RunReport report;
        if (options.trace) {
            bool known = false;
            for (const std::string &name : workloadNames())
                known = known || name == options.workload;
            if (!known)
                return usage("unknown workload " + options.workload);
            report = runTraced(options);
        } else if (options.workload == "paper-report") {
            report = runPaperReport(options);
        } else if (options.workload == "kernel-steady") {
            report = runKernelSteady(options);
        } else {
            return usage("unknown workload " + options.workload);
        }
        writeReport(std::cout, report);
        std::cout << std::endl;
        return 0;
    } catch (const UnsteadyMetric &e) {
        std::cerr << "perfbench: refusing to report: " << e.what() << "\n";
        return 3;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
