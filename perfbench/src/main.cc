/**
 * @file
 * perfbench: runs one named workload from a seed and prints every
 * metric by name and unit; the last stdout line is the JSON result.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <";
    for (std::size_t i = 0; i < workloadNames().size(); ++i)
        std::cerr << (i ? "|" : "") << workloadNames()[i];
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1>\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-')
        usage("bad value '" + text + "' for " + flag);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = parseCount(flag, value);
        else if (flag == "--seconds")
            opts.seconds =
                static_cast<double>(parseCount(flag, value));
        else if (flag == "--trace")
            opts.trace = parseCount(flag, value) != 0;
        else
            usage("unknown flag " + flag);
    }
    if (opts.seconds < 1 || opts.seconds > 60)
        usage("--seconds must be in [1, 60]");

    RunReport report;
    if (opts.workload == "train-rm")
        report = runTrainRm(opts);
    else if (opts.workload == "serve-3tier")
        report = runServe3Tier(opts);
    else
        usage("unknown workload '" + opts.workload + "'");

    printResult(std::cout, report.checks, report.metrics);
    return report.checks.failed() == 0 ? 0 : 1;
}
