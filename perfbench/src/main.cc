/**
 * @file
 * pstat_perfbench — one workload per invocation:
 *
 *   pstat_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--smoke]
 *
 * Workloads: stream-fixed, ladder-lowq, serve-small, hmm-forward
 * (perfbench/README.md says why each exists). The working directory
 * receives the run's shards, socket and trace file. The last stdout
 * line is one JSON object; the exit status is non-zero when any
 * output check failed or the run could not complete.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hh"

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pstat_perfbench: %s\nusage: pstat_perfbench "
                 "--workload <stream-fixed|ladder-lowq|serve-small|"
                 "hmm-forward> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke]\n",
                 why);
    std::exit(2);
}

perfbench::Options
parseOptions(int argc, char **argv)
{
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            options.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad --seed");
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(options.seconds > 0))
                usage("bad --seconds");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace");
            options.trace = value == "1";
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (options.workload.empty())
        usage("missing --workload");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Options options = parseOptions(argc, argv);
    perfbench::Report report;
    try {
        if (options.workload == "stream-fixed")
            perfbench::runStreamFixed(options, report);
        else if (options.workload == "ladder-lowq")
            perfbench::runLadderLowq(options, report);
        else if (options.workload == "serve-small")
            perfbench::runServeSmall(options, report);
        else if (options.workload == "hmm-forward")
            perfbench::runHmmForward(options, report);
        else
            usage(("unknown workload " + options.workload).c_str());
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pstat_perfbench: %s\n", error.what());
        return 1;
    }
    if (!options.trace)
        report.set("peak_rss_mib", perfbench::peakRssMib());
    perfbench::printReport(options, report);
    return report.correct() ? 0 : 1;
}
