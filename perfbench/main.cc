/**
 * @file
 * cxl0_perfbench — one seeded workload per invocation, measured end to
 * end (--trace 0) or layer by layer (--trace 1). The last line of
 * standard output is the JSON result
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 * and the exit status is nonzero when any output was wrong.
 *
 *   cxl0_perfbench --workload ring_explore|scenario_stream
 *                  --seed N --seconds S --trace 0|1
 *                  [--corpus DIR] [--trace-out FILE] [--commit ID]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace perfbench;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload ring_explore|scenario_stream "
                 "--seed N --seconds S --trace 0|1 "
                 "[--corpus DIR] [--trace-out FILE] [--commit ID]\n",
                 argv0);
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            return false;
        const std::string flag = argv[i];
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (!(a.seconds > 0))
                return false;
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                return false;
            a.trace = v[0] == '1';
        } else if (flag == "--corpus") {
            a.corpusDir = v;
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else if (flag == "--commit") {
            a.commit = v;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return !a.workload.empty();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/** The machine block every result carries. */
std::string
machineJson(const Args &a)
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << jsonString(cpuModel())
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"commit\": " << jsonString(a.commit) << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage(argv[0]);

    Spans spans;
    if (args.trace) {
        spans.tracer = std::make_unique<cxl0::obs::Tracer>(1 << 18, 256);
        spans.main = spans.tracer->acquireRing("bench-main");
    }

    Result res;
    try {
        if (args.workload == "ring_explore")
            res = runRingExplore(args, spans);
        else if (args.workload == "scenario_stream")
            res = runScenarioStream(args, spans);
        else
            return usage(argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    for (Metric &m : res.metrics)
        if (!std::isfinite(m.value)) {
            res.check(false, m.name + " is not a finite number");
            m.value = 0;
        }
    if (spans.tracer && !args.traceOut.empty()) {
        if (!spans.tracer->writeFile(args.traceOut)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         args.traceOut.c_str());
            return 2;
        }
        res.note("trace: " + args.traceOut + " (" +
                 std::to_string(spans.tracer->droppedEvents()) +
                 " events dropped)");
    }

    std::printf("workload %s, seed %llu, %.0f s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("machine: %s\n", machineJson(args).c_str());
    for (const std::string &n : res.notes)
        std::printf("%s\n", n.c_str());
    for (const Metric &m : res.metrics)
        std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("fail_rate %.6g (%zu of %zu checked outputs wrong)\n",
                res.attempted ? static_cast<double>(res.failed) /
                                    static_cast<double>(res.attempted)
                              : 1.0,
                res.failed, res.attempted);

    const bool correct = res.failed == 0 && res.attempted > 0;
    std::ostringstream js;
    js.precision(17);
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << res.attempted
       << ", \"failed\": " << res.failed << ", \"metrics\": {";
    for (size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric &m = res.metrics[i];
        js << (i ? ", " : "") << jsonString(m.name)
           << ": {\"value\": " << m.value
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    return correct ? 0 : 1;
}
