/**
 * @file
 * Shared plumbing of the CXL0 checker benchmark (cxl0_perfbench):
 * arguments, the result record, timing statistics, phase-local peak
 * RSS, and the benchmark's own span rings.
 *
 * The benchmark drives the checkers only through their public APIs
 * and changes nothing under src/. See perfbench/README.md for the
 * workloads and what each metric means.
 */

#ifndef CXL0_PERFBENCH_BENCH_HH
#define CXL0_PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/engine.hh"
#include "model/semantics.hh"
#include "obs/trace.hh"

namespace perfbench
{

/** Thread counts every workload compares (nproc = 4 on the target). */
constexpr size_t kWideThreads = 4;

/** Command-line arguments. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Root of the scenario corpus (corpus/litmus, corpus/fuzz). */
    std::string corpusDir = "corpus";
    /** Perfetto JSON path written by a traced run. */
    std::string traceOut;
    /** Source identity of the measured build (commit or digest). */
    std::string commit = "unknown";
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * The outcome of one benchmark run: correctness counters plus the
 * metrics of whichever set (end-to-end or per-layer) the run reports.
 */
struct Result
{
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count one checked request; `ok` false records a failure. */
    void check(bool ok, const std::string &what);

    void note(const std::string &line) { notes.push_back(line); }
};

/** Seconds on the steady clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> v);

/** Smallest element; 0 when empty. */
double lowest(const std::vector<double> &v);

/** Nearest-rank percentile, p in (0, 100]; 0 when empty. */
double percentile(std::vector<double> v, double p);

/** Resident set size of this process right now, in bytes. */
uint64_t rssBytes();

/** A forked child computing a result (see spawnChild). */
struct Child
{
    int pid = -1;
    int fd = -1; //!< read end of the result pipe
};

/**
 * Fork a child that runs `work` and sends back what it returns; the
 * parent continues at once. Call only while this process runs no
 * other thread.
 */
Child spawnChild(const std::function<std::string()> &work);

/** Wait for `c`: its result, or nullopt when it failed. */
std::optional<std::string> awaitChild(Child &c);

/**
 * A child measuring the peak RSS while `work` runs: a thread samples
 * /proc/self/statm every 5 ms. The child starts from this process's
 * current footprint, so earlier phases and the allocator state later
 * rounds leave behind never leak in (unlike getrusage's
 * process-lifetime ru_maxrss). Collect with peakRssOf().
 */
Child spawnPeakRss(const std::function<void()> &work);

/** The bytes a spawnPeakRss child measured; 0 when it failed. */
double peakRssOf(Child &c);

/**
 * The benchmark's own spans: a tracer plus the main thread's ring.
 * Untraced runs hold no tracer and a null ring, so every ScopedSpan
 * the workloads open is a single branch.
 */
struct Spans
{
    std::unique_ptr<cxl0::obs::Tracer> tracer;
    cxl0::obs::TraceRing *main = nullptr;

    /** A ring for another thread (null when untraced). */
    cxl0::obs::TraceRing *ring(const std::string &name)
    {
        return tracer ? tracer->acquireRing(name) : nullptr;
    }
};

/**
 * Raw end-to-end samples of one run (see addEndToEnd). Every list
 * holds one entry per round. A run reports its fastest round at each
 * thread count, and the 1-thread latencies of that fastest round,
 * because host load shifts whole stretches of seconds by a fifth to a
 * half, and the fastest round is what reproduces from run to run.
 */
struct EndToEnd
{
    double setup = 0; //!< median seconds of the kSetups set-ups
    std::vector<double> t1, tw; //!< round seconds at 1 / wide threads
    /** Per 1-thread round: median and p99 request seconds. */
    std::vector<double> p50, p99;
    size_t requestsPerRound = 1;
    double peakRssBytes = 0;
};

/** Rounds each thread count gets at least, however long they take. */
constexpr size_t kMinRounds = 3;

/** Set-ups per run; setup_s is their median. */
constexpr size_t kSetups = 3;

/**
 * The measured phase: `round(threads)` — one round per call,
 * returning its wall seconds — alternately at 1 and kWideThreads
 * threads until `seconds` have passed and each side has at least
 * kMinRounds samples.
 */
template <typename Round>
void
measureAlternating(double seconds, Round &&round, EndToEnd &e)
{
    const double start = now();
    while (now() - start < seconds || e.t1.size() < kMinRounds ||
           e.tw.size() < kMinRounds) {
        if (e.t1.size() <= e.tw.size())
            e.t1.push_back(round(1));
        else
            e.tw.push_back(round(kWideThreads));
    }
}

/** Emit every end-to-end metric, and note the samples behind them. */
void addEndToEnd(Result &res, const EndToEnd &e);

/**
 * trace.overhead_ratio: the fastest of the first traced 1-thread
 * rounds over the fastest of as many untraced ones taken just before
 * them, so both sides are best-of the same count.
 */
double overheadRatio(const std::vector<double> &traced,
                     const std::vector<double> &untraced);

/** Summed search counters of a set of reports. */
struct StatTotals
{
    size_t requests = 0;
    size_t visited = 0;
    size_t interned = 0;
    size_t statesInterned = 0;
    size_t framesInterned = 0;
    size_t tauSkipped = 0;
    size_t ampleSkipped = 0;
    size_t crashAmpleSkipped = 0;
    size_t stealsAttempted = 0;
    size_t stealsSucceeded = 0;
    size_t inboxBatches = 0;
    double seconds = 0;

    void add(const cxl0::check::CheckReport &r);
};

/**
 * Inputs replayed through the layers' public classes by a traced
 * run: a sample of the workload's own model states and the number of
 * configurations its search admitted.
 */
struct LayerInputs
{
    const cxl0::model::Cxl0Model *model = nullptr;
    std::vector<cxl0::model::State> states;
    size_t configCount = 0;
};

/** Per-call layer costs measured by replayLayers(). */
struct LayerCosts
{
    double applyNs = 0, tauMoveNs = 0, crashNs = 0;
    double internMissNs = 0, internHitNs = 0, internHit4tNs = 0;
    double frameInternNs = 0, tauClosureNs = 0, applyFrameNs = 0;
    double visitedInsertNs = 0, visitedDupNs = 0;
    double visitedBytesPerConfig = 0;
    double frontierPushPopNs = 0, stealNs = 0, handoffNs = 0;
};

/** Sample up to `limit` states of `table`, spread over its ids. */
std::vector<cxl0::model::State>
sampleStates(const cxl0::model::StateTable &table, size_t limit);

/** Replay `in` through the model, interning, frame, visited-set and
 *  frontier layers; spans go to `ring`. */
LayerCosts replayLayers(const LayerInputs &in,
                        cxl0::obs::TraceRing *ring);

/** Emit the per-layer model/engine metrics of `c`. */
void addLayerMetrics(Result &res, const LayerCosts &c);

/**
 * explorer.explained_ratio: the 1-thread search time the measured
 * layer costs account for, with each expansion charged one model
 * step, one state-intern hit and one frontier push/pop, each admitted
 * config one visited-set insert, and each distinct state one intern
 * miss. A lower bound: expansions that generate several successors
 * pay those layers more than once.
 */
double explainedRatio(const StatTotals &t, const LayerCosts &c);

/** The workloads (see perfbench/README.md). */
Result runRingExplore(const Args &args, Spans &spans);
Result runScenarioStream(const Args &args, Spans &spans);

} // namespace perfbench

#endif // CXL0_PERFBENCH_BENCH_HH
