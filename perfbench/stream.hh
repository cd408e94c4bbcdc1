/**
 * @file
 * The scenario stream: seeded fuzz scenarios plus the tracked corpus,
 * served through lang::ScenarioService, and the scenario-layer
 * readings every traced run takes from it.
 */

#ifndef CXL0_PERFBENCH_STREAM_HH
#define CXL0_PERFBENCH_STREAM_HH

#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "check/service.hh"
#include "lang/scenario.hh"
#include "lang/service.hh"

namespace perfbench
{

/** One tracked corpus file. */
struct CorpusFile
{
    std::string name; //!< e.g. "litmus/psn_ring.cxl0"
    std::string text;
};

/** Every *.cxl0 under dir/litmus and dir/fuzz, sorted; throws on an
 *  unreadable directory. */
std::vector<CorpusFile> readCorpus(const std::string &dir);

/** A request stream: distinct scenarios and the order they arrive. */
struct Stream
{
    std::vector<cxl0::lang::Scenario> distinct;
    std::vector<std::string> names;
    std::vector<uint32_t> order; //!< request i -> distinct index
    /** Generated scenarios left out for searching too long. */
    size_t leftOut = 0;
};

/**
 * `requests` requests of which a quarter repeat a recent scenario;
 * the distinct ones are the corpus plus
 * fuzz::generateScenario(scenarioSeed(seed, i)) for the rest, in a
 * seeded arrival order. A generated scenario whose 1-thread search
 * visits more than kMaxScenarioConfigs configurations is left out.
 * Throws when a corpus file does not parse.
 */
Stream buildStream(uint64_t seed, size_t requests,
                   const std::vector<CorpusFile> &corpus);

/** One pass of a stream through a fresh service. */
struct Pass
{
    std::vector<double> latency; //!< seconds, per request
    /** Per request, when the pass keeps responses for checking. */
    std::vector<cxl0::lang::ScenarioService::Response> resp;
    double wall = 0;
    size_t hits = 0, misses = 0;
    size_t poolReuses = 0, poolSize = 0;
};

/** Serve every request in order through one service (one client)
 *  whose searches run `threads` workers, as `serve --threads` does;
 *  `keep` keeps every response, as checking needs. */
Pass serveOne(const Stream &s, size_t threads, cxl0::obs::TraceRing *ring,
              bool keep);

/** The first 1-thread answer per scenario, which later ones must
 *  repeat (see checkPass). */
struct Answers
{
    std::vector<std::string> bytes;     //!< serializeReport
    std::vector<std::string> invariant; //!< threadInvariant
};

/**
 * Count each response of a pass at `threads` workers as one checked
 * request: it must pass its anchors without error or time-out, and a
 * cache hit must repeat the pass's first answer byte for byte. A
 * 1-thread answer must also equal the first 1-thread answer for that
 * scenario (`first`, filled on first sight); a wider one must agree
 * with it on verdict and, for a search that ran to its end, outcome
 * set: the part of a report the thread count never changes.
 */
void checkPass(const Stream &s, const Pass &p, size_t threads,
               Answers &first, Result &res);

/** Scenario-path readings of one stream (see measureStreamLayers). */
struct StreamLayers
{
    double parseUs = 0, cacheKeyUs = 0;
    double hitUs = 0, missUs = 0, hitRatio = 0, serializeUs = 0;
    double reuseRatio = 0;
    double small1tUs = 0, small4tUs = 0;
    StatTotals small1t, small4t;
    StatTotals explore; //!< explorer misses of the pass
    StatTotals refine;  //!< refinement misses of the pass
    /** The largest explore search's states, replayable by layer. */
    std::unique_ptr<cxl0::check::ContextPool> pool;
    LayerInputs inputs;
};

/**
 * Measure the scenario layers on stream `s`, given one single-client
 * pass over it: parse and cache-key cost per distinct scenario, hit
 * and miss latency, hit ratio, report serialization, pool reuse, and
 * small searches (< 10k configs) rerun at 1 and kWideThreads threads,
 * whose outcome sets must agree.
 */
StreamLayers measureStreamLayers(const Stream &s, const Pass &onePass,
                                 Spans &spans, Result &res);

/** Emit lang.*, service.*, cache.*, pool.* and the small-search
 *  metrics. */
void addStreamLayerMetrics(Result &res, const StreamLayers &l);

/**
 * Emit explorer.*: per-request counts from `counts`, rates and the
 * speed-up from the same searches at 1 (`one`) and kWideThreads
 * (`wide`) threads, and the explained ratio of `explainBase`.
 */
void addExplorerMetrics(Result &res, const StatTotals &counts,
                        const StatTotals &one, const StatTotals &wide,
                        const StatTotals &explainBase,
                        const LayerCosts &costs);

/** Emit refinement.* from summed refinement reports. */
void addRefinementMetrics(Result &res, const StatTotals &t);

/** The heaviest generated scenario a stream keeps, in configurations
 *  its 1-thread search visits. The median one visits about 24; the
 *  1.6% above this cap (up to 45k) take a third of an uncapped pass. */
constexpr size_t kMaxScenarioConfigs = 2000;

/** Requests of the stream a traced ring run probes. */
constexpr size_t kProbeRequests = 400;

/**
 * The scenario-layer probe of a traced run whose workload never
 * reaches those layers: one checked pass over a kProbeRequests stream
 * of the same seed, then measureStreamLayers on it.
 */
StreamLayers probeStream(const Args &args, Spans &spans, Result &res);

} // namespace perfbench

#endif // CXL0_PERFBENCH_STREAM_HH
