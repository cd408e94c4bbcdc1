/**
 * @file
 * scenario_stream: a closed loop with one client sending the stream
 * through one ScenarioService at numThreads=1 (serve's default). A
 * round is one pass over the whole stream through a fresh service;
 * the kWideThreads round serves the same stream through a service
 * whose searches run kWideThreads workers (serve --threads 4).
 */

#include "stream.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "check/cache.hh"
#include "common/rng.hh"
#include "fuzz/generate.hh"
#include "lang/run.hh"

namespace perfbench
{

using namespace cxl0;
using lang::ScenarioService;

namespace
{

/** Requests per pass of the measured stream. */
constexpr size_t kStreamRequests = 8000;
/** Repeats draw from this many most recent scenarios (half of serve's
 *  default cache capacity). */
constexpr size_t kRepeatWindow = 512;
/** Small searches rerun at 1 and kWideThreads threads per probe. */
constexpr size_t kSmallSearches = 300;
constexpr size_t kSmallSearchConfigs = 10000;
constexpr size_t kLayerStates = 20000;

} // namespace

std::vector<CorpusFile>
readCorpus(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<CorpusFile> out;
    for (const char *sub : {"litmus", "fuzz"}) {
        fs::path d = fs::path(dir) / sub;
        std::vector<fs::path> files;
        for (const fs::directory_entry &e : fs::directory_iterator(d))
            if (e.path().extension() == ".cxl0")
                files.push_back(e.path());
        std::sort(files.begin(), files.end());
        for (const fs::path &p : files) {
            std::ifstream in(p);
            std::ostringstream text;
            text << in.rdbuf();
            if (!in)
                throw std::runtime_error("cannot read " + p.string());
            out.push_back({std::string(sub) + "/" +
                               p.filename().string(),
                           text.str()});
        }
    }
    if (out.empty())
        throw std::runtime_error("no corpus files under " + dir);
    return out;
}

Stream
buildStream(uint64_t seed, size_t requests,
            const std::vector<CorpusFile> &corpus)
{
    const size_t distinct = requests - requests / 4;
    if (distinct <= corpus.size())
        throw std::runtime_error("stream too short for the corpus");
    Stream s;
    for (const CorpusFile &f : corpus) {
        lang::ParseResult pr = lang::parseScenario(f.text);
        if (!pr.ok())
            throw std::runtime_error(pr.error->render(f.name));
        s.distinct.push_back(std::move(pr.scenario));
        s.names.push_back(f.name);
    }
    // A few generated scenarios search a hundred to a thousand times
    // longer than the median one and would dominate a pass; leaving them
    // out gives every seed's pass about the same work. A 1-thread search
    // visits the same configurations on every run, so the choice is the
    // seed's alone.
    const lang::RunOptions sizing;
    for (size_t g = 0; s.distinct.size() < distinct; ++g) {
        lang::Scenario sc =
            fuzz::generateScenario(fuzz::scenarioSeed(seed, g));
        lang::RunResult r = lang::runScenario(sc, sizing);
        if (!r.error.empty() ||
            r.report.stats.configsVisited > kMaxScenarioConfigs) {
            ++s.leftOut;
            continue;
        }
        s.distinct.push_back(std::move(sc));
        s.names.push_back("fuzz seed " + std::to_string(seed) +
                          " #" + std::to_string(g));
    }

    std::vector<uint32_t> arrival(distinct);
    for (size_t i = 0; i < distinct; ++i)
        arrival[i] = static_cast<uint32_t>(i);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5717ea);
    rng.shuffle(arrival);

    // Each request repeats one of the last kRepeatWindow scenarios sent
    // with probability (repeats left) / (requests left), so exactly a
    // quarter repeat, and a repeat can still be in serve's cache.
    size_t fresh = 0, repeatsLeft = requests - distinct;
    for (size_t i = 0; i < requests; ++i) {
        size_t left = (distinct - fresh) + repeatsLeft;
        bool repeat = fresh > 0 && rng.nextBelow(left) < repeatsLeft;
        if (repeat) {
            size_t back = rng.nextBelow(std::min(fresh, kRepeatWindow));
            s.order.push_back(arrival[fresh - 1 - back]);
            --repeatsLeft;
        } else {
            s.order.push_back(arrival[fresh++]);
        }
    }
    return s;
}

namespace
{

/** One timed request; the response is kept at p.resp[i] if asked. */
void
serveRequest(ScenarioService &service, const Stream &s, size_t i,
             obs::TraceRing *ring, bool keep, Pass &p)
{
    ScenarioService::Response r;
    double t0 = now();
    {
        obs::ScopedSpan span(ring, "service.handle");
        try {
            r = service.handle(s.distinct[s.order[i]]);
        } catch (const std::exception &e) {
            r.result.error = e.what();
        }
    }
    p.latency[i] = now() - t0;
    if (keep)
        p.resp[i] = std::move(r);
}

} // namespace

Pass
serveOne(const Stream &s, size_t threads, obs::TraceRing *ring, bool keep)
{
    Pass p;
    p.latency.resize(s.order.size());
    p.resp.resize(keep ? s.order.size() : 0);
    lang::ServiceOptions so;
    so.run.numThreads = threads;
    ScenarioService service(so);
    double start = now();
    for (size_t i = 0; i < s.order.size(); ++i)
        serveRequest(service, s, i, ring, keep, p);
    p.wall = now() - start;
    p.hits = service.cacheStats().hits;
    p.misses = service.cacheStats().misses;
    p.poolReuses = service.contexts().reuses();
    p.poolSize = service.contexts().size();
    return p;
}

namespace
{

/** The part of a report the thread count never changes: the verdict,
 *  and the outcome set of a search that ran to its end. Counters, the
 *  counterexample's schedule, and what a search stopped early (at a
 *  failure or a bound) has reached may differ. */
std::string
threadInvariant(check::CheckReport r)
{
    r.stats = {};
    r.counterexample = {};
    if (r.truncated || r.verdict == check::CheckVerdict::Fail)
        r.outcomes.clear();
    r.truncated = false;
    return check::serializeReport(r);
}

} // namespace

void
checkPass(const Stream &s, const Pass &p, size_t threads, Answers &first,
          Result &res)
{
    if (first.bytes.empty()) {
        first.bytes.resize(s.distinct.size());
        first.invariant.resize(s.distinct.size());
    }
    std::vector<std::string> passBytes(s.distinct.size());
    for (size_t i = 0; i < s.order.size(); ++i) {
        const uint32_t sid = s.order[i];
        const lang::RunResult &r = p.resp[i].result;
        bool ok = r.error.empty() && r.pass && !r.report.timedOut;
        std::string bytes = check::serializeReport(r.report);
        if (p.resp[i].cacheHit)
            ok &= bytes == passBytes[sid];
        passBytes[sid] = bytes;
        if (threads == 1 && first.bytes[sid].empty()) {
            first.bytes[sid] = bytes;
            first.invariant[sid] = threadInvariant(r.report);
        } else if (threads == 1) {
            ok &= bytes == first.bytes[sid];
        } else {
            ok &= !first.invariant[sid].empty() &&
                  threadInvariant(r.report) == first.invariant[sid];
        }
        res.check(ok, ok ? std::string()
                         : s.names[sid] + ": " +
                               (r.error.empty() ? r.describe()
                                                : r.error) +
                               (p.resp[i].cacheHit ? " (cache hit)"
                                                   : ""));
    }
}

StreamLayers
measureStreamLayers(const Stream &s, const Pass &onePass, Spans &spans,
                    Result &res)
{
    StreamLayers l;
    const lang::RunOptions o1;
    lang::RunOptions ow = o1;
    ow.numThreads = kWideThreads;

    std::vector<double> parse, key, serialize, hit, miss;
    {
        obs::ScopedSpan span(spans.main, "lang.parse_and_key");
        for (const lang::Scenario &sc : s.distinct) {
            std::string text = lang::dumpScenario(sc);
            double t0 = now();
            lang::ParseResult pr = lang::parseScenario(text);
            double t1 = now();
            std::string k = lang::cacheKey(sc, o1);
            double t2 = now();
            res.check(pr.ok() && pr.scenario == sc && !k.empty(),
                      "canonical dump of " + sc.name + " re-parses");
            parse.push_back(t1 - t0);
            key.push_back(t2 - t1);
        }
    }

    // The first answer per scenario (a miss), for serialization and
    // for picking the searches the small-search and layer replays use.
    std::vector<const lang::RunResult *> first(s.distinct.size());
    for (size_t i = 0; i < s.order.size(); ++i) {
        const ScenarioService::Response &r = onePass.resp[i];
        (r.cacheHit ? hit : miss).push_back(onePass.latency[i]);
        if (!r.cacheHit && first[s.order[i]] == nullptr)
            first[s.order[i]] = &r.result;
        if (r.cacheHit || !r.result.error.empty())
            continue;
        if (r.result.checker == lang::CheckerKind::Explore)
            l.explore.add(r.result.report);
        else if (r.result.checker == lang::CheckerKind::Refinement)
            l.refine.add(r.result.report);
    }
    {
        obs::ScopedSpan span(spans.main, "cache.serialize");
        for (const lang::RunResult *r : first) {
            if (r == nullptr)
                continue;
            double t0 = now();
            std::string bytes = check::serializeReport(r->report);
            serialize.push_back(now() - t0);
            res.check(!bytes.empty(), "report serializes");
        }
    }
    l.parseUs = median(parse) * 1e6;
    l.cacheKeyUs = median(key) * 1e6;
    l.serializeUs = median(serialize) * 1e6;
    l.hitUs = median(hit) * 1e6;
    l.missUs = median(miss) * 1e6;
    l.hitRatio = static_cast<double>(onePass.hits) /
                 static_cast<double>(onePass.hits + onePass.misses);
    l.reuseRatio =
        static_cast<double>(onePass.poolReuses) /
        static_cast<double>(onePass.poolReuses + onePass.poolSize);

    // Small searches: fresh (unpooled, uncached) runs at both thread
    // counts, alternating which goes first.
    std::vector<double> t1, tw;
    size_t largest = s.distinct.size();
    size_t largestConfigs = 0;
    {
        obs::ScopedSpan span(spans.main, "explorer.small_searches");
        for (size_t sid = 0; sid < s.distinct.size(); ++sid) {
            const lang::RunResult *r = first[sid];
            if (r == nullptr || r->checker != lang::CheckerKind::Explore ||
                !r->error.empty())
                continue;
            const size_t interned = r->report.stats.configsInterned;
            if (interned > largestConfigs) {
                largestConfigs = interned;
                largest = sid;
            }
            if (r->report.stats.configsVisited >= kSmallSearchConfigs ||
                t1.size() >= kSmallSearches)
                continue;
            const lang::Scenario &sc = s.distinct[sid];
            lang::RunResult a, b;
            double ta, tb;
            if (t1.size() % 2 == 0) {
                double t0 = now();
                a = lang::runScenario(sc, o1);
                ta = now() - t0;
                t0 = now();
                b = lang::runScenario(sc, ow);
                tb = now() - t0;
            } else {
                double t0 = now();
                b = lang::runScenario(sc, ow);
                tb = now() - t0;
                t0 = now();
                a = lang::runScenario(sc, o1);
                ta = now() - t0;
            }
            res.check(a.error.empty() && b.error.empty() &&
                          a.report.outcomes == b.report.outcomes,
                      s.names[sid] + ": small search differs across "
                                     "thread counts");
            t1.push_back(ta);
            tw.push_back(tb);
            l.small1t.add(a.report);
            l.small4t.add(b.report);
        }
    }
    l.small1tUs = median(t1) * 1e6;
    l.small4tUs = median(tw) * 1e6;

    // The layer replay works on the largest explore search's own
    // states, re-run over a pool so its interning table stays alive.
    if (largest < s.distinct.size()) {
        const lang::Scenario &sc = s.distinct[largest];
        l.pool = std::make_unique<check::ContextPool>();
        lang::RunResult r = lang::runScenario(sc, o1, *l.pool);
        check::ContextPool::Entry &e =
            l.pool->acquire(sc.config(), sc.variant);
        l.inputs.model = &e.model;
        l.inputs.states = sampleStates(e.ctx.states(), kLayerStates);
        l.inputs.configCount = r.report.stats.configsInterned;
    }
    return l;
}

void
addStreamLayerMetrics(Result &res, const StreamLayers &l)
{
    res.add("explorer.small_search_1t_us", l.small1tUs, "us");
    res.add("explorer.small_search_4t_us", l.small4tUs, "us");
    res.add("lang.parse_us", l.parseUs, "us");
    res.add("lang.cache_key_us", l.cacheKeyUs, "us");
    res.add("service.hit_us", l.hitUs, "us");
    res.add("service.miss_us", l.missUs, "us");
    res.add("cache.hit_ratio", l.hitRatio, "ratio");
    res.add("cache.serialize_us", l.serializeUs, "us");
    res.add("pool.reuse_ratio", l.reuseRatio, "ratio");
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

void
addExplorerMetrics(Result &res, const StatTotals &counts,
                   const StatTotals &one, const StatTotals &wide,
                   const StatTotals &explainBase, const LayerCosts &costs)
{
    const double n =
        static_cast<double>(std::max<size_t>(counts.requests, 1));
    res.add("explorer.configs_visited",
            static_cast<double>(counts.visited) / n, "count");
    res.add("explorer.configs_interned",
            static_cast<double>(counts.interned) / n, "count");
    res.add("explorer.useful_ratio",
            ratio(static_cast<double>(counts.interned),
                  static_cast<double>(counts.visited)),
            "ratio");
    res.add("explorer.tau_skipped",
            static_cast<double>(counts.tauSkipped) / n, "count");
    res.add("explorer.ample_skipped",
            static_cast<double>(counts.ampleSkipped) / n, "count");
    res.add("explorer.crash_ample_skipped",
            static_cast<double>(counts.crashAmpleSkipped) / n, "count");
    res.add("explorer.steal_success_ratio",
            ratio(static_cast<double>(wide.stealsSucceeded),
                  static_cast<double>(wide.stealsAttempted)),
            "ratio");
    res.add("explorer.inbox_batches",
            ratio(static_cast<double>(wide.inboxBatches),
                  static_cast<double>(wide.requests)),
            "count");
    const double rate1 =
        ratio(static_cast<double>(one.visited), one.seconds);
    const double rateW =
        ratio(static_cast<double>(wide.visited), wide.seconds);
    res.add("explorer.configs_per_s_1t", rate1, "1/s");
    res.add("explorer.configs_per_s_4t", rateW, "1/s");
    res.add("explorer.speedup_4t", ratio(rateW, rate1), "ratio");
    res.add("explorer.explained_ratio",
            explainedRatio(explainBase, costs), "ratio");
}

void
addRefinementMetrics(Result &res, const StatTotals &t)
{
    const double n = static_cast<double>(std::max<size_t>(t.requests,
                                                          1));
    res.add("refinement.pairs_visited",
            static_cast<double>(t.visited) / n, "count");
    res.add("refinement.frames_interned",
            static_cast<double>(t.framesInterned) / n, "count");
    res.add("refinement.pairs_per_s",
            ratio(static_cast<double>(t.visited), t.seconds), "1/s");
}

StreamLayers
probeStream(const Args &args, Spans &spans, Result &res)
{
    obs::ScopedSpan span(spans.main, "probe.stream");
    Stream s = buildStream(args.seed, kProbeRequests,
                           readCorpus(args.corpusDir));
    Answers first;
    Pass p = serveOne(s, 1, spans.main, true);
    checkPass(s, p, 1, first, res);
    return measureStreamLayers(s, p, spans, res);
}

Result
runScenarioStream(const Args &args, Spans &spans)
{
    Result res;
    EndToEnd e2e;

    // The untimed peak-RSS child runs first, from the bare process.
    // Then the set-up, kSetups times: read and parse the corpus,
    // generate and size the stream, and a checked warm-up pass per
    // thread count. Work moved out of the rounds into construction or
    // into anything a first pass leaves behind shows in setup_s.
    Child rssChild;
    if (!args.trace) {
        rssChild = spawnPeakRss([&] {
            const Stream s = buildStream(args.seed, kStreamRequests,
                                         readCorpus(args.corpusDir));
            serveOne(s, 1, nullptr, false);
            serveOne(s, kWideThreads, nullptr, false);
        });
        e2e.peakRssBytes = peakRssOf(rssChild);
    }

    Stream stream;
    Pass warm1, warmW;
    std::vector<double> setups;
    for (size_t k = 0; k < kSetups; ++k) {
        stream = {};
        warm1 = warmW = {};
        double t0 = now();
        stream = buildStream(args.seed, kStreamRequests,
                             readCorpus(args.corpusDir));
        warm1 = serveOne(stream, 1, nullptr, true);
        warmW = serveOne(stream, kWideThreads, nullptr, true);
        setups.push_back(now() - t0);
    }
    e2e.setup = median(setups);
    e2e.requestsPerRound = stream.order.size();
    Answers first;
    checkPass(stream, warm1, 1, first, res);
    checkPass(stream, warmW, kWideThreads, first, res);

    std::vector<double> untraced;
    if (args.trace)
        for (int i = 0; i < 2; ++i)
            untraced.push_back(serveOne(stream, 1, nullptr, false).wall);

    // One measured single-client pass is kept for the layer readings.
    Pass sample;
    size_t hits = 0, lookups = 0;
    measureAlternating(
        args.seconds,
        [&](size_t threads) {
            obs::ScopedSpan span(spans.main,
                                 threads == 1 ? "round.1t" : "round.4t");
            Pass p = serveOne(stream, threads, spans.main, true);
            checkPass(stream, p, threads, first, res);
            const double wall = p.wall;
            if (threads == 1) {
                e2e.p50.push_back(median(p.latency));
                e2e.p99.push_back(percentile(p.latency, 99));
                hits += p.hits;
                lookups += p.hits + p.misses;
                if (sample.resp.empty())
                    sample = std::move(p);
            }
            return wall;
        },
        e2e);
    res.note("stream: " + std::to_string(stream.order.size()) +
             " requests/pass over " +
             std::to_string(stream.distinct.size()) +
             " distinct scenarios (" + std::to_string(stream.leftOut) +
             " generated ones over " +
             std::to_string(kMaxScenarioConfigs) +
             " configs left out), cache hits " + std::to_string(hits) +
             "/" + std::to_string(lookups) + " in 1-thread passes");

    if (!args.trace) {
        addEndToEnd(res, e2e);
        return res;
    }
    StreamLayers l = measureStreamLayers(stream, sample, spans, res);
    LayerCosts costs = replayLayers(l.inputs, spans.main);
    addLayerMetrics(res, costs);
    addExplorerMetrics(res, l.explore, l.small1t, l.small4t, l.small1t,
                       costs);
    addRefinementMetrics(res, l.refine);
    addStreamLayerMetrics(res, l);
    res.add("trace.overhead_ratio", overheadRatio(e2e.t1, untraced),
            "ratio");
    return res;
}

} // namespace perfbench
