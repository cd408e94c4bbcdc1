/**
 * @file
 * ring_explore: seeded variants of the crash_heavy ring explored to a
 * verdict at the explorer's default reduction, in rounds alternating
 * numThreads=1 and kWideThreads. The search core does almost all the
 * work here: the model step, interning, the visited set, the
 * frontier, and stealing/handoff.
 */

#include <algorithm>
#include <optional>

#include "bench.hh"
#include "check/explorer.hh"
#include "common/rng.hh"
#include "stream.hh"

namespace perfbench
{

using namespace cxl0;
using check::CheckReport;
using check::CheckRequest;
using check::Explorer;
using check::Operand;
using check::ProgInstr;
using check::Program;
using model::Op;

namespace
{

constexpr size_t kLayerStates = 20000;

struct Ring
{
    model::SystemConfig cfg = model::SystemConfig::uniform(3, 1, true);
    Program program;
    CheckRequest request;
};

/**
 * crash_heavy's ring — thread t stores a value to its own address,
 * loads its neighbour's and its own, stores the latter to the
 * neighbour and loads it back; one crash per machine — under a seeded
 * renaming that keeps the search graph isomorphic (1,368,299 configs
 * on every seed): the threads' machines and their owned addresses are
 * permuted together, the three stored values are distinct and
 * nonzero, and each first store is an LStore or an RStore.
 */
Ring
makeRing(uint64_t seed)
{
    Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x41ce);
    const size_t n = 3;
    std::vector<NodeId> machine{0, 1, 2};
    rng.shuffle(machine);
    std::vector<Value> values{1, 2, 3, 4, 5, 6, 7, 8, 9};
    rng.shuffle(values);
    Ring r;
    for (size_t t = 0; t < n; ++t) {
        const Addr own = machine[t];
        const Addr next = machine[(t + 1) % n];
        const Op first = rng.chance(1, 2) ? Op::RStore : Op::LStore;
        r.program.threads.push_back(
            {machine[t],
             {ProgInstr::store(first, own,
                               Operand::immediate(values[t])),
              ProgInstr::load(next, 0), ProgInstr::load(own, 1),
              ProgInstr::store(Op::LStore, next, Operand::regRef(1)),
              ProgInstr::load(next, 2)}});
    }
    r.request.maxCrashesPerNode = 1;
    return r;
}

/** The outcome set described one outcome per line. */
std::string
describeOutcomes(const CheckReport &r)
{
    std::string out;
    for (const check::Outcome &o : r.outcomes)
        out += o.describe() + "\n";
    return out;
}

/**
 * A child computing the reference explorer's outcome set
 * (Explorer::checkReference, described as above; empty when
 * truncated). The deep-copy search takes about 1 GB at this size,
 * which the child keeps out of the benchmark's footprint.
 */
Child
spawnReference(const Ring &ring)
{
    return spawnChild([&ring] {
        model::Cxl0Model model(ring.cfg);
        CheckReport rep =
            Explorer(model, ring.program, ring.request).checkReference();
        return rep.truncated ? std::string() : describeOutcomes(rep);
    });
}

} // namespace

Result
runRingExplore(const Args &args, Spans &spans)
{
    Result res;
    EndToEnd e2e;

    const Ring ring = makeRing(args.seed);
    // One request: a fresh Explorer checked to its verdict; only the
    // check() call is timed.
    auto run = [&](const model::Cxl0Model &model, size_t threads,
                   obs::TraceRing *ring_, CheckReport &rep) {
        CheckRequest req = ring.request;
        req.numThreads = threads;
        Explorer ex(model, ring.program, req);
        double t0 = now();
        obs::ScopedSpan span(ring_, "explorer.check");
        rep = ex.check();
        return now() - t0;
    };
    // Every report must be complete and carry the reference outcomes.
    std::string reference;
    auto verify = [&](const CheckReport &rep, size_t threads) {
        res.check(!reference.empty() && !rep.truncated &&
                      rep.verdict == check::CheckVerdict::Pass &&
                      describeOutcomes(rep) == reference,
                  "ring seed " + std::to_string(args.seed) + " at " +
                      std::to_string(threads) + " thread(s): " +
                      rep.describe());
    };

    // The reference and the peak-RSS children run first, side by side
    // and untimed; then the set-up, kSetups times: the model and a
    // warm-up round per thread count (the first wide search of a
    // process runs markedly slower than the rest). Work moved out of
    // the rounds into construction or into anything a first request
    // leaves behind shows in setup_s.
    Child refChild = spawnReference(ring);
    Child rssChild;
    if (!args.trace)
        rssChild = spawnPeakRss([&] {
            const model::Cxl0Model m(ring.cfg);
            Explorer(m, ring.program, ring.request).check();
            CheckRequest wide = ring.request;
            wide.numThreads = kWideThreads;
            Explorer(m, ring.program, wide).check();
        });
    {
        obs::ScopedSpan span(spans.main, "reference");
        reference = awaitChild(refChild).value_or("");
    }
    res.check(!reference.empty(), "reference explorer completes");
    if (!args.trace)
        e2e.peakRssBytes = peakRssOf(rssChild);

    std::optional<model::Cxl0Model> built;
    std::vector<double> setups;
    for (size_t k = 0; k < kSetups; ++k) {
        built.reset();
        double t0 = now();
        built.emplace(ring.cfg);
        CheckReport warm1, warmW;
        run(*built, 1, nullptr, warm1);
        run(*built, kWideThreads, nullptr, warmW);
        setups.push_back(now() - t0);
        verify(warm1, 1);
        verify(warmW, kWideThreads);
    }
    e2e.setup = median(setups);
    const model::Cxl0Model &model = *built;

    std::vector<double> untraced;
    if (args.trace)
        for (int i = 0; i < 2; ++i) {
            CheckReport rep;
            untraced.push_back(run(model, 1, nullptr, rep));
            verify(rep, 1);
        }

    StatTotals one, wide;
    measureAlternating(
        args.seconds,
        [&](size_t threads) {
            CheckReport rep;
            const double t = run(model, threads, spans.main, rep);
            verify(rep, threads);
            (threads == 1 ? one : wide).add(rep);
            return t;
        },
        e2e);
    e2e.p50 = e2e.p99 = e2e.t1;
    res.note("ring: " + std::to_string(one.interned / one.requests) +
             " configs interned per search, " +
             std::to_string(std::count(reference.begin(),
                                       reference.end(), '\n')) +
             " reference outcomes");

    if (!args.trace) {
        addEndToEnd(res, e2e);
        return res;
    }

    LayerInputs in;
    {
        obs::ScopedSpan span(spans.main, "layer.inputs");
        check::ModelContext ctx(model);
        CheckReport rep =
            Explorer(model, ring.program, ring.request).check(&ctx);
        in.model = &model;
        in.states = sampleStates(ctx.states(), kLayerStates);
        in.configCount = rep.stats.configsInterned;
    }
    LayerCosts costs = replayLayers(in, spans.main);
    addLayerMetrics(res, costs);
    addExplorerMetrics(res, one, one, wide, one, costs);
    StreamLayers probe = probeStream(args, spans, res);
    addRefinementMetrics(res, probe.refine);
    addStreamLayerMetrics(res, probe);
    res.add("trace.overhead_ratio", overheadRatio(e2e.t1, untraced),
            "ratio");
    return res;
}

} // namespace perfbench
