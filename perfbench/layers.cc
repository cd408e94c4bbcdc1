/**
 * @file
 * Per-layer replay: the model step, interning, frames, the visited
 * set and the frontier are only ever called from inside a search, so
 * a traced run feeds the workload's own states (and its configuration
 * count) through those classes' public methods and times each call
 * class in isolation.
 */

#include <algorithm>
#include <cmath>

#include "bench.hh"
#include "common/rng.hh"
#include "model/state_table.hh"

namespace perfbench
{

using namespace cxl0;
using check::ConfigFrontier;
using check::FrontierPolicy;
using check::PackedConfig;
using check::SearchEngine;
using check::ShardedFrontier;
using check::VisitedSet;
using model::FrameId;
using model::Label;
using model::State;
using model::StateId;

namespace
{

/** Keeps results observable so no timed call is dead code. */
volatile uint64_t gSink = 0;

void
sink(uint64_t v)
{
    gSink = v;
}

/** Fastest of `reps` runs of fn(), in seconds. */
template <typename Fn>
double
bestOf(int reps, Fn &&fn)
{
    double best = HUGE_VAL;
    for (int r = 0; r < reps; ++r) {
        double t0 = now();
        fn();
        best = std::min(best, now() - t0);
    }
    return best;
}

/** ns per call of (timed - baseline) over `calls`, floored at 0. */
double
perCallNs(double timed, double baseline, size_t calls)
{
    if (calls == 0)
        return 0;
    return std::max(timed - baseline, 0.0) * 1e9 /
           static_cast<double>(calls);
}

/** Labels replayed per state: the model's own enabled set, capped. */
constexpr size_t kLabelsPerState = 8;
constexpr Value kLabelMaxValue = 1;

void
replayModel(const LayerInputs &in, LayerCosts &c)
{
    const model::Cxl0Model &m = *in.model;
    const std::vector<State> &states = in.states;
    std::vector<std::vector<Label>> labels(states.size());
    std::vector<std::vector<model::TauMove>> moves(states.size());
    size_t nLabels = 0, nMoves = 0;
    for (size_t i = 0; i < states.size(); ++i) {
        labels[i] = m.enabledLabels(states[i], kLabelMaxValue);
        if (labels[i].size() > kLabelsPerState)
            labels[i].resize(kLabelsPerState);
        nLabels += labels[i].size();
        m.tauMoves(states[i], moves[i]);
        nMoves += moves[i].size();
    }
    State scratch = states.front();
    std::vector<model::TauMove> buf;

    // Every timed loop restores the source state by copy first; the
    // copy alone is timed as the baseline and subtracted.
    double copyLabels = bestOf(3, [&] {
        for (size_t i = 0; i < states.size(); ++i)
            for (size_t k = 0; k < labels[i].size(); ++k) {
                scratch = states[i];
                sink(scratch.hash());
            }
    });
    double apply = bestOf(3, [&] {
        for (size_t i = 0; i < states.size(); ++i)
            for (const Label &l : labels[i]) {
                scratch = states[i];
                sink(m.applyInPlace(scratch, l));
            }
    });
    c.applyNs = perCallNs(apply, copyLabels, nLabels);

    double copyMoves = bestOf(3, [&] {
        for (size_t i = 0; i < states.size(); ++i)
            for (size_t k = 0; k < moves[i].size(); ++k) {
                scratch = states[i];
                sink(scratch.hash());
            }
    });
    double tau = bestOf(3, [&] {
        for (const State &s : states) {
            m.tauMoves(s, buf);
            for (const model::TauMove &mv : buf) {
                scratch = s;
                m.applyTauInPlace(scratch, mv);
                sink(scratch.hash());
            }
        }
    });
    c.tauMoveNs = perCallNs(tau, copyMoves, nMoves);

    const size_t nodes = m.config().numNodes();
    double copyCrash = bestOf(3, [&] {
        for (const State &s : states)
            for (NodeId n = 0; n < nodes; ++n) {
                scratch = s;
                sink(scratch.hash());
            }
    });
    double crash = bestOf(3, [&] {
        for (const State &s : states)
            for (NodeId n = 0; n < nodes; ++n) {
                scratch = s;
                m.applyCrashInPlace(scratch, n);
                sink(scratch.hash());
            }
    });
    c.crashNs = perCallNs(crash, copyCrash, states.size() * nodes);
}

/** Intern calls per timed pass (the sample is cycled to reach it),
 *  so thread start-up stays small against the 4-thread pass. */
constexpr size_t kInternCalls = 400000;

void
replayInterning(const LayerInputs &in, LayerCosts &c)
{
    const std::vector<State> &states = in.states;
    const size_t nodes = in.model->config().numNodes();
    const size_t addrs = in.model->config().numAddrs();

    std::unique_ptr<model::StateTable> table;
    double miss = HUGE_VAL;
    for (int rep = 0; rep < 3; ++rep) {
        table = std::make_unique<model::StateTable>(nodes, addrs);
        double t0 = now();
        for (const State &s : states)
            sink(table->intern(s));
        miss = std::min(miss, now() - t0);
    }
    c.internMissNs = miss * 1e9 / static_cast<double>(states.size());

    auto hitPass = [&] {
        uint64_t local = 0;
        for (size_t k = 0; k < kInternCalls; ++k)
            local += table->intern(states[k % states.size()]);
        sink(local);
    };
    c.internHitNs = bestOf(3, hitPass) * 1e9 / kInternCalls;

    // kWideThreads concurrent interners over one warm table: each
    // makes the same calls as the single-thread pass, so the per-call
    // wall time rises exactly by the stripe contention.
    double wide = HUGE_VAL;
    for (int rep = 0; rep < 3; ++rep) {
        std::atomic<size_t> ready{0};
        std::atomic<bool> go{false};
        std::vector<std::thread> workers;
        for (size_t w = 0; w < kWideThreads; ++w)
            workers.emplace_back([&] {
                ready.fetch_add(1);
                while (!go.load())
                    std::this_thread::yield();
                hitPass();
            });
        while (ready.load() < kWideThreads)
            std::this_thread::yield();
        double t0 = now();
        go.store(true);
        for (std::thread &t : workers)
            t.join();
        wide = std::min(wide, now() - t0);
    }
    c.internHit4tNs = wide * 1e9 / kInternCalls;
}

/** Frames closed per replay, and labels applied per frame. */
constexpr size_t kFrames = 5000;
constexpr size_t kLabelsPerFrame = 4;

void
replayFrames(const LayerInputs &in, LayerCosts &c)
{
    // Close singleton frames of the workload's states, which is what
    // refinement does to each fresh successor, on a fresh engine so
    // no closure is memoized yet.
    SearchEngine eng(*in.model);
    std::vector<FrameId> closed;
    const size_t n = std::min(in.states.size(), kFrames);
    double t0 = now();
    for (size_t i = 0; i < n; ++i)
        closed.push_back(eng.closedSingleton(in.states[i]));
    c.tauClosureNs = (now() - t0) * 1e9 / static_cast<double>(n);

    std::vector<std::vector<StateId>> lists;
    for (FrameId f : closed)
        lists.emplace_back(eng.frames().begin(f), eng.frames().end(f));
    double intern = HUGE_VAL;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<std::vector<StateId>> scratch = lists;
        model::FrameTable table;
        double t0 = now();
        for (std::vector<StateId> &l : scratch)
            sink(table.intern(l));
        intern = std::min(intern, now() - t0);
    }
    c.frameInternNs = intern * 1e9 / static_cast<double>(lists.size());

    std::vector<std::pair<FrameId, Label>> steps;
    State first = in.states.front();
    for (FrameId f : closed) {
        if (eng.frames().sizeOf(f) == 0)
            continue;
        eng.materializeState(*eng.frames().begin(f), first);
        std::vector<Label> ls =
            in.model->enabledLabels(first, kLabelMaxValue);
        for (size_t k = 0; k < ls.size() && k < kLabelsPerFrame; ++k)
            steps.emplace_back(f, ls[k]);
    }
    if (steps.empty())
        return;
    double apply = bestOf(3, [&] {
        for (const auto &[f, l] : steps)
            sink(eng.applyFrame(f, l));
    });
    c.applyFrameNs = apply * 1e9 / static_cast<double>(steps.size());
}

/** Visited-set / frontier replays stop at this many configs. */
constexpr size_t kMaxConfigs = size_t{1} << 20;
constexpr size_t kMinConfigs = 4096;

void
replayConfigs(const LayerInputs &in, LayerCosts &c)
{
    // The workload's configuration count, over its own state ids; the
    // remaining words vary per config as registers, pcs, and crash
    // budgets do.
    size_t n = std::clamp(in.configCount, kMinConfigs, kMaxConfigs);
    std::vector<PackedConfig> cs(n);
    Rng rng(0x5eed);
    for (size_t i = 0; i < n; ++i) {
        cs[i].state = static_cast<StateId>(i % in.states.size());
        cs[i].regs = static_cast<uint32_t>(rng.next());
        cs[i].pc = i;
        cs[i].alive = 7;
        cs[i].crash = rng.next() & 0x3f;
    }

    double insert = HUGE_VAL, dup = HUGE_VAL;
    for (int rep = 0; rep < 2; ++rep) {
        VisitedSet set;
        double t0 = now();
        for (const PackedConfig &pc : cs) {
            PackedConfig x = pc;
            sink(static_cast<uint64_t>(set.admit(x)));
        }
        insert = std::min(insert, now() - t0);
        t0 = now();
        for (const PackedConfig &pc : cs) {
            PackedConfig x = pc;
            sink(static_cast<uint64_t>(set.admit(x)));
        }
        dup = std::min(dup, now() - t0);
        c.visitedBytesPerConfig = static_cast<double>(set.bytes()) /
                                  static_cast<double>(set.size());
    }
    c.visitedInsertNs = insert * 1e9 / static_cast<double>(n);
    c.visitedDupNs = dup * 1e9 / static_cast<double>(n);

    double pushPop = bestOf(2, [&] {
        ConfigFrontier f(FrontierPolicy::DepthFirst);
        for (const PackedConfig &pc : cs)
            f.push(pc);
        for (size_t i = 0; i < n; ++i)
            sink(f.pop().pc);
    });
    c.frontierPushPopNs = pushPop * 1e9 / static_cast<double>(n);

    double steal = HUGE_VAL;
    for (int rep = 0; rep < 2; ++rep) {
        ConfigFrontier f(FrontierPolicy::DepthFirst);
        for (const PackedConfig &pc : cs)
            f.push(pc);
        std::vector<PackedConfig> loot;
        size_t stolen = 0;
        double t0 = now();
        while (!f.empty()) {
            loot.clear();
            stolen += f.stealHalf(loot);
        }
        steal = std::min(steal, (now() - t0) / static_cast<double>(
                                                   stolen));
    }
    c.stealNs = steal * 1e9;

    // Shard 0 hands every config to shard 1's inbox in batches, and
    // shard 1's owner pops them through admission.
    double handoff = bestOf(2, [&] {
        ShardedFrontier sf(2, FrontierPolicy::DepthFirst);
        for (const PackedConfig &pc : cs)
            sf.sendBuffered(0, 1, pc);
        sf.flushOutbox(0);
        PackedConfig out;
        while (sf.pop(1, out, [](PackedConfig &) { return true; })) {
            sink(out.pc);
            sf.done();
        }
    });
    c.handoffNs = handoff * 1e9 / static_cast<double>(n);
}

} // namespace

LayerCosts
replayLayers(const LayerInputs &in, obs::TraceRing *ring)
{
    LayerCosts c;
    {
        obs::ScopedSpan span(ring, "layer.model");
        replayModel(in, c);
    }
    {
        obs::ScopedSpan span(ring, "layer.intern");
        replayInterning(in, c);
    }
    {
        obs::ScopedSpan span(ring, "layer.frames");
        replayFrames(in, c);
    }
    {
        obs::ScopedSpan span(ring, "layer.visited_frontier");
        replayConfigs(in, c);
    }
    return c;
}

void
addLayerMetrics(Result &res, const LayerCosts &c)
{
    res.add("model.apply_ns", c.applyNs, "ns");
    res.add("model.tau_move_ns", c.tauMoveNs, "ns");
    res.add("model.crash_ns", c.crashNs, "ns");
    res.add("engine.intern_miss_ns", c.internMissNs, "ns");
    res.add("engine.intern_hit_ns", c.internHitNs, "ns");
    res.add("engine.intern_hit_4t_ns", c.internHit4tNs, "ns");
    res.add("engine.frame_intern_ns", c.frameInternNs, "ns");
    res.add("engine.tau_closure_ns", c.tauClosureNs, "ns");
    res.add("engine.apply_frame_ns", c.applyFrameNs, "ns");
    res.add("engine.visited_insert_ns", c.visitedInsertNs, "ns");
    res.add("engine.visited_dup_ns", c.visitedDupNs, "ns");
    res.add("engine.visited_bytes_per_config", c.visitedBytesPerConfig,
            "bytes");
    res.add("engine.frontier_push_pop_ns", c.frontierPushPopNs, "ns");
    res.add("engine.steal_ns", c.stealNs, "ns");
    res.add("engine.handoff_ns", c.handoffNs, "ns");
}

double
explainedRatio(const StatTotals &t, const LayerCosts &c)
{
    if (t.seconds <= 0)
        return 0;
    double ns = static_cast<double>(t.visited) *
                    (c.applyNs + c.internHitNs + c.frontierPushPopNs) +
                static_cast<double>(t.interned) * c.visitedInsertNs +
                static_cast<double>(t.statesInterned) * c.internMissNs;
    return ns / (t.seconds * 1e9);
}

} // namespace perfbench
