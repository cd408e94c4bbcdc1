#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"

namespace perfbench
{

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    // Only the first few mismatches are spelled out; the counters
    // carry the rest.
    if (failed <= 10)
        std::cerr << "MISMATCH: " << what << "\n";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

uint64_t
rssBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long long size = 0, resident = 0;
    int n = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (n != 2)
        return 0;
    return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

Child
spawnChild(const std::function<std::string()> &work)
{
    Child c;
    int fds[2];
    if (::pipe(fds) != 0)
        return c;
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return c;
    }
    if (pid == 0) {
        ::close(fds[0]);
        const std::string out = work();
        size_t off = 0;
        while (off < out.size()) {
            ssize_t n = ::write(fds[1], out.data() + off, out.size() - off);
            if (n <= 0)
                ::_exit(1);
            off += static_cast<size_t>(n);
        }
        ::_exit(0);
    }
    ::close(fds[1]);
    c.pid = pid;
    c.fd = fds[0];
    return c;
}

std::optional<std::string>
awaitChild(Child &c)
{
    if (c.pid < 0)
        return std::nullopt;
    std::string out;
    char buf[65536];
    ssize_t n;
    while ((n = ::read(c.fd, buf, sizeof buf)) > 0)
        out.append(buf, static_cast<size_t>(n));
    ::close(c.fd);
    int status = 0;
    ::waitpid(c.pid, &status, 0);
    c.pid = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return std::nullopt;
    return out;
}

Child
spawnPeakRss(const std::function<void()> &work)
{
    return spawnChild([&work] {
        std::atomic<bool> running{true};
        std::atomic<uint64_t> peak{rssBytes()};
        std::thread sampler([&] {
            while (running.load()) {
                uint64_t r = rssBytes();
                if (r > peak.load())
                    peak.store(r);
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        });
        work();
        running.store(false);
        sampler.join();
        return std::to_string(std::max(peak.load(), rssBytes()));
    });
}

double
peakRssOf(Child &c)
{
    std::optional<std::string> out = awaitChild(c);
    return out ? std::strtod(out->c_str(), nullptr) : 0;
}

double
lowest(const std::vector<double> &v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

namespace
{

std::string
listLine(const char *label, const std::vector<double> &v, double scale)
{
    std::string line = label;
    char buf[32];
    for (double x : v) {
        std::snprintf(buf, sizeof buf, " %.4g", x * scale);
        line += buf;
    }
    return line;
}

} // namespace

void
addEndToEnd(Result &res, const EndToEnd &e)
{
    // The 1-thread metrics all come from the fastest 1-thread round.
    const size_t best = static_cast<size_t>(
        std::min_element(e.t1.begin(), e.t1.end()) - e.t1.begin());
    res.add("setup_s", e.setup, "s");
    res.add("check_1t_s", e.t1[best], "s");
    res.add("check_4t_s", lowest(e.tw), "s");
    res.add("scenarios_per_s",
            static_cast<double>(e.requestsPerRound) / e.t1[best], "1/s");
    res.add("latency_p50_ms", e.p50[best] * 1e3, "ms");
    res.add("latency_p99_ms", e.p99[best] * 1e3, "ms");
    res.add("peak_rss_mb", e.peakRssBytes / (1 << 20), "MB");
    res.check(e.peakRssBytes > 0, "peak RSS child completes");

    const size_t beyond = static_cast<size_t>(
        static_cast<double>(e.requestsPerRound) * 0.01);
    res.note("samples: " + std::to_string(e.t1.size()) + " + " +
             std::to_string(e.tw.size()) + " rounds at 1 + " +
             std::to_string(kWideThreads) + " threads, " +
             std::to_string(e.requestsPerRound) +
             " request latencies per 1-thread round (" +
             std::to_string(beyond) + " beyond p99)");
    res.note(listLine("round seconds at 1 thread:", e.t1, 1));
    res.note(listLine("round seconds at 4 threads:", e.tw, 1));
    res.note(listLine("round p50 ms at 1 thread:", e.p50, 1e3));
    res.note(listLine("round p99 ms at 1 thread:", e.p99, 1e3));
    res.note("medians over rounds: check_1t_s " +
             std::to_string(median(e.t1)) + ", check_4t_s " +
             std::to_string(median(e.tw)));
}

double
overheadRatio(const std::vector<double> &traced,
               const std::vector<double> &untraced)
{
    const size_t n = std::min(traced.size(), untraced.size());
    return lowest({traced.begin(), traced.begin() + n}) /
           lowest(untraced);
}

void
StatTotals::add(const cxl0::check::CheckReport &r)
{
    const cxl0::check::SearchStats &s = r.stats;
    ++requests;
    visited += s.configsVisited;
    interned += s.configsInterned;
    statesInterned += s.statesInterned;
    framesInterned += s.framesInterned;
    tauSkipped += s.tauMovesSkipped;
    ampleSkipped += s.ampleSkipped;
    crashAmpleSkipped += s.crashAmpleSkipped;
    stealsAttempted += s.stealsAttempted;
    stealsSucceeded += s.stealsSucceeded;
    inboxBatches += s.inboxBatches;
    seconds += s.seconds;
}

std::vector<cxl0::model::State>
sampleStates(const cxl0::model::StateTable &table, size_t limit)
{
    std::vector<cxl0::model::State> out;
    size_t n = table.size();
    size_t take = std::min(n, limit);
    out.reserve(take);
    for (size_t k = 0; k < take; ++k)
        out.push_back(table.materialize(
            static_cast<cxl0::model::StateId>(k * n / take)));
    return out;
}

} // namespace perfbench
