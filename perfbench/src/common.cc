#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench
{

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<uint64_t>(size);
}

bool
sameResult(const pstat::engine::EvalResult &a,
           const pstat::engine::EvalResult &b)
{
    return a.invalid == b.invalid && a.underflow == b.underflow &&
           a.value == b.value;
}

// ------------------------------------------------------------ report

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"items_per_s", "1/s"},
        {"cpu_us_per_item", "us"},
        {"peak_rss_mib", "MiB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> out = {
            {"p50_ms.low", "ms"},
            {"p50_ms.high", "ms"},
            {"p99_ms.low", "ms"},
            {"p99_ms.high", "ms"},
            {"io.open_ms", "ms"},
            {"io.open_mb_per_s", "MB/s"},
            {"io.bytes", "bytes"},
            {"io.shards", "count"},
            {"source.wait_ms", "ms"},
            {"source.peak_queue_depth", "count"},
            {"source.peak_mapped_bytes", "bytes"},
            {"executor.busy_ms", "ms"},
            {"executor.wall_ms", "ms"},
            {"executor.chunks", "count"},
            {"executor.idle_frac", "fraction"},
            {"executor.imbalance", "ratio"},
            {"executor.us_per_item", "us"},
        };
        // Names must outlive the table: keep them in a static pool.
        static std::vector<std::string> tier_names;
        for (const char *tier : {"analytic", "bfloat16", "binary32",
                                 "binary64", "log", "scaled_dd"}) {
            for (const char *field :
                 {"evaluated", "certified", "bypassed", "ms"})
                tier_names.push_back(std::string("escalate.") + tier +
                                     "." + field);
        }
        for (const auto &name : tier_names) {
            const bool ms = name.size() > 3 &&
                            name.compare(name.size() - 3, 3, ".ms") == 0;
            out.push_back({name.c_str(), ms ? "ms" : "count"});
        }
        const std::vector<MetricSpec> rest = {
            {"escalate.certify_ratio", "fraction"},
            {"escalate.escalated_frac", "fraction"},
            {"certified_frac", "fraction"},
            {"sink.consume_ms", "ms"},
            {"sink.records", "count"},
            {"sink.bytes", "bytes"},
            {"hmm.us_per_seq.log", "us"},
            {"hmm.us_per_seq.posit64_18", "us"},
            {"err_log10.log", "log10"},
            {"err_log10.posit64_18", "log10"},
            {"serve.encode_us", "us"},
            {"serve.send_us", "us"},
            {"serve.decode_us", "us"},
            {"serve.tax_ms", "ms"},
            {"serve.coalesce", "ratio"},
            {"serve.queue_depth_max", "count"},
            {"serve.rejected", "count"},
            {"serve.expired", "count"},
            {"serve.errors", "count"},
            {"loadgen.lag_ms_p99", "ms"},
            {"run.glue_ms", "ms"},
            {"trace.loop_ms", "ms"},
            {"trace.window_ms", "ms"},
            {"trace.spans", "count"},
            {"trace.overhead.items_per_s", "1/s"},
            {"trace.overhead.p50_ms.low", "ms"},
            {"trace.overhead.p50_ms.high", "ms"},
        };
        out.insert(out.end(), rest.begin(), rest.end());
        return out;
    }();
    return specs;
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
    }
}

void
Report::failed(uint64_t n, const std::string &what)
{
    if (n == 0)
        return;
    attempted_ += n;
    failed_ += n;
    std::fprintf(stderr, "perfbench: %llu failed: %s\n",
                 static_cast<unsigned long long>(n), what.c_str());
}

void
Report::set(const std::string &name, double value)
{
    static const std::set<std::string> known = [] {
        std::set<std::string> names;
        for (const auto &spec : endToEndMetrics())
            names.insert(spec.name);
        for (const auto &spec : perLayerMetrics())
            names.insert(spec.name);
        return names;
    }();
    if (known.count(name) == 0)
        throw std::logic_error("perfbench: unknown metric " + name);
    values_[name] = value;
}

void
printReport(const Options &options, const Report &report)
{
    const auto &specs =
        options.trace ? perLayerMetrics() : endToEndMetrics();
    const auto valueOf = [&](const char *name) {
        const auto it = report.values().find(name);
        return it == report.values().end() ? 0.0 : it->second;
    };
    std::printf("%s (seed %llu, %s):\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? "traced" : "untraced");
    for (const auto &spec : specs)
        std::printf("  %-32s %14.6g %s\n", spec.name, valueOf(spec.name),
                    spec.unit);
    for (const auto &[name, value] : report.values()) {
        bool listed = false;
        for (const auto &spec : specs)
            listed = listed || name == spec.name;
        if (!listed)
            std::printf("  %-32s %14.6g (traced-run metric)\n",
                        name.c_str(), value);
    }
    std::printf("  %-32s %14llu of %llu\n", "failed",
                static_cast<unsigned long long>(report.failedCount()),
                static_cast<unsigned long long>(report.attemptedCount()));

    std::string json = "{\"correct\": ";
    json += report.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attemptedCount());
    json += ", \"failed\": " + std::to_string(report.failedCount());
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &spec : specs) {
        double value = valueOf(spec.name);
        if (!std::isfinite(value))
            value = 0.0;
        char number[64];
        std::snprintf(number, sizeof number, "%.17g", value);
        json += first ? "" : ", ";
        json += std::string("\"") + spec.name + "\": {\"value\": " +
                number + ", \"unit\": \"" + spec.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// ------------------------------------------------------------- trace

int64_t
Trace::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
Trace::close(int64_t index)
{
    const double end = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].end_ms = end;
}

void
Trace::write(const std::string &path) const
{
    std::ofstream out(path);
    for (const auto &s : spans_) {
        char line[512];
        std::snprintf(line, sizeof line,
                      "{\"name\": \"%s\", \"start_ms\": %.6f, "
                      "\"end_ms\": %.6f, \"parent\": %lld, "
                      "\"run_id\": %llu, \"thread\": %llu}\n",
                      s.name.c_str(), s.start_ms, s.end_ms,
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.run_id),
                      static_cast<unsigned long long>(s.thread % 100000));
        out << line;
    }
}

uint64_t
threadTag()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

template <typename Fn>
void
TimedSink::timed(size_t items, Fn &&fn)
{
    const double start = trace_.now();
    if (inner_ != nullptr)
        fn(*inner_);
    trace_.add({"sink", start, trace_.now(), parent_, run_id_,
                threadTag()});
    records_ += items;
}

void
TimedSink::consumeResults(
    const pstat::engine::WorkBlock &block,
    std::span<const pstat::engine::EvalResult> results)
{
    timed(results.size(), [&](pstat::engine::ResultSink &sink) {
        sink.consumeResults(block, results);
    });
}

void
TimedSink::consumeAdaptive(const pstat::engine::WorkBlock &block,
                           const pstat::engine::AdaptiveBatch &batch)
{
    timed(batch.results.size(), [&](pstat::engine::ResultSink &sink) {
        sink.consumeAdaptive(block, batch);
    });
}

void
TimedSink::finish()
{
    timed(0, [](pstat::engine::ResultSink &sink) { sink.finish(); });
}

ChunkRecorder::ChunkRecorder(pstat::engine::EvalEngine &engine,
                             Trace &trace)
    : engine_(engine), trace_(trace)
{
    // Hook calls are serialized by the executor; the trace's own
    // mutex orders them against spans added from the run thread.
    engine_.executor().setChunkHook(
        [this](size_t, size_t, double wall_ms) {
            const double stop = trace_.now();
            trace_.add({"chunk", stop - wall_ms, stop, parent_, run_id_,
                        threadTag()});
        });
}

ChunkRecorder::~ChunkRecorder()
{
    engine_.executor().setChunkHook({});
}

pstat::engine::PlanRun
Tracer::run(const pstat::engine::EvalPlan &plan,
            pstat::engine::PlanInputs inputs,
            pstat::engine::ResultSink *sink, bool full_pass)
{
    const uint64_t run_id = ++next_id_;
    const int64_t index = trace.add({full_pass ? "run" : "run.low",
                                     trace.now(), 0.0, -1, run_id,
                                     threadTag()});
    chunks_.setParent(index, run_id);
    TimedSink timed(trace, sink);
    timed.setParent(index, run_id);
    inputs.result_sink = &timed;
    auto out = engine_.run(plan, inputs);
    trace.close(index);
    if (full_pass)
        sink_records += timed.records();
    return out;
}

EngineBreakdown
engineBreakdown(const Trace &trace, unsigned lanes)
{
    const auto &spans = trace.spans();
    std::unordered_map<int64_t, std::vector<const Span *>> chunks;
    std::unordered_map<int64_t, std::vector<const Span *>> sinks;
    for (const auto &s : spans) {
        if (s.name == "chunk")
            chunks[s.parent].push_back(&s);
        else if (s.name == "sink")
            sinks[s.parent].push_back(&s);
    }
    EngineBreakdown b;
    std::unordered_map<uint64_t, double> lane_busy;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &run = spans[i];
        if (run.name != "run")
            continue;
        ++b.runs;
        b.run_ms += run.duration();
        auto &run_chunks = chunks[static_cast<int64_t>(i)];
        std::sort(run_chunks.begin(), run_chunks.end(),
                  [](const Span *a, const Span *c) {
                      return a->start_ms < c->start_ms;
                  });
        for (const Span *chunk : run_chunks) {
            b.busy_ms += chunk->duration();
            lane_busy[chunk->thread] += chunk->duration();
            ++b.chunks;
        }
        double cursor = run.start_ms;
        size_t next_chunk = 0;
        double covered = 0.0;
        // One block: the chunks that started before `until` (the
        // block's delivery); the gap before the first is source wait.
        const auto block = [&](double until) {
            double first = until;
            double last = cursor;
            bool any = false;
            while (next_chunk < run_chunks.size() &&
                   run_chunks[next_chunk]->start_ms < until) {
                first = std::min(first, run_chunks[next_chunk]->start_ms);
                last = std::max(last, run_chunks[next_chunk]->end_ms);
                any = true;
                ++next_chunk;
            }
            if (!any) {
                b.source_wait_ms += until - cursor;
                covered += until - cursor;
                return;
            }
            first = std::max(first, cursor);
            last = std::min(std::max(last, first), until);
            b.source_wait_ms += first - cursor;
            b.executor_wall_ms += last - first;
            covered += last - cursor;
        };
        for (const Span *sink : sinks[static_cast<int64_t>(i)]) {
            block(sink->start_ms);
            b.sink_ms += sink->duration();
            covered += sink->duration();
            cursor = sink->end_ms;
        }
        if (next_chunk < run_chunks.size())
            block(run.end_ms);
        b.glue_ms += std::max(0.0, run.duration() - covered);
    }
    if (b.run_ms > 0.0 && lanes > 0)
        b.idle_frac = 1.0 - b.busy_ms / (b.run_ms * lanes);
    double max_busy = 0.0;
    for (const auto &[thread, busy] : lane_busy)
        max_busy = std::max(max_busy, busy);
    if (b.busy_ms > 0.0 && lanes > 0)
        b.imbalance = max_busy / (b.busy_ms / lanes);
    return b;
}

void
reportEngine(Report &report, const EngineBreakdown &b,
             size_t items_per_run, const BatchWindow &traced)
{
    double window_ms = 0.0;
    for (const double ms : traced.high_ms)
        window_ms += ms;
    // Per-pass means (a pass may hold several runs, one per format).
    const double runs =
        traced.high_ms.empty() ? 1.0
                               : static_cast<double>(traced.high_ms.size());
    report.set("source.wait_ms", b.source_wait_ms / runs);
    report.set("executor.busy_ms", b.busy_ms / runs);
    report.set("executor.wall_ms", b.executor_wall_ms / runs);
    report.set("executor.chunks", static_cast<double>(b.chunks) / runs);
    report.set("executor.idle_frac", b.idle_frac);
    report.set("executor.imbalance", b.imbalance);
    if (items_per_run > 0)
        report.set("executor.us_per_item",
                   1000.0 * b.busy_ms /
                       (runs * static_cast<double>(items_per_run)));
    report.set("sink.consume_ms", b.sink_ms / runs);
    report.set("run.glue_ms", b.glue_ms / runs);
    report.set("trace.loop_ms", (window_ms - b.run_ms) / runs);
    report.set("trace.window_ms", window_ms / runs);
    std::printf("per pass: source wait %.3f + executor %.3f + sink "
                "%.3f + engine glue %.3f + loop %.3f = %.3f ms "
                "(%zu traced runs)\n",
                b.source_wait_ms / runs, b.executor_wall_ms / runs,
                b.sink_ms / runs, b.glue_ms / runs,
                (window_ms - b.run_ms) / runs, window_ms / runs, b.runs);
}

// ------------------------------------------------------------ timing

BatchWindow
timedBatch(double seconds, const std::function<size_t(size_t)> &high,
           const std::function<size_t(size_t)> &low)
{
    BatchWindow w;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    size_t low_index = 0;
    size_t high_index = 0;
    double high_total = 0.0;
    double low_total = 0.0;
    while (Clock::now() < deadline) {
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        const double items = static_cast<double>(high(high_index++));
        const double ms = msBetween(t0, Clock::now());
        w.high_cpu_us.push_back(1e6 * (processCpuSeconds() - cpu0) / items);
        w.high_items.push_back(items);
        w.high_ms.push_back(ms);
        high_total += ms;
        // Small calls until they have had as much time as the passes.
        while (low_total < high_total && Clock::now() < deadline) {
            const auto l0 = Clock::now();
            low(low_index++);
            const double lms = msBetween(l0, Clock::now());
            w.low_ms.push_back(lms);
            low_total += lms;
        }
    }
    return w;
}

void
settle(double seconds, const std::function<void()> &call)
{
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (Clock::now() < deadline)
        call();
}

double
windowedP99(const std::vector<double> &latency_ms, size_t windows)
{
    if (windows == 0 || latency_ms.size() < windows)
        return quantile(latency_ms, 0.99);
    std::vector<double> p99s;
    for (size_t w = 0; w < windows; ++w) {
        const auto begin = latency_ms.begin() + static_cast<std::ptrdiff_t>(
                               latency_ms.size() * w / windows);
        const auto end = latency_ms.begin() + static_cast<std::ptrdiff_t>(
                             latency_ms.size() * (w + 1) / windows);
        p99s.push_back(quantile(std::vector<double>(begin, end), 0.99));
    }
    return median(p99s);
}

void
reportBatch(Report &report, const BatchWindow &w)
{
    std::vector<double> rates;
    for (size_t i = 0; i < w.high_ms.size(); ++i)
        rates.push_back(1000.0 * w.high_items[i] / w.high_ms[i]);
    report.set("items_per_s", median(rates));
    report.set("cpu_us_per_item", median(w.high_cpu_us));
    report.set("p50_ms.low", median(w.low_ms));
    report.set("p99_ms.low", windowedP99(w.low_ms));
    report.set("p50_ms.high", median(w.high_ms));
    report.set("p99_ms.high", windowedP99(w.high_ms));
}

void
reportOverhead(Report &report, const BatchWindow &untraced,
               const BatchWindow &traced)
{
    Report before;
    Report after;
    reportBatch(before, untraced);
    reportBatch(after, traced);
    for (const char *name :
         {"p50_ms.low", "p50_ms.high", "p99_ms.low", "p99_ms.high"})
        report.set(name, before.values().at(name));
    for (const char *name : {"items_per_s", "p50_ms.low", "p50_ms.high"})
        report.set(std::string("trace.overhead.") + name,
                   after.values().at(name) - before.values().at(name));
}

double
timedSetups(int reps, const std::function<void()> &setup,
            const std::function<void()> &teardown)
{
    std::vector<double> seconds;
    for (int r = 0; r < reps; ++r) {
        if (r > 0 && teardown)
            teardown();
        const auto t0 = Clock::now();
        setup();
        seconds.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }
    return median(seconds);
}

} // namespace perfbench
