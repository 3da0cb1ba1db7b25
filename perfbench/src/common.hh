/**
 * @file
 * Shared machinery of the pstat benchmark: options, the metric
 * record every workload fills, the in-memory span trace, and the
 * outside-in instruments (a timing ResultSink tee and an executor
 * chunk recorder) the traced runs attach to pstat's public hooks.
 *
 * Nothing here reaches into src/: every span is taken around a call
 * into a layer's public function, or rebuilt from a public hook.
 */
#ifndef PSTAT_PERFBENCH_COMMON_HH
#define PSTAT_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <mutex>
#include <string>
#include <vector>

#include "engine/eval_engine.hh"
#include "engine/result_sink.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds between two clock readings. */
double msBetween(Clock::time_point from, Clock::time_point to);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs and a short window: the benchmark's own test. */
    bool smoke = false;
};

/** Linearly interpolated quantile of `values` (copied, sorted). */
double quantile(std::vector<double> values, double q);

/** Median of `values`; 0 when empty. */
double median(std::vector<double> values);

/** User + system CPU seconds of this process, all threads. */
double processCpuSeconds();

/** Peak resident set size of this process in MiB. */
double peakRssMib();

/**
 * The outcome of one run: correctness bookkeeping plus the metrics,
 * end-to-end (untraced runs) or per-layer (traced runs). Metric
 * names must be ones the registry in common.cc knows; unset metrics
 * of the active set print as 0 (a layer the workload does not use).
 */
class Report
{
  public:
    /** Count one verified operation; a false `ok` is a failure. */
    void check(bool ok, const std::string &what);
    /** Count `n` operations that completed without a failure. */
    void attempted(uint64_t n) { attempted_ += n; }
    /** Count `n` operations that failed (rejected, expired, ...). */
    void failed(uint64_t n, const std::string &what);

    void set(const std::string &name, double value);

    bool correct() const { return failed_ == 0; }
    uint64_t attemptedCount() const { return attempted_; }
    uint64_t failedCount() const { return failed_; }
    const std::map<std::string, double> &values() const
    {
        return values_;
    }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::map<std::string, double> values_;
};

/** A metric's name and unit, in print order. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every untraced run prints. */
const std::vector<MetricSpec> &endToEndMetrics();
/** The per-layer metrics every traced run prints. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Print the human summary and the final JSON line. */
void printReport(const Options &options, const Report &report);

/** One traced interval, in ms since the trace origin. */
struct Span
{
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int64_t parent = -1;   //!< index of the causing span, or -1
    uint64_t run_id = 0;   //!< run / request id shared by children
    uint64_t thread = 0;   //!< hashed std::thread::id
    double duration() const { return end_ms - start_ms; }
};

/**
 * Spans kept in memory, written as JSON lines at the end. add and
 * close may be called from several threads; spans() only after the
 * traced calls have returned.
 */
class Trace
{
  public:
    Trace() : origin_(Clock::now()) {}
    double now() const { return msBetween(origin_, Clock::now()); }
    double at(Clock::time_point t) const
    {
        return msBetween(origin_, t);
    }
    /** Append a span; returns its index. */
    int64_t add(Span span);
    /** Set the end of span `index` to now. */
    void close(int64_t index);
    const std::vector<Span> &spans() const { return spans_; }
    /** Write one JSON object per span to `path`. */
    void write(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Hash of the calling thread's id, for span records. */
uint64_t threadTag();

/**
 * Result-sink tee that times each delivery. Wraps an optional inner
 * sink (a ShardFileSink on stream-fixed); with none it only counts,
 * so the run still routes every block through the sink layer.
 */
class TimedSink final : public pstat::engine::ResultSink
{
  public:
    TimedSink(Trace &trace, pstat::engine::ResultSink *inner)
        : trace_(trace), inner_(inner)
    {
    }
    void setParent(int64_t parent, uint64_t run_id)
    {
        parent_ = parent;
        run_id_ = run_id;
    }
    size_t records() const { return records_; }

    void consumeResults(
        const pstat::engine::WorkBlock &block,
        std::span<const pstat::engine::EvalResult> results) override;
    void consumeAdaptive(
        const pstat::engine::WorkBlock &block,
        const pstat::engine::AdaptiveBatch &batch) override;
    void finish() override;

  private:
    template <typename Fn> void timed(size_t items, Fn &&fn);

    Trace &trace_;
    pstat::engine::ResultSink *inner_;
    int64_t parent_ = -1;
    uint64_t run_id_ = 0;
    size_t records_ = 0;
};

/**
 * Records every executor chunk of one engine as a "chunk" span,
 * rebuilt from the chunk hook's completion time, wall_ms and the
 * calling lane's thread id. Uninstalls the hook on destruction.
 */
class ChunkRecorder
{
  public:
    ChunkRecorder(pstat::engine::EvalEngine &engine, Trace &trace);
    ~ChunkRecorder();
    ChunkRecorder(const ChunkRecorder &) = delete;
    ChunkRecorder &operator=(const ChunkRecorder &) = delete;
    /** Parent span and run id stamped on the next chunks. */
    void setParent(int64_t parent, uint64_t run_id)
    {
        parent_ = parent;
        run_id_ = run_id;
    }

  private:
    pstat::engine::EvalEngine &engine_;
    Trace &trace_;
    int64_t parent_ = -1;
    uint64_t run_id_ = 0;
};

/**
 * Runs plans on one engine under a trace: each engine.run becomes a
 * root span ("run" within a full pass, "run.low" in a small call) with
 * the chunk and sink spans of that call as its children. The run's
 * result sink (may be null) is teed through a TimedSink.
 */
class Tracer
{
  public:
    explicit Tracer(pstat::engine::EvalEngine &engine)
        : engine_(engine), chunks_(engine, trace)
    {
    }
    pstat::engine::PlanRun run(const pstat::engine::EvalPlan &plan,
                               pstat::engine::PlanInputs inputs,
                               pstat::engine::ResultSink *sink,
                               bool full_pass);

    Trace trace;
    /** Records delivered to the sink layer by full passes. */
    size_t sink_records = 0;

  private:
    pstat::engine::EvalEngine &engine_;
    ChunkRecorder chunks_;
    uint64_t next_id_ = 0;
};

/**
 * Layer self times derived from the "run", "chunk" and "sink" spans
 * of a trace. Along each run: source wait is the time from the end
 * of one block's delivery (or the run start) to the first chunk of
 * the next block; executor wall is first chunk start to last chunk
 * end per block; sink is the deliveries; the rest of the run span
 * is the engine's own serial glue.
 */
struct EngineBreakdown
{
    size_t runs = 0;
    double run_ms = 0.0;
    double source_wait_ms = 0.0;
    double executor_wall_ms = 0.0;
    double sink_ms = 0.0;
    double glue_ms = 0.0;
    double busy_ms = 0.0; //!< sum of chunk durations (lane-ms)
    size_t chunks = 0;
    double idle_frac = 0.0;
    double imbalance = 0.0;
};
EngineBreakdown engineBreakdown(const Trace &trace, unsigned lanes);

struct BatchWindow;

/**
 * Set the executor / source / sink / run metrics of a breakdown, as
 * means per full pass. The loop share is the traced window's
 * full-pass call time outside engine.run, so the printed parts add
 * up to each call's wall time.
 */
void reportEngine(Report &report, const EngineBreakdown &b,
                  size_t items_per_run, const BatchWindow &traced);

/** Latencies and work of a timed batch window (see timedBatch). */
struct BatchWindow
{
    std::vector<double> high_ms;      //!< full-pass call latencies
    std::vector<double> high_cpu_us;  //!< process CPU per item, per pass
    std::vector<double> high_items;   //!< items of each full pass
    std::vector<double> low_ms;       //!< small-call latencies
};

/**
 * The batch workloads' timed loop: rounds of one full-pass call
 * (`high(i)`) followed by enough small calls (`low(i)`) to spend
 * about as long, until `seconds` have passed; each i counts that
 * call's kind up from 0. Each call returns the items it completed.
 */
BatchWindow timedBatch(double seconds,
                       const std::function<size_t(size_t)> &high,
                       const std::function<size_t(size_t)> &low);

/**
 * Untimed load before a timed window: `call` runs back to back for
 * `seconds`. A virtual machine that sat idle runs its first second or
 * so of four-thread load at about a quarter of its speed while the
 * host brings its virtual CPUs back; timing starts after that.
 */
void settle(double seconds, const std::function<void()> &call);

/** The settle time of every full-size run. */
inline constexpr double kSettleSeconds = 2.0;

/**
 * A tail latency that one stall cannot move: the median of the p99s
 * of `windows` consecutive windows of `latency_ms` (in call order).
 */
double windowedP99(const std::vector<double> &latency_ms,
                   size_t windows = 5);

/**
 * items_per_s and cpu_us_per_item (medians over full passes) and the
 * p50 and p99 of both call sizes, of a window.
 */
void reportBatch(Report &report, const BatchWindow &window);

/**
 * trace.overhead.*: traced minus untraced items_per_s and p50s; and
 * the untraced window's p50s and p99s.
 */
void reportOverhead(Report &report, const BatchWindow &untraced,
                    const BatchWindow &traced);

/**
 * Median of `reps` timed setups (the setup_s metric). `teardown`, when
 * given, runs untimed before every setup but the first.
 */
double timedSetups(int reps, const std::function<void()> &setup,
                   const std::function<void()> &teardown = {});

/** A file's size in bytes (0 if missing). */
uint64_t fileBytes(const std::string &path);

/** Bit-identical results: same flags, same exact value. */
bool sameResult(const pstat::engine::EvalResult &a,
                const pstat::engine::EvalResult &b);

/** Part k (mod parts) of `items` cut into `parts` near-equal slices. */
template <typename T>
std::span<const T>
sliceOf(std::span<const T> items, size_t k, size_t parts)
{
    k %= parts;
    const size_t begin = items.size() * k / parts;
    const size_t end = items.size() * (k + 1) / parts;
    return items.subspan(begin, end - begin);
}

/** Workload entry points. */
void runStreamFixed(const Options &options, Report &report);
void runLadderLowq(const Options &options, Report &report);
void runServeSmall(const Options &options, Report &report);
void runHmmForward(const Options &options, Report &report);

} // namespace perfbench

#endif // PSTAT_PERFBENCH_COMMON_HH
