/**
 * @file
 * stream-fixed: fixed binary64 p-values over deep-coverage Columns
 * shards streamed through io::ShardStream, results persisted through
 * a ShardFileSink — what `pstat eval -o` does. Shard open and CRC
 * dominate the pass, so this is the source-bound workload; the
 * policy layer does nothing here.
 *
 * High call: one run over every shard. Low call: one run over a
 * single shard. Shards are timed page-cache warm: setup writes them
 * and runs a warm-up pass.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hh"
#include "core/real_traits.hh"
#include "engine/eval_engine.hh"
#include "engine/result_sink.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "stats/rng.hh"

namespace perfbench
{

namespace
{

using namespace pstat;

struct StreamConfig
{
    int shards;
    int columns_per_shard;
    double median_coverage;
    int sample_checks;
    int setup_reps;
};

constexpr StreamConfig kFull{16, 250, 1800.0, 96, 3};
constexpr StreamConfig kSmoke{2, 12, 200.0, 8, 1};

std::string
shardPath(int s)
{
    return "stream_" + std::to_string(s) + ".shard";
}

/** Deep-coverage columns, one seeded dataset per shard. */
void
writeShards(const StreamConfig &config, uint64_t seed)
{
    for (int s = 0; s < config.shards; ++s) {
        pbd::DatasetConfig dataset;
        dataset.num_columns = config.columns_per_shard;
        dataset.median_coverage = config.median_coverage;
        dataset.coverage_sigma = 0.4;
        dataset.mean_phred = 30.0;
        // Background columns only. The heavy-tailed variant columns
        // (K up to the thousands) would make the kernel, not the
        // source, the blocking step, and a few of them would set most
        // of a pass's time, differently for every seed.
        dataset.variant_fraction = 0.0;
        dataset.seed = seed * 7919ULL + static_cast<uint64_t>(s);
        io::ShardWriter writer(shardPath(s), io::ShardPayload::Columns);
        pbd::generateColumns(dataset, [&](pbd::Column &&column) {
            writer.add(column);
        });
        writer.close();
    }
}

engine::EvalPlan
streamPlan(std::vector<std::string> paths)
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::ShardStream;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = "binary64";
    plan.sum = engine::PlanSum::Plain;
    plan.shard_paths = std::move(paths);
    return plan;
}

} // namespace

void
runStreamFixed(const Options &options, Report &report)
{
    const StreamConfig config = options.smoke ? kSmoke : kFull;
    std::vector<std::string> paths;
    for (int s = 0; s < config.shards; ++s)
        paths.push_back(shardPath(s));
    const engine::EvalPlan full_plan = streamPlan(paths);
    std::vector<engine::EvalPlan> shard_plans;
    for (const auto &path : paths)
        shard_plans.push_back(streamPlan({path}));
    const std::string out_path = "stream_results.shard";
    const std::string low_path = "stream_results_low.shard";
    const std::string label = engine::resultFormatLabel(full_plan);

    engine::EvalEngine engine;
    std::vector<engine::EvalResult> last_results;
    size_t items_per_pass = 0;

    // One call: a fresh ShardFileSink per run, as `pstat eval -o`.
    const auto call = [&](const engine::EvalPlan &plan, Tracer *tracer,
                          bool full) {
        engine::ShardFileSink file(full ? out_path : low_path,
                                   plan.kernel, label);
        engine::PlanRun run;
        if (tracer != nullptr) {
            run = tracer->run(plan, {}, &file, full);
        } else {
            engine::PlanInputs inputs;
            inputs.result_sink = &file;
            run = engine.run(plan, inputs);
        }
        const size_t items = run.results.size();
        if (full)
            last_results = std::move(run.results);
        return items;
    };

    const double setup_s = timedSetups(config.setup_reps, [&] {
        writeShards(config, options.seed);
        items_per_pass = call(full_plan, nullptr, true); // warm-up
    });

    settle(options.smoke ? 0.0 : kSettleSeconds,
           [&] { call(full_plan, nullptr, true); });

    const auto window = [&](double seconds, Tracer *tracer) {
        return timedBatch(
            seconds, [&](size_t) { return call(full_plan, tracer, true); },
            [&](size_t i) {
                return call(shard_plans[i % shard_plans.size()], tracer,
                            false);
            });
    };

    if (!options.trace) {
        reportBatch(report, window(options.seconds, nullptr));
        report.set("setup_s", setup_s);
    } else {
        const BatchWindow untraced = window(options.seconds / 2, nullptr);

        // io layer: standalone timed ShardReader opens (map + CRC).
        double open_ms = 0.0;
        uint64_t bytes = 0;
        for (const auto &path : paths) {
            const auto t0 = Clock::now();
            const io::ShardReader reader(path);
            open_ms += msBetween(t0, Clock::now());
            bytes += reader.fileBytes();
        }
        report.set("io.open_ms", open_ms);
        report.set("io.open_mb_per_s",
                   open_ms > 0.0 ? bytes / 1e3 / open_ms : 0.0);
        report.set("io.bytes", static_cast<double>(bytes));
        report.set("io.shards", static_cast<double>(paths.size()));

        Tracer tracer(engine);
        const BatchWindow traced = window(options.seconds / 2, &tracer);
        const EngineBreakdown b =
            engineBreakdown(tracer.trace, engine.threadCount());
        reportEngine(report, b, items_per_pass, traced);

        // Source bookkeeping from one more (untraced) pass.
        engine::ShardFileSink file(out_path, full_plan.kernel, label);
        engine::PlanInputs inputs;
        inputs.result_sink = &file;
        engine::PlanRun run = engine.run(full_plan, inputs);
        const engine::StreamStats stats = run.stream;
        last_results = std::move(run.results);
        report.set("source.peak_queue_depth",
                   static_cast<double>(stats.peak_queue_depth));
        report.set("source.peak_mapped_bytes",
                   static_cast<double>(stats.peak_mapped_bytes));
        report.set("sink.records",
                   static_cast<double>(tracer.sink_records) /
                       static_cast<double>(traced.high_ms.size()));
        report.set("sink.bytes", static_cast<double>(fileBytes(out_path)));
        report.set("trace.spans",
                   static_cast<double>(tracer.trace.spans().size()));
        reportOverhead(report, untraced, traced);
        tracer.trace.write("trace_stream-fixed.jsonl");
    }

    // ---- output checks, outside the timed windows.
    // The last full pass's result shard reads back equal.
    const auto shard = engine::readResultShard(out_path);
    bool readback = shard.results.size() == last_results.size();
    for (size_t i = 0; readback && i < last_results.size(); ++i)
        readback = sameResult(shard.results[i], last_results[i]);
    report.check(readback, "stream-fixed: result shard reads back equal");

    // A seeded sample is bit-identical to the scalar kernel.
    stats::Rng rng(options.seed * 2654435761ULL + 17);
    std::vector<io::ShardReader> readers;
    for (const auto &path : paths)
        readers.emplace_back(path);
    for (int c = 0; c < config.sample_checks; ++c) {
        const size_t s = rng() % readers.size();
        const size_t i = rng() % readers[s].size();
        const size_t global = s * config.columns_per_shard + i;
        const pbd::ColumnView column = readers[s].column(i);
        const double scalar =
            pbd::pvalue<double>(column.success_probs, column.k);
        engine::EvalResult want;
        want.invalid = RealTraits<double>::isInvalid(scalar);
        want.underflow = RealTraits<double>::isZero(scalar);
        want.value = RealTraits<double>::toBigFloat(scalar);
        report.check(global < last_results.size() &&
                         sameResult(last_results[global], want),
                     "stream-fixed: column " + std::to_string(global) +
                         " differs from scalar pvalue<double>");
    }
    readers.clear();

    for (const auto &path : paths)
        std::filesystem::remove(path);
    std::filesystem::remove(out_path);
    std::filesystem::remove(low_path);
}

} // namespace perfbench
