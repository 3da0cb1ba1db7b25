/**
 * @file
 * ladder-lowq: the adaptive policy (analytic bounds, then bfloat16 ->
 * binary32 -> binary64 -> log -> scaled_dd) over the fig16 column mix
 * — deep-coverage datasets plus a borderline slice near the 2^-200
 * decision threshold — at low read quality (mean Phred 20), from a
 * memory source. Most columns climb past the analytic tier, so the
 * ladder's tiers dominate; io and serve do nothing here.
 *
 * The mix holds 7200 columns. High call: one run over either half of
 * them, alternately. Low call: one run over an eighth of them.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common.hh"
#include "engine/escalate.hh"
#include "engine/eval_engine.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "stats/rng.hh"

namespace perfbench
{

namespace
{

using namespace pstat;

constexpr double kThresholdLog2 = -200.0;
constexpr size_t kLowSlices = 8;

struct LadderConfig
{
    int columns_per_dataset;
    /** One in this many analytic-certified columns is audited. */
    size_t analytic_audit_stride;
    int setup_reps;
};

// Twice fig16's size: a few hundred columns climb to bfloat16 and
// carry most of a pass, so a smaller mix varies by tens of percent
// between seeds.
constexpr LadderConfig kFull{1000, 8, 3};
constexpr LadderConfig kSmoke{20, 1, 1};

/** The fig16 mix: six deep datasets, a fifth more borderline. */
std::vector<pbd::Column>
makeLadderColumns(int columns_per_dataset, uint64_t seed)
{
    std::vector<pbd::Column> out;
    for (int d = 0; d < 6; ++d) {
        pbd::DatasetConfig config;
        config.num_columns = columns_per_dataset;
        config.median_coverage = 1800.0 + 250.0 * d;
        config.coverage_sigma = 0.40;
        config.mean_phred = 20.0 + 1.0 * (d % 3);
        config.phred_sigma = 3.0;
        config.variant_fraction = 0.04;
        config.seed = seed * 1000003ULL + 97ULL * d;
        std::string name = "L";
        name += std::to_string(d);
        auto dataset = pbd::makeDataset(config, name);
        stats::Rng rng(seed * 31ULL + 7907ULL + d);
        const int borderline = columns_per_dataset / 5;
        for (int i = 0; i < borderline; ++i)
            dataset.columns.push_back(pbd::makeColumnWithTarget(
                rng, rng.uniform(150.0, 260.0)));
        for (auto &column : dataset.columns)
            out.push_back(std::move(column));
    }
    // Shuffled, so every low-call slice carries the same mix.
    stats::Rng rng(seed * 8191ULL + 5);
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

/** Per-tier totals over the traced full passes. */
struct TierTotals
{
    double evaluated = 0.0;
    double certified = 0.0;
    double bypassed = 0.0;
    double ms = 0.0;
};

} // namespace

void
runLadderLowq(const Options &options, Report &report)
{
    const LadderConfig config = options.smoke ? kSmoke : kFull;
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Adaptive;
    plan.cert.threshold_log2 = kThresholdLog2;
    plan.sum = engine::PlanSum::Plain;

    engine::EvalEngine engine;
    std::vector<pbd::Column> columns;
    std::map<std::string, TierTotals> tiers;
    size_t escalated = 0;
    size_t traced_items = 0;

    const auto call = [&](std::span<const pbd::Column> batch,
                          Tracer *tracer, bool full) {
        engine::PlanInputs inputs;
        inputs.columns = batch;
        engine::AdaptiveBatch out =
            tracer != nullptr ? tracer->run(plan, inputs, nullptr, full)
                                    .adaptive
                              : engine.run(plan, inputs).adaptive;
        if (tracer != nullptr && full) {
            for (const auto &tier : out.tiers) {
                auto &t = tiers[tier.format_id];
                t.evaluated += static_cast<double>(tier.evaluated);
                t.certified += static_cast<double>(tier.certified);
                t.bypassed += static_cast<double>(tier.bypassed);
                t.ms += tier.wall_ms;
            }
            for (const auto &r : out.results)
                escalated += r.tier >= 0 ? 1 : 0;
            traced_items += out.results.size();
        }
        return out.results.size();
    };
    const auto half = [&](size_t i) {
        return sliceOf<pbd::Column>(columns, i, 2);
    };

    const double setup_s = timedSetups(config.setup_reps, [&] {
        columns = makeLadderColumns(config.columns_per_dataset,
                                    options.seed);
        call(columns, nullptr, true); // warm-up
    });

    size_t settle_index = 0;
    settle(options.smoke ? 0.0 : kSettleSeconds,
           [&] { call(half(settle_index++), nullptr, true); });

    const auto window = [&](double seconds, Tracer *tracer) {
        return timedBatch(
            seconds,
            [&](size_t i) { return call(half(i), tracer, true); },
            [&](size_t i) {
                return call(sliceOf<pbd::Column>(columns, i, kLowSlices),
                            tracer, false);
            });
    };

    if (!options.trace) {
        reportBatch(report, window(options.seconds, nullptr));
        report.set("setup_s", setup_s);
    } else {
        const BatchWindow untraced = window(options.seconds / 2, nullptr);
        Tracer tracer(engine);
        const BatchWindow traced = window(options.seconds / 2, &tracer);
        reportEngine(report,
                     engineBreakdown(tracer.trace, engine.threadCount()),
                     columns.size() / 2, traced);
        reportOverhead(report, untraced, traced);
        const double passes = static_cast<double>(traced.high_ms.size());
        double evaluated = 0.0;
        double certified = 0.0;
        for (const auto &[id, t] : tiers) {
            const std::string prefix = "escalate." + id + ".";
            report.set(prefix + "evaluated", t.evaluated / passes);
            report.set(prefix + "certified", t.certified / passes);
            report.set(prefix + "bypassed", t.bypassed / passes);
            report.set(prefix + "ms", t.ms / passes);
            evaluated += t.evaluated;
            certified += t.certified;
        }
        report.set("escalate.certify_ratio",
                   evaluated > 0.0 ? certified / evaluated : 0.0);
        report.set("escalate.escalated_frac",
                   static_cast<double>(escalated) /
                       static_cast<double>(traced_items));
        report.set("sink.records",
                   static_cast<double>(tracer.sink_records) / passes);
        report.set("trace.spans",
                   static_cast<double>(tracer.trace.spans().size()));
        tracer.trace.write("trace_ladder-lowq.jsonl");
    }

    // ---- output checks, on one more untimed pass over every column:
    // no certified decision is wrong against the BigFloat oracle.
    // Every column certified by a format tier is audited, and a seeded
    // sample of the columns the analytic bound certified (their oracle
    // costs most of the audit).
    engine::PlanInputs inputs;
    inputs.columns = columns;
    const engine::AdaptiveBatch last = engine.run(plan, inputs).adaptive;
    std::vector<size_t> audit;
    stats::Rng rng(options.seed * 2246822519ULL + 3);
    for (size_t i = 0; i < last.results.size(); ++i) {
        if (!last.results[i].certified)
            continue;
        if (last.results[i].tier != engine::kTierAnalytic ||
            rng() % config.analytic_audit_stride == 0)
            audit.push_back(i);
    }
    std::vector<BigFloat> oracle(audit.size());
    engine.parallelFor(audit.size(), [&](size_t j) {
        const auto &column = columns[audit[j]];
        oracle[j] = pbd::pvalue<BigFloat>(column.success_probs, column.k);
    });
    report.check(last.results.size() == columns.size(),
                 "ladder-lowq: one result per column");
    for (size_t j = 0; j < audit.size(); ++j) {
        const auto &r = last.results[audit[j]];
        const bool oracle_below = oracle[j].isZero() ||
                                  oracle[j].log2Abs() < kThresholdLog2;
        // A certified interval must lie wholly on one side of the
        // threshold; one that straddles it certified nothing.
        bool wrong = true;
        if (r.interval.hi_log2 < kThresholdLog2)
            wrong = !oracle_below;
        else if (r.interval.lo_log2 >= kThresholdLog2)
            wrong = oracle_below;
        report.check(!wrong, "ladder-lowq: certified decision of column " +
                                 std::to_string(audit[j]) + " is wrong");
    }
    const double certified_frac =
        columns.empty() ? 0.0
                        : static_cast<double>(last.certified) /
                              static_cast<double>(columns.size());
    std::printf("ladder-lowq: certified_frac %.6f (%zu of %zu columns "
                "certified)\n",
                certified_frac, last.certified, columns.size());
    if (options.trace)
        report.set("certified_frac", certified_frac);
}

} // namespace perfbench
