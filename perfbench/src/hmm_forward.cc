/**
 * @file
 * hmm-forward: the Forward kernel over jobs of one phylogenetics
 * model from makePhyloModel (the paper's H = 13), in the paper's two
 * deep-range representations, `log` (n-ary log-sum-exp) and
 * `posit64_18` (tree reduction). Kernel-bound in core/posit.hh,
 * core/logspace.hh and hmm/; the only workload running posit or log
 * arithmetic.
 *
 * High call: every job in both formats. Low call: an eighth of the
 * jobs in both formats.
 */

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common.hh"
#include "engine/eval_engine.hh"
#include "hmm/generator.hh"
#include "stats/rng.hh"

namespace perfbench
{

namespace
{

using namespace pstat;

constexpr size_t kLowSlices = 8;
const char *const kFormats[] = {"log", "posit64_18"};

struct HmmConfig
{
    int jobs;
    size_t length;
    int setup_reps;
};

constexpr HmmConfig kFull{64, 1500, 3};
constexpr HmmConfig kSmoke{8, 60, 1};

engine::EvalPlan
forwardPlan(const char *format)
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::Forward;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = format;
    plan.dataflow = engine::Dataflow::Accelerator;
    return plan;
}

} // namespace

void
runHmmForward(const Options &options, Report &report)
{
    const HmmConfig config = options.smoke ? kSmoke : kFull;
    const engine::EvalPlan plans[] = {forwardPlan(kFormats[0]),
                                      forwardPlan(kFormats[1])};

    engine::EvalEngine engine;
    hmm::Model model;
    std::vector<std::vector<int>> sequences;
    std::vector<engine::ForwardJob> jobs;
    std::vector<engine::EvalResult> last[2];
    double format_ms[2] = {0.0, 0.0};

    const auto call = [&](std::span<const engine::ForwardJob> batch,
                          Tracer *tracer, bool full) {
        engine::PlanInputs inputs;
        inputs.jobs = batch;
        for (int f = 0; f < 2; ++f) {
            const auto t0 = Clock::now();
            auto results =
                tracer != nullptr
                    ? tracer->run(plans[f], inputs, nullptr, full).results
                    : engine.run(plans[f], inputs).results;
            if (tracer != nullptr && full)
                format_ms[f] += msBetween(t0, Clock::now());
            if (full)
                last[f] = std::move(results);
        }
        return 2 * batch.size();
    };

    const double setup_s = timedSetups(config.setup_reps, [&] {
        stats::Rng rng(options.seed * 6364136223846793005ULL + 13);
        model = hmm::makePhyloModel(rng, hmm::PhyloConfig{});
        sequences.clear();
        for (int j = 0; j < config.jobs; ++j)
            sequences.push_back(hmm::sampleUniformObservations(
                rng, model.num_symbols, config.length));
        jobs.clear();
        for (const auto &obs : sequences)
            jobs.push_back({&model, obs});
        call(jobs, nullptr, true); // warm-up
    });

    settle(options.smoke ? 0.0 : kSettleSeconds,
           [&] { call(jobs, nullptr, true); });

    const auto window = [&](double seconds, Tracer *tracer) {
        return timedBatch(
            seconds, [&](size_t) { return call(jobs, tracer, true); },
            [&](size_t i) {
                return call(sliceOf<engine::ForwardJob>(jobs, i, kLowSlices),
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
                     2 * jobs.size(), traced);
        reportOverhead(report, untraced, traced);
        const double seqs = static_cast<double>(traced.high_ms.size()) *
                            static_cast<double>(jobs.size());
        report.set("hmm.us_per_seq.log", 1000.0 * format_ms[0] / seqs);
        report.set("hmm.us_per_seq.posit64_18",
                   1000.0 * format_ms[1] / seqs);
        report.set("sink.records",
                   static_cast<double>(tracer.sink_records) /
                       static_cast<double>(traced.high_ms.size()));
        report.set("trace.spans",
                   static_cast<double>(tracer.trace.spans().size()));
        tracer.trace.write("trace_hmm-forward.jsonl");
    }

    // ---- output checks: bit-identical to run(plan) at one lane.
    engine::EvalEngine serial(1);
    engine::PlanInputs inputs;
    inputs.jobs = jobs;
    for (int f = 0; f < 2; ++f) {
        const auto want = serial.run(plans[f], inputs).results;
        report.check(want.size() == last[f].size(),
                     std::string("hmm-forward: result count, ") +
                         kFormats[f]);
        for (size_t i = 0; i < want.size() && i < last[f].size(); ++i)
            report.check(sameResult(last[f][i], want[i]),
                         std::string("hmm-forward: job ") +
                             std::to_string(i) + " differs at one lane, " +
                             kFormats[f]);
    }

    // Accuracy against the ScaledDD oracle (median log10 rel error).
    const auto oracle = engine.forwardOracleBatch(jobs);
    for (int f = 0; f < 2; ++f) {
        engine::AccuracyTally tally(kFormats[f]);
        for (size_t i = 0; i < jobs.size(); ++i)
            tally.add(oracle[i], last[f][i]);
        const double err = median(tally.errors());
        std::printf("hmm-forward: err_log10.%s %.4f (median over %zu "
                    "jobs, %d underflows)\n",
                    kFormats[f], err, tally.errors().size(),
                    tally.underflows());
        if (options.trace)
            report.set(std::string("err_log10.") + kFormats[f], err);
    }
}

} // namespace perfbench
