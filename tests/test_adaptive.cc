/**
 * @file
 * Quick unit tests of the adaptive escalation subsystem: ladder
 * parsing, certification logic, interval edge cases, analytic-bound
 * containment, screen/skip precedence over escalation, tier
 * accounting, and the engine's argument validation. The heavyweight
 * differential sweeps live in tests/test_escalate.cc (labels
 * "diff;slow"); everything here is fast enough for the PR lane.
 */

#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "engine/escalate.hh"
#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "hmm/generator.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/screen.hh"
#include "stats/rng.hh"

namespace
{

using namespace pstat;
using engine::CertConfig;
using engine::ResultInterval;

constexpr double kInf = std::numeric_limits<double>::infinity();

engine::EvalEngine &
sharedEngine()
{
    static engine::EvalEngine engine;
    return engine;
}

/**
 * run() of an adaptive PValue x Memory plan over @p columns on the
 * default ladder, behind the default screen when @p screened.
 */
engine::AdaptiveBatch
adaptivePValues(std::span<const pbd::Column> columns,
                const CertConfig &cert, bool screened = false)
{
    engine::EvalPlan plan;
    plan.policy = screened ? engine::PlanPolicy::ScreenedAdaptive
                           : engine::PlanPolicy::Adaptive;
    plan.cert = cert;
    engine::PlanInputs inputs;
    inputs.columns = columns;
    return sharedEngine().run(plan, inputs).adaptive;
}

pbd::Column
iidColumn(int n, double p, int k)
{
    pbd::Column col;
    col.success_probs.assign(static_cast<size_t>(n), p);
    col.k = k;
    return col;
}

TEST(Ladder, ParsesSpecsAgainstTheRegistry)
{
    const auto ladder =
        engine::parseLadder(" binary32 , binary64 ,log");
    ASSERT_TRUE(ladder.has_value());
    ASSERT_EQ(ladder->tiers.size(), 3u);
    EXPECT_EQ(ladder->tiers[0]->id(), "binary32");
    EXPECT_EQ(ladder->tiers[1]->id(), "binary64");
    EXPECT_EQ(ladder->tiers[2]->id(), "log");

    EXPECT_FALSE(engine::parseLadder("").has_value());
    EXPECT_FALSE(engine::parseLadder("binary64,").has_value());
    EXPECT_FALSE(engine::parseLadder("binary64,,log").has_value());
    EXPECT_FALSE(engine::parseLadder("binary63").has_value());
    EXPECT_FALSE(
        engine::parseLadder("binary64 binary32").has_value());
}

TEST(Ladder, DefaultStartsAtBinary64)
{
    if (std::getenv("PSTAT_LADDER") != nullptr)
        GTEST_SKIP() << "PSTAT_LADDER overrides the default ladder";
    // Ordered by software cost: bfloat16 and binary32 are no cheaper
    // than binary64 in scalar code and certify fewer columns.
    const engine::Ladder &ladder = engine::defaultLadder();
    ASSERT_EQ(ladder.tiers.size(), 3u);
    EXPECT_EQ(ladder.tiers[0]->id(), "binary64");
    EXPECT_EQ(ladder.tiers[1]->id(), "log");
    EXPECT_EQ(ladder.tiers[2]->id(), "scaled_dd");
}

TEST(Ladder, PaperLadderStillCertifiesEverything)
{
    // The paper's hardware order, narrow formats first, stays
    // selectable: it parses, and run(plan) climbs it to full
    // certified coverage.
    const auto ladder = engine::parseLadder(
        "bfloat16,binary32,binary64,log,scaled_dd");
    ASSERT_TRUE(ladder.has_value());
    ASSERT_EQ(ladder->tiers.size(), 5u);
    EXPECT_EQ(ladder->tiers[0]->id(), "bfloat16");
    EXPECT_EQ(ladder->tiers[1]->id(), "binary32");

    pbd::DatasetConfig config;
    config.num_columns = 200;
    config.median_coverage = 300.0;
    config.mean_phred = 20.0;
    config.variant_fraction = 0.05;
    config.seed = 1616;
    auto dataset = pbd::makeDataset(config, "paper-ladder");
    stats::Rng rng(1616);
    for (int i = 0; i < 40; ++i)
        dataset.columns.push_back(
            pbd::makeColumnWithTarget(rng, rng.uniform(150.0, 260.0)));

    engine::EvalPlan plan;
    plan.policy = engine::PlanPolicy::Adaptive;
    plan.cert.threshold_log2 = -200.0;
    for (const engine::FormatOps *tier : ladder->tiers)
        plan.ladder_ids.push_back(tier->id());
    engine::PlanInputs inputs;
    inputs.columns = dataset.columns;
    const engine::AdaptiveBatch batch =
        sharedEngine().run(plan, inputs).adaptive;
    EXPECT_EQ(batch.uncertified, 0u);
    EXPECT_EQ(batch.certified, dataset.columns.size());
    // The narrow tiers ran: the borderline slice climbs past the
    // analytic bounds into bfloat16 first.
    ASSERT_GE(batch.tiers.size(), 2u);
    EXPECT_EQ(batch.tiers[0].format_id, "analytic");
    EXPECT_EQ(batch.tiers[1].format_id, "bfloat16");
    EXPECT_GT(batch.tiers[1].evaluated + batch.tiers[1].bypassed, 0u);
}

TEST(Certifies, HonorsToleranceThresholdAndBoth)
{
    ResultInterval tight;
    tight.lo_log2 = -230.0;
    tight.hi_log2 = -229.0;
    tight.rel_bound_log2 = -30.0;

    CertConfig tol_only;
    tol_only.tol_rel_log2 = -20.0;
    EXPECT_TRUE(engine::certifies(tight, tol_only));
    tol_only.tol_rel_log2 = -40.0;
    EXPECT_FALSE(engine::certifies(tight, tol_only));

    CertConfig thr_only;
    thr_only.threshold_log2 = -200.0;
    EXPECT_TRUE(engine::certifies(tight, thr_only)); // below
    thr_only.threshold_log2 = -229.5;
    EXPECT_FALSE(engine::certifies(tight, thr_only)); // straddles
    thr_only.threshold_log2 = -230.0;
    EXPECT_TRUE(engine::certifies(tight, thr_only)); // at/above

    CertConfig both;
    both.tol_rel_log2 = -20.0;
    both.threshold_log2 = -200.0;
    EXPECT_TRUE(engine::certifies(tight, both));
    both.tol_rel_log2 = -40.0; // tolerance now fails -> both fail
    EXPECT_FALSE(engine::certifies(tight, both));

    // A vacuous interval certifies nothing; an empty cert rejects.
    EXPECT_FALSE(engine::certifies(ResultInterval{}, both));
    EXPECT_FALSE(engine::certifies(tight, CertConfig{}));
}

TEST(Intervals, StructuralAndVacuousCases)
{
    const auto &registry = engine::FormatRegistry::instance();
    const engine::ErrorModel b64 =
        registry.at("binary64").errorModel();
    const pbd::Column generic = iidColumn(20, 0.01, 3);
    engine::EvalResult result;
    result.value = BigFloat::fromDouble(1.0);

    // K <= 0: the exact p-value 1, no matter the computed value.
    pbd::Column trivial = iidColumn(20, 0.01, 0);
    const ResultInterval one = engine::pbdPValueInterval(
        b64, trivial.view(), engine::SumPolicy::Plain, result);
    EXPECT_EQ(one.lo_log2, 0.0);
    EXPECT_EQ(one.hi_log2, 0.0);
    EXPECT_EQ(one.rel_bound_log2, -kInf);

    // K > N: the exact zero.
    pbd::Column impossible = iidColumn(20, 0.01, 21);
    engine::EvalResult zero;
    zero.value = BigFloat::zero();
    zero.underflow = true;
    const ResultInterval none = engine::pbdPValueInterval(
        b64, impossible.view(), engine::SumPolicy::Plain, zero);
    EXPECT_EQ(none.lo_log2, -kInf);
    EXPECT_EQ(none.hi_log2, -kInf);
    EXPECT_EQ(none.rel_bound_log2, -kInf);

    // Invalid results and uncertifiable formats get the vacuous
    // interval.
    engine::EvalResult invalid;
    invalid.invalid = true;
    const ResultInterval vac = engine::pbdPValueInterval(
        b64, generic.view(), engine::SumPolicy::Plain, invalid);
    EXPECT_EQ(vac.lo_log2, -kInf);
    EXPECT_EQ(vac.hi_log2, kInf);
    EXPECT_EQ(vac.rel_bound_log2, kInf);

    const engine::ErrorModel posit =
        registry.at("posit32").errorModel();
    EXPECT_FALSE(engine::certifiable(posit));
    const ResultInterval vac2 = engine::pbdPValueInterval(
        posit, generic.view(), engine::SumPolicy::Plain, result);
    EXPECT_EQ(vac2.rel_bound_log2, kInf);

    // A computed zero in a flushing format keeps the flush mass as
    // its upper endpoint and makes no relative claim.
    const ResultInterval flushed = engine::pbdPValueInterval(
        b64, generic.view(), engine::SumPolicy::Plain, zero);
    EXPECT_EQ(flushed.lo_log2, -kInf);
    EXPECT_TRUE(std::isfinite(flushed.hi_log2));
    EXPECT_LT(flushed.hi_log2, -1000.0);
    EXPECT_EQ(flushed.rel_bound_log2, kInf);
}

TEST(Intervals, LinearIntervalEnclosesExactIidTail)
{
    const auto &registry = engine::FormatRegistry::instance();
    const engine::FormatOps &b64 = registry.at("binary64");
    const pbd::Column col = iidColumn(80, 3e-3, 4);
    engine::EvalPlan plan;
    plan.format_id = b64.id();
    plan.sum = engine::PlanSum::Plain;
    engine::PlanInputs inputs;
    inputs.columns = std::span<const pbd::Column>(&col, 1);
    const auto results = sharedEngine().run(plan, inputs).results;
    ASSERT_EQ(results.size(), 1u);
    const ResultInterval iv = engine::pbdPValueInterval(
        b64.errorModel(), col.view(), engine::SumPolicy::Plain,
        results[0]);
    const BigFloat exact = pbd::binomialTailExact(80, 3e-3, 4);
    const double exact_log2 = exact.log2Abs();
    EXPECT_LE(iv.lo_log2, exact_log2);
    EXPECT_GE(iv.hi_log2, exact_log2);
    // binary64's running bound on an 80-read column is far tighter
    // than a bit yet never tighter than the format.
    EXPECT_LT(iv.rel_bound_log2, -30.0);
    EXPECT_GT(iv.rel_bound_log2, -53.0);
}

TEST(Intervals, AnalyticBoundsContainExactIidTail)
{
    stats::Rng rng(0xa11a5eedULL);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 1 + static_cast<int>(rng.below(60));
        const int k = static_cast<int>(rng.below(
            static_cast<uint64_t>(n) + 2));
        const double p = std::pow(10.0, rng.uniform(-8.0, 0.0));
        const pbd::Column col = iidColumn(n, p, k);
        const pbd::PValueBoundsLog2 bounds =
            pbd::certifiedBoundsLog2(col.view());
        const BigFloat exact = pbd::binomialTailExact(n, p, k);
        if (exact.isZero()) {
            EXPECT_EQ(bounds.lo_log2, -kInf) << "trial " << trial;
            continue;
        }
        const double exact_log2 = exact.log2Abs();
        EXPECT_LE(bounds.lo_log2, exact_log2 + 1e-9)
            << "trial " << trial << " n=" << n << " k=" << k
            << " p=" << p;
        EXPECT_GE(bounds.hi_log2, exact_log2 - 1e-9)
            << "trial " << trial << " n=" << n << " k=" << k
            << " p=" << p;
    }
}

TEST(Adaptive, RejectsMalformedArguments)
{
    const std::vector<pbd::Column> columns{iidColumn(10, 0.1, 2)};

    CertConfig empty;
    EXPECT_THROW(adaptivePValues(columns, empty),
                 std::invalid_argument);

    CertConfig positive_tol;
    positive_tol.tol_rel_log2 = 0.5;
    EXPECT_THROW(adaptivePValues(columns, positive_tol),
                 std::invalid_argument);

    CertConfig nan_thr;
    nan_thr.threshold_log2 = std::nan("");
    EXPECT_THROW(adaptivePValues(columns, nan_thr),
                 std::invalid_argument);
}

TEST(Adaptive, SkippedColumnsAreNeverEscalated)
{
    // A screening-heavy dataset: plenty of clearly insignificant
    // columns, a few deep ones.
    pbd::DatasetConfig config;
    config.num_columns = 400;
    config.median_coverage = 90.0;
    config.coverage_sigma = 0.5;
    config.variant_fraction = 0.08;
    config.seed = 4242;
    const auto dataset = pbd::makeDataset(config, "adaptive-screen");

    CertConfig cert;
    cert.threshold_log2 = -200.0;
    const engine::AdaptiveBatch batch =
        adaptivePValues(dataset.columns, cert, true);

    ASSERT_EQ(batch.skipped.size(), dataset.columns.size());
    size_t skipped = 0;
    for (size_t i = 0; i < dataset.columns.size(); ++i) {
        if (!batch.skipped[i])
            continue;
        ++skipped;
        const engine::EscalationResult &r = batch.results[i];
        // The mask wins: a placeholder, never a certificate, and the
        // placeholder is the screen's magnitude estimate.
        EXPECT_EQ(r.tier, engine::kTierSkipped);
        EXPECT_FALSE(r.certified);
        EXPECT_TRUE(r.result.value ==
                    BigFloat::twoPow(std::llround(
                        batch.estimates_log2[i])));
    }
    ASSERT_GT(skipped, 0u) << "screen never fired - config too deep";
    EXPECT_EQ(batch.screen_stats.skipped, skipped);

    // The analytic tier only sees the survivors.
    ASSERT_FALSE(batch.tiers.empty());
    EXPECT_EQ(batch.tiers.front().format_id, "analytic");
    EXPECT_EQ(batch.tiers.front().evaluated,
              dataset.columns.size() - skipped);
    EXPECT_EQ(batch.certified + batch.uncertified + skipped,
              dataset.columns.size());
}

TEST(Adaptive, TierAccountingAddsUp)
{
    pbd::DatasetConfig config;
    config.num_columns = 300;
    config.median_coverage = 70.0;
    config.seed = 777;
    const auto dataset = pbd::makeDataset(config, "adaptive-tally");

    CertConfig cert;
    cert.threshold_log2 = -200.0;
    const engine::AdaptiveBatch batch =
        adaptivePValues(dataset.columns, cert);

    size_t tier_certified = 0;
    for (const engine::TierStats &ts : batch.tiers) {
        EXPECT_GE(ts.certified, 0u);
        EXPECT_GE(ts.wall_ms, 0.0);
        EXPECT_LE(ts.certified, ts.evaluated);
        tier_certified += ts.certified;
    }
    EXPECT_EQ(tier_certified, batch.certified);
    EXPECT_EQ(batch.certified + batch.uncertified,
              dataset.columns.size());

    // Ladder tiers in declared order after the analytic stage.
    ASSERT_GE(batch.tiers.size(), 1u);
    EXPECT_EQ(batch.tiers[0].format_id, "analytic");
}

TEST(Adaptive, FeasibilityRoutesPastHopelessTiers)
{
    const auto &registry = engine::FormatRegistry::instance();
    const pbd::Column col = iidColumn(100, 1e-3, 3);
    const pbd::PValueBoundsLog2 bounds =
        pbd::certifiedBoundsLog2(col.view());

    // bfloat16 cannot reach a 2^-20 value tolerance on 100 reads.
    CertConfig tight;
    tight.tol_rel_log2 = -20.0;
    EXPECT_FALSE(engine::tierFeasible(registry.at("bfloat16"),
                                      col.view(), bounds, tight,
                                      engine::SumPolicy::Plain));
    EXPECT_TRUE(engine::tierFeasible(registry.at("binary64"),
                                     col.view(), bounds, tight,
                                     engine::SumPolicy::Plain));

    // Uncertifiable formats are never feasible.
    CertConfig thr;
    thr.threshold_log2 = -200.0;
    EXPECT_FALSE(engine::tierFeasible(registry.at("posit32"),
                                      col.view(), bounds, thr,
                                      engine::SumPolicy::Plain));
}

TEST(Adaptive, ForwardBatchCertifiesSmallModels)
{
    stats::Rng rng(0x8a3fULL);
    std::vector<hmm::Model> models;
    models.reserve(4);
    std::vector<std::vector<int>> sequences;
    sequences.reserve(4);
    for (int j = 0; j < 4; ++j) {
        models.push_back(hmm::makeDirichletModel(rng, 3, 5));
        sequences.push_back(
            hmm::sampleObservations(rng, models.back(), 12));
    }
    std::vector<engine::ForwardJob> jobs;
    for (int j = 0; j < 4; ++j)
        jobs.push_back(engine::ForwardJob{&models[j], sequences[j]});

    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::Forward;
    plan.policy = engine::PlanPolicy::Adaptive;
    plan.cert = engine::defaultForwardCert();
    engine::PlanInputs inputs;
    inputs.jobs = jobs;
    const engine::AdaptiveBatch batch =
        sharedEngine().run(plan, inputs).adaptive;
    EXPECT_EQ(batch.results.size(), jobs.size());
    EXPECT_EQ(batch.uncertified, 0u);
    for (const engine::EscalationResult &r : batch.results) {
        EXPECT_TRUE(r.certified);
        EXPECT_GE(r.tier, 0);
        EXPECT_LE(r.interval.rel_bound_log2, -20.0 + 1e-12);
    }
}

TEST(Adaptive, RecordTiersAccumulatesAcrossBatches)
{
    engine::AccuracyTally tally("adaptive");
    std::vector<engine::TierStats> first;
    first.push_back(engine::TierStats{"analytic", 10, 6, 0, 1.0});
    first.push_back(engine::TierStats{"binary64", 4, 4, 0, 2.0});
    std::vector<engine::TierStats> second;
    second.push_back(engine::TierStats{"analytic", 8, 5, 0, 0.5});
    second.push_back(engine::TierStats{"log", 3, 2, 1, 0.25});

    tally.recordTiers(first);
    tally.recordTiers(second);

    const auto &tiers = tally.tierStats();
    ASSERT_EQ(tiers.size(), 3u);
    EXPECT_EQ(tiers[0].format_id, "analytic");
    EXPECT_EQ(tiers[0].evaluated, 18u);
    EXPECT_EQ(tiers[0].certified, 11u);
    EXPECT_DOUBLE_EQ(tiers[0].wall_ms, 1.5);
    EXPECT_EQ(tiers[1].format_id, "binary64");
    EXPECT_EQ(tiers[1].evaluated, 4u);
    EXPECT_EQ(tiers[2].format_id, "log");
    EXPECT_EQ(tiers[2].bypassed, 1u);
}

} // namespace
