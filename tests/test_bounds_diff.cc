/**
 * @file
 * Differential tests of the analytic tier's certified bounds
 * (pbd::certifiedBoundsLog2). The one-pass evaluation (running
 * Σp, an exponent-renormalised ∏(1 - p) over the reads outside the
 * top K, and O(K) logs) is compared against a frozen copy of the
 * sort-and-log evaluation it replaced: both endpoints must agree
 * within the rounding pad, and the certify decision at the LoFreq
 * threshold 2^-200 must be identical, over fig16-style deep mixes
 * (PSTAT_DIFF_CASES columns) and the adversarial column set. An edge
 * matrix (exact-zero/one reads around the top K, ties, subnormal
 * probabilities, K = 1 and K = N, a column whose ∏(1 - p) underflows
 * without renormalisation) is checked for containment of the exact
 * BigFloat p-value as well.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/screen.hh"
#include "prop_util.hh"
#include "stats/rng.hh"

namespace
{

using namespace pstat;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kThresholdLog2 = -200.0;

constexpr uint64_t kMixSweepSeed = 0xb0d5f16a11c5ULL;
constexpr uint64_t kAdversarialSweepSeed = 0xb0d5ad7e25aULL;

/** The rounding pad both evaluations subtract/add (bits). */
double
legacyPad(size_t n, double raw)
{
    if (!std::isfinite(raw))
        return 0.0;
    return 2.0 +
           std::ldexp(static_cast<double>(n) * (std::fabs(raw) + 64.0),
                      -40);
}

double
legacyLogFactorial(double x)
{
    int sign = 0;
    return ::lgamma_r(x + 1.0, &sign);
}

/**
 * Frozen copy of the sort-and-log evaluation of certifiedBoundsLog2:
 * a full copy of the column, nth_element for the top K, and one
 * log2/log1p per read.
 */
pbd::PValueBoundsLog2
legacyBoundsLog2(const pbd::ColumnView &column)
{
    const std::span<const double> probs = column.success_probs;
    const size_t n = probs.size();
    const size_t k = column.k > 0 ? static_cast<size_t>(column.k) : 0;
    if (column.k <= 0)
        return {0.0, 0.0};
    if (k > n)
        return {-kInf, -kInf};
    for (const double p : probs) {
        if (!(p >= 0.0) || p > 1.0)
            return {-kInf, kInf};
    }
    double sum_p = 0.0;
    for (const double p : probs)
        sum_p += p;
    if (sum_p == 0.0)
        return {-kInf, -kInf};
    const double log2_choose =
        (legacyLogFactorial(static_cast<double>(n)) -
         legacyLogFactorial(static_cast<double>(k)) -
         legacyLogFactorial(static_cast<double>(n - k))) /
        std::log(2.0);
    double hi = log2_choose +
                static_cast<double>(k) *
                    std::log2(sum_p / static_cast<double>(n));
    hi = std::min(hi + legacyPad(n, hi), 0.0);

    std::vector<double> sorted(probs.begin(), probs.end());
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<ptrdiff_t>(k - 1),
                     sorted.end(), std::greater<double>());
    double lo = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double p = sorted[i];
        const double factor = i < k ? p : 1.0 - p;
        if (factor <= 0.0) {
            lo = -kInf;
            break;
        }
        lo += i < k ? std::log2(p) : std::log1p(-p) / std::log(2.0);
    }
    lo -= legacyPad(n, lo);
    return {lo, hi};
}

std::string
seedTag(size_t index, uint64_t seed)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "case %zu seed 0x%016" PRIx64,
                  index, seed);
    return buf;
}

/**
 * One endpoint against the frozen value: the same infinity, or a
 * finite value within the pad of the frozen one.
 */
void
expectWithinPad(double now, double frozen, size_t n,
                const std::string &what)
{
    if (!std::isfinite(frozen)) {
        EXPECT_EQ(now, frozen) << what;
        return;
    }
    ASSERT_TRUE(std::isfinite(now)) << what << ": frozen " << frozen;
    EXPECT_LE(std::fabs(now - frozen), legacyPad(n, frozen))
        << what << ": now " << now << " frozen " << frozen;
}

/** The certify decision of an enclosure at 2^-200: -1, 0 or +1. */
int
decision(const pbd::PValueBoundsLog2 &b)
{
    if (b.hi_log2 < kThresholdLog2)
        return -1;
    if (b.lo_log2 >= kThresholdLog2)
        return 1;
    return 0;
}

/** Compare one column's bounds against the frozen evaluation. */
void
expectMatchesLegacy(const pbd::Column &column, const std::string &tag)
{
    const pbd::PValueBoundsLog2 now =
        pbd::certifiedBoundsLog2(column.view());
    const pbd::PValueBoundsLog2 frozen = legacyBoundsLog2(column.view());
    const size_t n = column.success_probs.size();
    expectWithinPad(now.lo_log2, frozen.lo_log2, n, tag + " lo");
    expectWithinPad(now.hi_log2, frozen.hi_log2, n, tag + " hi");
    EXPECT_EQ(decision(now), decision(frozen)) << tag;
}

/**
 * The fig16 / ladder-lowq column mix: deep datasets with their
 * variant columns (median coverage 1800-3050, mean Phred 18-34) plus
 * a borderline slice near 2^-200, @p count columns in all.
 */
std::vector<pbd::Column>
ladderMix(size_t count)
{
    std::vector<pbd::Column> out;
    out.reserve(count);
    for (size_t chunk = 0; out.size() < count; ++chunk) {
        const uint64_t seed = prop::caseSeed(kMixSweepSeed, chunk);
        pbd::DatasetConfig config;
        config.num_columns = 40;
        config.median_coverage = 1800.0 + 250.0 * (chunk % 6);
        config.coverage_sigma = 0.40;
        config.mean_phred = 18.0 + 4.0 * (chunk % 5);
        config.phred_sigma = 3.0;
        config.variant_fraction = 0.04;
        config.seed = seed;
        auto ds = pbd::makeDataset(config, "bounds-mix");
        stats::Rng rng(seed ^ 0x7907ULL);
        for (int i = 0; i < config.num_columns / 5; ++i)
            ds.columns.push_back(pbd::makeColumnWithTarget(
                rng, rng.uniform(150.0, 260.0)));
        for (auto &column : ds.columns) {
            if (out.size() == count)
                break;
            out.push_back(std::move(column));
        }
    }
    return out;
}

TEST(DiffBounds, MatchesFrozenEvaluationOnLadderMixes)
{
    const std::vector<pbd::Column> mix = ladderMix(prop::diffCases());
    size_t certified = 0;
    for (size_t i = 0; i < mix.size(); ++i) {
        expectMatchesLegacy(mix[i], "mix column " + std::to_string(i));
        certified +=
            decision(pbd::certifiedBoundsLog2(mix[i].view())) != 0;
    }
    // The mix exercises both outcomes: most columns certify, the
    // borderline slice does not.
    EXPECT_GT(certified, mix.size() / 2);
    EXPECT_LT(certified, mix.size());
}

TEST(DiffBounds, MatchesFrozenEvaluationOnAdversaries)
{
    const size_t n = prop::diffCases();
    for (size_t i = 0; i < n; ++i) {
        const uint64_t seed = prop::caseSeed(kAdversarialSweepSeed, i);
        stats::Rng rng(seed);
        expectMatchesLegacy(prop::adversarialColumn(rng),
                            seedTag(i, seed));
    }
}

TEST(DiffBounds, MatchesFrozenEvaluationAcrossTopKSelections)
{
    // Every K from 1 to N on columns in shuffled, ascending and
    // descending order: small K streams through the heap (ascending
    // input replaces its minimum on every read), large K goes
    // through the per-thread buffer, and the crossover is covered.
    stats::Rng rng(0x70bca5eULL);
    for (const size_t n : {size_t{1}, size_t{7}, size_t{300},
                           size_t{700}}) {
        pbd::Column column;
        for (size_t i = 0; i < n; ++i)
            column.success_probs.push_back(
                std::pow(10.0, -rng.uniform(1.0, 4.0)));
        for (int order = 0; order < 3; ++order) {
            if (order == 1)
                std::sort(column.success_probs.begin(),
                          column.success_probs.end());
            if (order == 2)
                std::reverse(column.success_probs.begin(),
                             column.success_probs.end());
            for (size_t k = 1; k <= n; k += n > 50 ? 3 : 1) {
                column.k = static_cast<int>(k);
                expectMatchesLegacy(
                    column, "n " + std::to_string(n) + " k " +
                                std::to_string(k) + " order " +
                                std::to_string(order));
            }
        }
    }
}

/** A column from explicit reads. */
pbd::Column
columnOf(std::vector<double> probs, int k)
{
    pbd::Column column;
    column.success_probs = std::move(probs);
    column.k = k;
    return column;
}

/**
 * Containment of the exact p-value: an exact zero needs lo = -inf;
 * otherwise lo <= log2(exact) <= hi up to the oracle's own double
 * log2 conversion.
 */
void
expectContains(const pbd::PValueBoundsLog2 &bounds,
               const BigFloat &exact, const std::string &tag)
{
    if (exact.isZero()) {
        EXPECT_EQ(bounds.lo_log2, -kInf) << tag;
        return;
    }
    const double exact_log2 = exact.log2Abs();
    const double slack = 1e-9 + std::fabs(exact_log2) * 0x1p-45;
    EXPECT_LE(bounds.lo_log2, exact_log2 + slack)
        << tag << ": exact log2 " << exact_log2;
    EXPECT_GE(bounds.hi_log2, exact_log2 - slack)
        << tag << ": exact log2 " << exact_log2;
}

void
expectEdgeCase(const pbd::Column &column, const std::string &tag)
{
    expectMatchesLegacy(column, tag);
    expectContains(pbd::certifiedBoundsLog2(column.view()),
                   prop::oraclePValue(column), tag);
}

TEST(DiffBounds, EdgeMatrixEnclosesTheOracle)
{
    // More p = 1 reads than K: the p-value is exactly 1, and the
    // lower endpoint's outcome (a p = 1 read fails) is impossible.
    {
        const pbd::Column column =
            columnOf({0.3, 1.0, 0.2, 1.0, 1.0, 0.4, 1.0}, 3);
        const auto bounds = pbd::certifiedBoundsLog2(column.view());
        EXPECT_EQ(bounds.lo_log2, -kInf);
        EXPECT_EQ(bounds.hi_log2, 0.0);
        expectEdgeCase(column, "more ones than K");
    }
    // p = 1 inside the top K contributes log2(1) = 0.
    {
        std::vector<double> probs(40, 0.01);
        probs[3] = 1.0;
        probs[17] = 1.0;
        const pbd::Column column = columnOf(probs, 4);
        EXPECT_TRUE(std::isfinite(
            pbd::certifiedBoundsLog2(column.view()).lo_log2));
        expectEdgeCase(column, "one inside the top K");
    }
    // p = 0 inside the top K: fewer than K reads can succeed.
    {
        std::vector<double> probs(10, 0.0);
        probs[2] = 0.2;
        probs[5] = 0.3;
        probs[9] = 0.25;
        const pbd::Column column = columnOf(probs, 5);
        EXPECT_EQ(pbd::certifiedBoundsLog2(column.view()).lo_log2,
                  -kInf);
        expectEdgeCase(column, "zero inside the top K");
    }
    // K = 1 and K = N, on the heap and on the buffer side.
    stats::Rng rng(0xed9e5eedULL);
    for (const int n : {1, 2, 60, 400}) {
        std::vector<double> probs;
        for (int i = 0; i < n; ++i)
            probs.push_back(rng.uniform(0.01, 0.6));
        expectEdgeCase(columnOf(probs, 1),
                       "K = 1, N = " + std::to_string(n));
        expectEdgeCase(columnOf(probs, n),
                       "K = N = " + std::to_string(n));
    }
    // Ties at the K-th value: which copy joins the top K must not
    // matter.
    for (const int k : {2, 5, 6, 9, 12}) {
        std::vector<double> probs;
        for (int i = 0; i < 18; ++i)
            probs.push_back(i % 3 == 0 ? 0.3 : (i % 3 == 1 ? 0.2 : 0.1));
        expectEdgeCase(columnOf(probs, k),
                       "ties, K = " + std::to_string(k));
    }
    // Subnormal probabilities: log2 near -1074, and 1 - p rounds to
    // one.
    {
        std::vector<double> probs;
        for (int i = 0; i < 12; ++i)
            probs.push_back(std::ldexp(1.0 + i, -1070 + i % 3));
        expectEdgeCase(columnOf(probs, 2), "subnormal reads");
        probs.push_back(0.5);
        expectEdgeCase(columnOf(probs, 3), "subnormal reads and 0.5");
    }
}

TEST(DiffBounds, HundredThousandReadColumnDoesNotUnderflow)
{
    // ∏(1 - p) over 100k reads of p = 0.5 is 2^-100000 or so:
    // zero in plain binary64, finite once renormalised by exponent.
    constexpr int kReads = 100000;
    for (const int k : {3, 60000}) {
        const pbd::Column column =
            columnOf(std::vector<double>(kReads, 0.5), k);
        const std::string tag = "100k reads, K = " + std::to_string(k);
        const auto bounds = pbd::certifiedBoundsLog2(column.view());
        ASSERT_TRUE(std::isfinite(bounds.lo_log2)) << tag;
        // The outcome is one specific read pattern: 2^-100000.
        EXPECT_NEAR(bounds.lo_log2, -static_cast<double>(kReads), 3.0)
            << tag;
        expectMatchesLegacy(column, tag);
        expectContains(bounds, pbd::binomialTailExact(kReads, 0.5, k),
                       tag);
    }
}

TEST(DiffBounds, InvalidReadsGiveTheVacuousEnclosure)
{
    // An invalid read anywhere — among the first K, after the heap
    // filled, or on the buffer side — voids the whole enclosure.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {nan, -0.1, 1.5}) {
        for (const size_t at : {size_t{0}, size_t{250}, size_t{499}}) {
            for (const int k : {2, 300}) {
                std::vector<double> probs(500, 0.01);
                probs[at] = bad;
                const auto bounds =
                    pbd::certifiedBoundsLog2(columnOf(probs, k).view());
                EXPECT_EQ(bounds.lo_log2, -kInf);
                EXPECT_EQ(bounds.hi_log2, kInf);
            }
        }
    }
}

} // namespace
