#include "pbd/screen.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "pbd/pbd.hh"

namespace pstat::pbd
{

ScreenDecisions
applyScreen(std::span<const double> estimates_log2,
            const ScreenConfig &config)
{
    ScreenDecisions out;
    out.skip.resize(estimates_log2.size(), 0);
    out.stats.columns = estimates_log2.size();
    for (size_t i = 0; i < estimates_log2.size(); ++i) {
        if (screenSkips(estimates_log2[i], config)) {
            out.skip[i] = 1;
            ++out.stats.skipped;
            continue;
        }
        ++out.stats.evaluated;
        if (screenGuardHit(estimates_log2[i], config))
            ++out.stats.guard_band_hits;
    }
    return out;
}

std::vector<double>
screenEstimates(std::span<const Column> columns)
{
    std::vector<double> out;
    out.reserve(columns.size());
    for (const auto &col : columns)
        out.push_back(pvalueLog2Estimate(col.success_probs, col.k));
    return out;
}

namespace
{

/**
 * Padding (bits) covering every libm/summation rounding in an
 * endpoint computed as `raw` over an n-read column: two whole bits
 * of slack plus 2^-40 * n * (|raw| + 64), which over-covers the
 * worst case (n log2 calls each a few ulps of magnitudes up to
 * |raw|, plus the O(n*u*|raw|) error of the nonnegative sums) by
 * several orders of magnitude while staying negligible against the
 * enclosure widths that matter (a deep column's pad is milli-bits
 * against hundreds of bits of slack to the threshold).
 */
double
endpointPad(size_t n, double raw)
{
    if (!std::isfinite(raw))
        return 0.0;
    return 2.0 +
           std::ldexp(static_cast<double>(n) * (std::fabs(raw) + 64.0),
                      -40);
}

/**
 * ln(x!) for x >= 0. lgamma_r, not std::lgamma: std::lgamma stores
 * the sign in the process-wide `signgam`, a data race when engine
 * lanes bound columns concurrently. Same value, bit for bit.
 */
double
logFactorial(double x)
{
    int sign = 0;
    return ::lgamma_r(x + 1.0, &sign);
}

} // namespace

PValueBoundsLog2
certifiedBoundsLog2(const ColumnView &column)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::span<const double> probs = column.success_probs;
    const size_t n = probs.size();
    const size_t k = column.k > 0 ? static_cast<size_t>(column.k) : 0;

    // Structural exacts first: P(X >= 0) = 1, P(X > N) = 0.
    if (column.k <= 0)
        return {0.0, 0.0};
    if (k > n)
        return {-kInf, -kInf};
    for (const double p : probs) {
        if (!(p >= 0.0) || p > 1.0)
            return {-kInf, kInf}; // invalid input: vacuous enclosure
    }

    // Upper endpoint: P(X >= K) <= e_K(p) <= C(N,K) * pbar^K
    // (union bound + Maclaurin), in log2.
    double sum_p = 0.0;
    for (const double p : probs)
        sum_p += p;
    double hi;
    if (sum_p == 0.0) {
        // Every probability is exactly zero and K >= 1: the event is
        // impossible, exactly.
        return {-kInf, -kInf};
    }
    const double log2_choose =
        (logFactorial(static_cast<double>(n)) -
         logFactorial(static_cast<double>(k)) -
         logFactorial(static_cast<double>(n - k))) /
        std::log(2.0);
    hi = log2_choose +
         static_cast<double>(k) *
             std::log2(sum_p / static_cast<double>(n));
    hi = std::min(hi + endpointPad(n, hi), 0.0); // p-values are <= 1

    // Lower endpoint: the K most probable reads all succeed and the
    // rest all fail — one outcome of the event, so its probability
    // is a certified lower bound.
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
        lo += i < k ? std::log2(p)
                    : std::log1p(-p) / std::log(2.0);
    }
    lo -= endpointPad(n, lo);
    return {lo, hi};
}

size_t
countFalseSkips(std::span<const uint8_t> skipped,
                std::span<const BigFloat> oracle,
                double threshold_log2)
{
    // Silently truncating to the shorter span would make the audit
    // vacuously clean on exactly the caller bug it exists to catch
    // (an oracle vector from a different or truncated dataset).
    if (skipped.size() != oracle.size())
        throw std::invalid_argument(
            "countFalseSkips: skip mask and oracle sizes differ");
    size_t out = 0;
    for (size_t i = 0; i < skipped.size(); ++i) {
        if (!skipped[i])
            continue;
        const BigFloat &p = oracle[i];
        if (!p.isFinite())
            continue;
        if (p.isZero() || p.log2Abs() < threshold_log2)
            ++out;
    }
    return out;
}

} // namespace pstat::pbd
