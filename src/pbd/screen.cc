#include "pbd/screen.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
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
 * Padding (bits) covering every rounding in an endpoint computed as
 * `raw` over an n-read column: two whole bits of slack plus
 * 2^-40 * n * (|raw| + 64). With u = 2^-53 the roundings are:
 *
 * - Upper endpoint: the recursive sum of n nonnegative p is off by a
 *   relative (n-1)u, which the factor K <= n turns into
 *   K(n-1)u/ln2 bits — under the two whole bits while n < 2^26
 *   reads. The division, the log2 and lgamma calls and the additions
 *   each add a few ulps of terms no larger than |raw| + n log2(n),
 *   far under the 2^-40 * 64n term.
 * - Lower endpoint: the rest product takes at most n factors
 *   fl(1 - p) and n multiplications, each off by a relative u, and
 *   its frexp renormalisation is exact and keeps every partial
 *   product normal, so its log2 is off by at most 2nu/ln2 < 3nu
 *   bits. The K <= n top-read log2 calls, their sum (terms of one
 *   sign, so each no larger than |raw|), the log2 of the product's
 *   mantissa and the closing additions add at most 4(K + 2)u|raw|.
 *   In all that is under 2^-49 * n * (|raw| + 1) bits, which the
 *   2^-40 term over-covers by a factor of 2^9, libm slop of hundreds
 *   of ulps included.
 *
 * Both pads stay negligible against the enclosure widths that
 * matter: a deep column's proportional term is milli-bits against
 * hundreds of bits of slack to the threshold.
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

/**
 * A product of factors in [0, 1] carried as mantissa * 2^exponent,
 * so that products of millions of factors neither underflow nor go
 * subnormal. Every factor of a nonzero product is at least 2^-53
 * (1 - p for the largest double p below 1), so renormalising once
 * the mantissa drops below 2^-512 keeps every partial product
 * normal; frexp makes the renormalisation exact (and leaves a zero
 * product zero).
 */
class ScaledProduct
{
  public:
    void
    multiply(double factor)
    {
        mantissa_ *= factor;
        if (mantissa_ < 0x1p-512) {
            int e = 0;
            mantissa_ = std::frexp(mantissa_, &e);
            exponent_ += e;
        }
    }

    bool isZero() const { return mantissa_ == 0.0; }

    /** log2 of the (nonzero) product. */
    double
    log2() const
    {
        return std::log2(mantissa_) + static_cast<double>(exponent_);
    }

  private:
    double mantissa_ = 1.0;
    int64_t exponent_ = 0;
};

/**
 * Up to this K the top K reads are kept in a min-heap on the stack
 * as the column streams by. A larger K copies the column into a
 * per-thread buffer and selects with nth_element: a heap of hundreds
 * of reads replaces its minimum so often that it costs more (about
 * 65 against 25 us per column for the K > 256 columns of a fig16
 * mix, where the heap wins below).
 */
constexpr size_t kHeapTopReads = 256;

/**
 * Replace the minimum of the min-heap [heap, heap + size) by @p p
 * (which must exceed it) and restore the heap; returns the old
 * minimum.
 */
double
replaceHeapMin(double *heap, size_t size, double p)
{
    const double old_min = heap[0];
    size_t hole = 0;
    for (;;) {
        size_t child = 2 * hole + 1;
        if (child >= size)
            break;
        if (child + 1 < size && heap[child + 1] < heap[child])
            ++child;
        if (!(heap[child] < p))
            break;
        heap[hole] = heap[child];
        hole = child;
    }
    heap[hole] = p;
    return old_min;
}

/** true when @p p is not a probability (NaN or outside [0, 1]). */
bool
invalidProbability(double p)
{
    return !(p >= 0.0) || p > 1.0;
}

} // namespace

PValueBoundsLog2
certifiedBoundsLog2(const ColumnView &column)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr PValueBoundsLog2 kVacuous{-kInf, kInf};
    const std::span<const double> probs = column.success_probs;
    const size_t n = probs.size();
    const size_t k = column.k > 0 ? static_cast<size_t>(column.k) : 0;

    // Structural exacts first: P(X >= 0) = 1, P(X > N) = 0.
    if (column.k <= 0)
        return {0.0, 0.0};
    if (k > n)
        return {-kInf, -kInf};

    // One pass over the column validates every read, sums p for the
    // upper endpoint and splits the reads into the K most probable
    // (`top`) and the rest, whose (1 - p) factors multiply into
    // `rest`. A small K streams the reads through a min-heap on the
    // stack: a read that bypasses or leaves the heap joins the rest.
    // A larger K copies the column into a reused per-thread buffer
    // and partitions it with nth_element afterwards.
    double sum_p = 0.0;
    ScaledProduct rest;
    std::array<double, kHeapTopReads> heap;
    const double *top = heap.data();
    if (k <= kHeapTopReads) {
        for (size_t i = 0; i < k; ++i) {
            const double p = probs[i];
            if (invalidProbability(p))
                return kVacuous;
            sum_p += p;
            heap[i] = p;
        }
        std::make_heap(heap.begin(), heap.begin() + k,
                       std::greater<double>());
        for (size_t i = k; i < n; ++i) {
            const double p = probs[i];
            if (invalidProbability(p))
                return kVacuous;
            sum_p += p;
            rest.multiply(1.0 - (p > heap[0]
                                     ? replaceHeapMin(heap.data(), k, p)
                                     : p));
        }
    } else {
        thread_local std::vector<double> scratch;
        scratch.resize(n);
        for (size_t i = 0; i < n; ++i) {
            const double p = probs[i];
            if (invalidProbability(p))
                return kVacuous;
            sum_p += p;
            scratch[i] = p;
        }
        std::nth_element(scratch.begin(),
                         scratch.begin() + static_cast<ptrdiff_t>(k - 1),
                         scratch.end(), std::greater<double>());
        for (size_t i = k; i < n; ++i)
            rest.multiply(1.0 - scratch[i]);
        top = scratch.data();
    }

    // Upper endpoint: P(X >= K) <= e_K(p) <= C(N,K) * pbar^K
    // (union bound + Maclaurin), in log2.
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
    double hi = log2_choose +
                static_cast<double>(k) *
                    std::log2(sum_p / static_cast<double>(n));
    hi = std::min(hi + endpointPad(n, hi), 0.0); // p-values are <= 1

    // Lower endpoint: the K most probable reads all succeed and the
    // rest all fail — one outcome of the event, so its probability
    // is a certified lower bound. It is zero, exactly, when a read
    // outside the top K has p = 1 or one inside it has p = 0.
    if (rest.isZero())
        return {-kInf, hi};
    double log2_top = 0.0;
    for (size_t i = 0; i < k; ++i) {
        if (top[i] == 0.0)
            return {-kInf, hi};
        log2_top += std::log2(top[i]);
    }
    double lo = rest.log2() + log2_top;
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
