/**
 * @file
 * Bit-identity sweeps of BFloat16 against a reference implementation.
 *
 * BFloat16 converts with integer round-to-nearest-even on the bit
 * pattern (core/bfloat16.hh). RefBFloat16 below is the conversion
 * path it replaced, kept here verbatim in spirit: widening through
 * ldexp into a double, narrowing through frexp and a 64-bit
 * round-to-nearest-even (roundSigRNE) with flush-to-zero after the
 * rounding. The sweeps require every result of the two to agree bit
 * for bit:
 *
 *   - fromFloat over all 2^32 binary32 patterns (threaded);
 *   - toFloat and the predicates over all 2^16 bfloat16 patterns;
 *   - named cases at the flush-after-round edge below 2^-126;
 *   - fromDouble over every binary64 exponent, including subnormals,
 *     ties and their neighbours, overflow and the special values;
 *   - +, -, *, / and the comparisons over all 2^16 left operands
 *     against a seeded sample of right operands;
 *   - pvalue and pvalueCompensated on a fig16-style column mix.
 *
 * The sweeps are complete by default. When PSTAT_DIFF_CASES is below
 * 10000 (the sanitizer legs) the binary32 sweep is strided and the
 * samples shrink; the named edge cases always run.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bfloat16.hh"
#include "core/compensated.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "prop_util.hh"
#include "stats/rng.hh"

namespace
{

/**
 * The reference: bfloat16 conversions through a double with frexp,
 * ldexp and a 64-bit RNE core, flush-to-zero after rounding.
 */
class RefBFloat16
{
  public:
    static RefBFloat16
    fromBits(uint16_t raw)
    {
        RefBFloat16 out;
        out.bits_ = raw;
        return out;
    }
    uint16_t bits() const { return bits_; }

    static RefBFloat16 zero() { return fromBits(0x0000); }
    static RefBFloat16 one() { return fromBits(0x3F80); }
    static RefBFloat16 nan() { return fromBits(0x7FC0); }

    bool isZero() const { return (bits_ & 0x7F80) == 0; }
    bool
    isNaN() const
    {
        return (bits_ & 0x7F80) == 0x7F80 && (bits_ & 0x007F) != 0;
    }
    bool isInf() const { return (bits_ & 0x7FFF) == 0x7F80; }
    bool isNegative() const { return (bits_ & 0x8000) != 0; }

    static RefBFloat16
    fromDouble(double value)
    {
        if (std::isnan(value))
            return nan();
        const bool negative = std::signbit(value);
        if (value == 0.0)
            return signedZero(negative);
        if (std::isinf(value))
            return signedInf(negative);
        int e = 0;
        const double frac = std::frexp(std::fabs(value), &e);
        const auto sig = static_cast<uint64_t>(std::ldexp(frac, 64));
        return pack(negative, e - 1, sig);
    }

    static RefBFloat16
    fromFloat(float value)
    {
        return fromDouble(static_cast<double>(value));
    }

    float
    toFloat() const
    {
        if (isNaN())
            return std::numeric_limits<float>::quiet_NaN();
        if (isInf())
            return isNegative()
                       ? -std::numeric_limits<float>::infinity()
                       : std::numeric_limits<float>::infinity();
        if (isZero())
            return isNegative() ? -0.0f : 0.0f;
        const int exp_field = (bits_ >> 7) & 0xFF;
        const int mant = bits_ & 0x7F;
        const double mag = std::ldexp(128.0 + mant, exp_field - 134);
        return static_cast<float>(isNegative() ? -mag : mag);
    }

    friend RefBFloat16
    operator+(const RefBFloat16 &a, const RefBFloat16 &b)
    {
        return fromFloat(a.toFloat() + b.toFloat());
    }
    friend RefBFloat16
    operator-(const RefBFloat16 &a, const RefBFloat16 &b)
    {
        return fromFloat(a.toFloat() - b.toFloat());
    }
    friend RefBFloat16
    operator*(const RefBFloat16 &a, const RefBFloat16 &b)
    {
        return fromFloat(a.toFloat() * b.toFloat());
    }
    friend RefBFloat16
    operator/(const RefBFloat16 &a, const RefBFloat16 &b)
    {
        return fromFloat(a.toFloat() / b.toFloat());
    }
    friend bool
    operator<(const RefBFloat16 &a, const RefBFloat16 &b)
    {
        return a.toFloat() < b.toFloat();
    }
    RefBFloat16
    abs() const
    {
        return fromBits(static_cast<uint16_t>(bits_ & 0x7FFF));
    }

  private:
    static RefBFloat16
    signedZero(bool negative)
    {
        return fromBits(negative ? 0x8000 : 0x0000);
    }
    static RefBFloat16
    signedInf(bool negative)
    {
        return fromBits(negative ? 0xFF80 : 0x7F80);
    }

    static uint64_t
    roundSigRNE(uint64_t sig, int p)
    {
        uint64_t kept = sig >> (64 - p);
        const bool guard = ((sig >> (63 - p)) & 1) != 0;
        const bool lower = (sig & ((uint64_t{1} << (63 - p)) - 1)) != 0;
        if (guard && (lower || (kept & 1)))
            ++kept;
        return kept;
    }

    static RefBFloat16
    pack(bool negative, int64_t exp2, uint64_t sig)
    {
        if (exp2 >= 128)
            return signedInf(negative);
        if (exp2 < -127)
            return signedZero(negative);
        uint64_t kept = roundSigRNE(sig, 8);
        if (kept == (uint64_t{1} << 8)) {
            kept >>= 1;
            ++exp2;
            if (exp2 == 128)
                return signedInf(negative);
        }
        if (exp2 < -126)
            return signedZero(negative);
        const auto exp_field = static_cast<uint16_t>(exp2 + 127);
        const auto mant = static_cast<uint16_t>(kept & 0x7F);
        return fromBits(static_cast<uint16_t>(
            (negative ? 0x8000 : 0x0000) | (exp_field << 7) | mant));
    }

    uint16_t bits_ = 0;
};

} // namespace

namespace pstat
{

/** Just enough traits for the p-value kernels to run on the reference. */
template <>
struct RealTraits<RefBFloat16>
{
    static RefBFloat16 zero() { return RefBFloat16::zero(); }
    static RefBFloat16 one() { return RefBFloat16::one(); }
    static RefBFloat16
    fromDouble(double v)
    {
        return RefBFloat16::fromDouble(v);
    }
};

} // namespace pstat

namespace
{

using namespace pstat;

/** Sanitizer legs set PSTAT_DIFF_CASES below this and get a sample. */
constexpr size_t kFullSweepCases = 10000;

bool
fullSweep()
{
    return prop::diffCases() >= kFullSweepCases;
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint32_t
floatBits(float f)
{
    return std::bit_cast<uint32_t>(f);
}

/** Mismatch count of a sweep and the lowest failing index. */
struct SweepResult
{
    uint64_t mismatches = 0;
    uint64_t first = 0;
};

/**
 * Runs check(i) for every i in [0, count) with step `stride`, split
 * across the hardware threads. check returns false on a mismatch.
 */
template <typename Check>
SweepResult
parallelSweep(uint64_t count, uint64_t stride, const Check &check)
{
    const unsigned lanes =
        std::clamp(std::thread::hardware_concurrency(), 1U, 8U);
    const uint64_t steps = (count + stride - 1) / stride;
    std::vector<SweepResult> per_lane(lanes);
    std::vector<std::thread> threads;
    for (unsigned lane = 0; lane < lanes; ++lane) {
        threads.emplace_back([&, lane] {
            SweepResult &r = per_lane[lane];
            const uint64_t begin = steps * lane / lanes;
            const uint64_t end = steps * (lane + 1) / lanes;
            for (uint64_t s = begin; s < end; ++s) {
                const uint64_t i = s * stride;
                if (!check(i) && r.mismatches++ == 0)
                    r.first = i;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    SweepResult total;
    for (const SweepResult &r : per_lane) {
        if (r.mismatches != 0 && total.mismatches == 0)
            total.first = r.first;
        total.mismatches += r.mismatches;
    }
    return total;
}

// ------------------------------------------------------- conversions

TEST(BFloat16Identity, FromFloatMatchesReferenceOnEveryBinary32)
{
    // An odd stride still visits every residue class of the low bits.
    const uint64_t stride = fullSweep() ? 1 : 4099;
    const auto result = parallelSweep(
        uint64_t{1} << 32, stride, [](uint64_t i) {
            const float f = std::bit_cast<float>(static_cast<uint32_t>(i));
            return BFloat16::fromFloat(f).bits() ==
                   RefBFloat16::fromFloat(f).bits();
        });
    EXPECT_EQ(result.mismatches, 0U)
        << "first mismatching binary32 pattern " << hex(result.first);
}

TEST(BFloat16Identity, WideningAndPredicatesMatchOnEveryPattern)
{
    for (uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
        const auto bits = static_cast<uint16_t>(raw);
        const BFloat16 got = BFloat16::fromBits(bits);
        const RefBFloat16 want = RefBFloat16::fromBits(bits);
        ASSERT_EQ(floatBits(got.toFloat()), floatBits(want.toFloat()))
            << "pattern " << hex(raw);
        ASSERT_EQ(got.isZero(), want.isZero()) << "pattern " << hex(raw);
        ASSERT_EQ(got.isNaN(), want.isNaN()) << "pattern " << hex(raw);
        ASSERT_EQ(got.isInf(), want.isInf()) << "pattern " << hex(raw);
    }
}

TEST(BFloat16Identity, FlushAfterRoundEdgeBelowSmallestNormal)
{
    // Rounding to 8 bits in the value's own binade (2^-127) lifts
    // exactly [2^-126 - 2^-135, 2^-126) to 2^-126; plain RNE at the
    // binary32 subnormal pattern's bit 16 would also lift
    // [2^-126 - 2^-134, 2^-126 - 2^-135). That band must flush.
    const float smallest = 0x1p-126f;
    struct Case
    {
        float value;
        uint16_t want;
    };
    const Case cases[] = {
        {smallest - 0x1p-134f, 0x0000},
        {std::nextafter(smallest - 0x1p-135f, 0.0f), 0x0000},
        {smallest - 0x1p-135f, 0x0080}, // tie, rounds to even 2^-126
        {std::nextafter(smallest - 0x1p-135f, 1.0f), 0x0080},
        {std::nextafter(smallest, 0.0f), 0x0080},
        {smallest, 0x0080},
        {0x1p-127f, 0x0000},
        {std::numeric_limits<float>::denorm_min(), 0x0000},
    };
    for (const Case &c : cases) {
        for (const float sign : {1.0f, -1.0f}) {
            const float v = sign * c.value;
            const auto want = static_cast<uint16_t>(
                c.want | (sign < 0 ? 0x8000 : 0x0000));
            EXPECT_EQ(BFloat16::fromFloat(v).bits(), want)
                << "binary32 " << hex(floatBits(v));
            EXPECT_EQ(RefBFloat16::fromFloat(v).bits(), want)
                << "binary32 " << hex(floatBits(v));
            EXPECT_EQ(BFloat16::fromDouble(v).bits(), want)
                << "binary64 of binary32 " << hex(floatBits(v));
        }
    }
    // binary64 resolves the band finer: just below the tie flushes.
    const double tie = 0x1p-126 - 0x1p-135;
    EXPECT_EQ(BFloat16::fromDouble(tie).bits(), 0x0080);
    EXPECT_EQ(BFloat16::fromDouble(std::nextafter(tie, 0.0)).bits(),
              0x0000);
    EXPECT_EQ(RefBFloat16::fromDouble(std::nextafter(tie, 0.0)).bits(),
              0x0000);
}

/** The binary64 patterns the fromDouble sweep visits, both signs. */
std::vector<double>
fromDoubleCases()
{
    std::vector<double> out;
    const auto push = [&out](uint64_t magnitude) {
        out.push_back(std::bit_cast<double>(magnitude));
        out.push_back(std::bit_cast<double>(magnitude | (1ULL << 63)));
    };
    constexpr uint64_t kFracMask = (uint64_t{1} << 52) - 1;
    // bfloat16 keeps 7 of the 52 fraction bits: bit 44 is the guard.
    constexpr uint64_t kGuard = uint64_t{1} << 44;
    stats::Rng rng(0xbf16d0b1eULL);
    const int random_per_exponent = fullSweep() ? 24 : 4;
    for (uint64_t exp_field = 0; exp_field <= 0x7FF; ++exp_field) {
        const uint64_t e = exp_field << 52;
        for (uint64_t frac : {uint64_t{0}, uint64_t{1}, kFracMask,
                              kFracMask - kGuard, kGuard - 1}) {
            push(e | frac);
        }
        for (int r = 0; r < random_per_exponent; ++r) {
            const uint64_t frac = rng() & kFracMask;
            push(e | frac);
            // A tie at the bfloat16 rounding point and its two
            // neighbours, once with an even and once with an odd
            // kept LSB.
            for (uint64_t lsb : {uint64_t{0}, kGuard << 1}) {
                const uint64_t tie =
                    ((frac & ~((kGuard << 2) - 1)) | lsb) | kGuard;
                push(e | tie);
                push(e | (tie - 1));
                push(e | (tie + 1));
            }
        }
    }
    // The 2^-126 boundary, overflow, and the special values.
    for (double v : {0x1p-126, 0x1p-126 - 0x1p-135, 0x1p-127,
                     0x1p-128, 0x1.FFp127, 0x1.FF8p127,
                     std::nextafter(0x1.FF8p127, 0.0), 0x1p128,
                     std::numeric_limits<double>::max(),
                     std::numeric_limits<double>::min(),
                     std::numeric_limits<double>::denorm_min(), 0.0,
                     std::numeric_limits<double>::infinity()}) {
        push(std::bit_cast<uint64_t>(v));
    }
    push(0x7FF8000000000000ULL); // quiet NaN
    push(0x7FF0000000000001ULL); // signalling NaN
    push(0x7FFFFFFFFFFFFFFFULL);
    return out;
}

TEST(BFloat16Identity, FromDoubleMatchesReferenceAcrossEveryExponent)
{
    for (const double v : fromDoubleCases()) {
        ASSERT_EQ(BFloat16::fromDouble(v).bits(),
                  RefBFloat16::fromDouble(v).bits())
            << "binary64 " << hex(std::bit_cast<uint64_t>(v));
    }
}

// -------------------------------------------------------- arithmetic

TEST(BFloat16Identity, ArithmeticMatchesReferenceForEveryLeftOperand)
{
    // Right operands: the structural specials plus a seeded sample.
    std::vector<uint16_t> right = {0x0000, 0x8000, 0x3F80, 0xBF80,
                                   0x0080, 0x8080, 0x0001, 0x7F7F,
                                   0xFF7F, 0x7F80, 0xFF80, 0x7FC0,
                                   0x3F81, 0x4000, 0x0100, 0x7F00};
    stats::Rng rng(0xa117b16eULL);
    const int sampled = fullSweep() ? 112 : 8;
    for (int i = 0; i < sampled; ++i)
        right.push_back(static_cast<uint16_t>(rng() & 0xFFFF));

    const auto result = parallelSweep(
        uint64_t{1} << 16, 1, [&right](uint64_t left) {
            const auto lb = static_cast<uint16_t>(left);
            const BFloat16 a = BFloat16::fromBits(lb);
            const RefBFloat16 ra = RefBFloat16::fromBits(lb);
            for (const uint16_t rb : right) {
                const BFloat16 b = BFloat16::fromBits(rb);
                const RefBFloat16 rr = RefBFloat16::fromBits(rb);
                if ((a + b).bits() != (ra + rr).bits() ||
                    (a - b).bits() != (ra - rr).bits() ||
                    (a * b).bits() != (ra * rr).bits() ||
                    (a / b).bits() != (ra / rr).bits())
                    return false;
                const float fa = ra.toFloat();
                const float fb = rr.toFloat();
                if ((a == b) != (fa == fb) || (a < b) != (fa < fb) ||
                    (a > b) != (fa > fb))
                    return false;
            }
            return true;
        });
    EXPECT_EQ(result.mismatches, 0U)
        << "first mismatching left operand " << hex(result.first);
}

// ----------------------------------------------------------- kernels

/** The fig16 escalation mix at test size: six datasets + borderline. */
std::vector<pbd::Column>
fig16StyleColumns()
{
    const int per_dataset = fullSweep() ? 12 : 3;
    std::vector<pbd::Column> out;
    for (int d = 0; d < 6; ++d) {
        pbd::DatasetConfig config;
        config.num_columns = per_dataset;
        config.median_coverage = 180.0 + 25.0 * d;
        config.coverage_sigma = 0.40;
        config.mean_phred = 20.0 + 1.0 * (d % 3);
        config.phred_sigma = 3.0;
        config.variant_fraction = 0.25;
        config.seed = 1303ULL + 97ULL * d;
        auto ds = pbd::makeDataset(config, "B" + std::to_string(d));
        stats::Rng rng(1303ULL * 31ULL + 7907ULL + d);
        for (int i = 0; i < per_dataset / 3 + 1; ++i) {
            ds.columns.push_back(pbd::makeColumnWithTarget(
                rng, rng.uniform(150.0, 260.0)));
            ds.columns.push_back(prop::adversarialColumn(rng));
        }
        for (auto &column : ds.columns)
            out.push_back(std::move(column));
    }
    return out;
}

TEST(BFloat16Identity, PValueKernelsMatchReferenceOnColumnMix)
{
    const auto columns = fig16StyleColumns();
    for (size_t i = 0; i < columns.size(); ++i) {
        const auto &column = columns[i];
        const std::span<const double> probs(column.success_probs);
        EXPECT_EQ(pbd::pvalue<BFloat16>(probs, column.k).bits(),
                  pbd::pvalue<RefBFloat16>(probs, column.k).bits())
            << "column " << i << " N=" << probs.size()
            << " K=" << column.k;
        EXPECT_EQ(
            pbd::pvalueCompensated<BFloat16>(probs, column.k).bits(),
            pbd::pvalueCompensated<RefBFloat16>(probs, column.k).bits())
            << "column " << i << " N=" << probs.size()
            << " K=" << column.k;
    }
}

} // namespace
