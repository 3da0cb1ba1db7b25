/**
 * @file
 * Software-emulated bfloat16 — the cheapest format in the study.
 *
 * bfloat16 is the top half of binary32: 1 sign bit, 8 exponent bits,
 * 7 fraction bits. BFloat16 stores the 16-bit pattern and performs
 * arithmetic through a binary32 carrier: operands widen exactly to
 * float, the float operation runs, and the result rounds back to
 * bfloat16 with round-to-nearest-even. Because binary32 keeps 24
 * significand bits and 24 >= 2*8 + 2, the double rounding in
 * +, -, *, / is innocuous (Figueroa's theorem) — the carrier results
 * are bit-identical to exact-then-round bfloat16 arithmetic.
 *
 * Both carrier conversions are integer operations on the bit
 * pattern. Widening shifts the 16 bits into the top half of a
 * binary32. Narrowing rounds the binary32 pattern to nearest even at
 * bit 16 (add 0x7FFF plus the kept LSB, then shift right by 16); a
 * carry out of the fraction bumps the exponent field, and a carry out
 * of the largest finite binade lands exactly on the infinity pattern.
 *
 * Subnormals are flushed: a result whose rounded magnitude falls
 * below 2^-126 becomes (signed) zero, matching the flush-to-zero
 * behavior of the ML accelerators that popularized the format. The
 * flush happens after rounding, and the rounding is to 8 significant
 * bits in the value's own binade, so a value just below 2^-126 that
 * rounds up to it still survives: exactly the values in
 * [2^-126 - 2^-135, 2^-126) become 2^-126. (Plain RNE on the binary32
 * subnormal pattern would round at a fixed bit and also keep
 * [2^-126 - 2^-134, 2^-126 - 2^-135), so subnormal inputs take their
 * own branch.) Infinities and NaN follow IEEE, and every NaN result is
 * the canonical quiet NaN; the BigFloat oracle has no infinities, so
 * infinite results convert to NaN (and count as invalid in the
 * accuracy harness).
 *
 * fromDouble and fromBigFloat round a normalized 64-bit significand
 * through one shared RNE core (pack), which applies the same
 * flush-after-round rule.
 */

#ifndef PSTAT_CORE_BFLOAT16_HH
#define PSTAT_CORE_BFLOAT16_HH

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "bigfloat/bigfloat.hh"
#include "core/binary32.hh"

namespace pstat
{

/** A 16-bit brain float (1/8/7 split) with flush-to-zero. */
class BFloat16
{
  public:
    /** Significand bits including the hidden one. */
    static constexpr int precision = 8;
    /** Explicit fraction bits. */
    static constexpr int fraction_bits = 7;

    /** Constructs +0. */
    constexpr BFloat16() = default;

    /** @name Bit-level access */
    /// @{
    /**
     * Reinterpret a raw 16-bit pattern. Under the flush-to-zero
     * contract subnormal patterns (exponent field 0, nonzero
     * fraction) are zero: arithmetic never produces them, and when
     * injected here they decode as (signed) zero.
     */
    static constexpr BFloat16
    fromBits(uint16_t raw)
    {
        BFloat16 out;
        out.bits_ = raw;
        return out;
    }

    /** The 16-bit pattern (sign | 8-bit exponent | 7-bit fraction). */
    constexpr uint16_t bits() const { return bits_; }
    /// @}

    /** @name Special values and predicates */
    /// @{
    static constexpr BFloat16 zero() { return BFloat16(); }
    static constexpr BFloat16 one() { return fromBits(0x3F80); }
    /** Canonical quiet NaN pattern. */
    static constexpr BFloat16 nan() { return fromBits(0x7FC0); }
    /** Positive infinity. */
    static constexpr BFloat16 inf() { return fromBits(0x7F80); }

    /** True for +-0 and (flushed) subnormal patterns. */
    constexpr bool isZero() const { return (bits_ & 0x7F80) == 0; }
    constexpr bool isNaN() const
    {
        return (bits_ & 0x7F80) == 0x7F80 && (bits_ & 0x007F) != 0;
    }
    constexpr bool isInf() const { return (bits_ & 0x7FFF) == 0x7F80; }
    constexpr bool isNegative() const { return (bits_ & 0x8000) != 0; }
    /// @}

    /** @name Conversions */
    /// @{
    /** Single correctly rounded RNE conversion from binary64. */
    static BFloat16
    fromDouble(double value)
    {
        const auto u = std::bit_cast<uint64_t>(value);
        const bool negative = (u >> 63) != 0;
        const auto exp_field = static_cast<int>((u >> 52) & 0x7FF);
        const uint64_t frac = u & ((uint64_t{1} << 52) - 1);
        if (exp_field == 0x7FF)
            return frac != 0 ? nan() : signedInf(negative);
        if (exp_field == 0) {
            if (frac == 0)
                return signedZero(negative);
            // Subnormal binary64: normalize so the MSB lands in bit 63.
            const int shift = std::countl_zero(frac);
            return pack(negative, -1011 - shift, frac << shift, false);
        }
        // value = 1.frac * 2^(exp_field - 1023); the hidden one goes
        // to bit 63 and the 52 fraction bits follow it.
        return pack(negative, exp_field - 1023,
                    ((uint64_t{1} << 52) | frac) << 11, false);
    }

    /**
     * Round a binary32 value to bfloat16 (RNE on the bit pattern,
     * flush-to-zero after rounding).
     */
    static BFloat16
    fromFloat(float value)
    {
        const auto u = std::bit_cast<uint32_t>(value);
        const auto sign = static_cast<uint16_t>((u >> 16) & 0x8000);
        const uint32_t mag = u & 0x7FFFFFFF;
        if (mag > 0x7F800000)
            return nan();
        if (mag < 0x00800000) {
            // Zero or subnormal: rounding at 8 bits in the value's own
            // binade reaches 2^-126 only from [2^-126 - 2^-135, 2^-126);
            // everything else flushes to signed zero.
            return fromBits(static_cast<uint16_t>(
                sign | (mag >= 0x00800000 - 0x4000 ? 0x0080 : 0x0000)));
        }
        // Normal or infinity: RNE at bit 16. A carry past the largest
        // finite value produces the infinity pattern 0x7F80.
        const uint32_t rounded = (mag + 0x7FFF + ((mag >> 16) & 1)) >> 16;
        return fromBits(static_cast<uint16_t>(sign | rounded));
    }

    /**
     * Exact widening: every finite bfloat16 is a binary32. Flushed
     * subnormal patterns widen to signed zero and every NaN to the
     * canonical quiet NaN.
     */
    float
    toFloat() const
    {
        if (isNaN())
            return std::numeric_limits<float>::quiet_NaN();
        const uint32_t wide = isZero() ? uint32_t{bits_} & 0x8000
                                       : uint32_t{bits_};
        return std::bit_cast<float>(wide << 16);
    }

    /** Exact widening to binary64. */
    double toDouble() const { return static_cast<double>(toFloat()); }

    /**
     * Exact value in the oracle. Infinities become NaN (the oracle
     * has no infinity; the harness reports them as invalid).
     */
    BigFloat
    toBigFloat() const
    {
        if (isNaN() || isInf())
            return BigFloat::nan();
        return BigFloat::fromDouble(toDouble());
    }

    /** Correctly rounded (single RNE) conversion from the oracle. */
    static BFloat16
    fromBigFloat(const BigFloat &value)
    {
        if (value.isNaN())
            return nan();
        if (value.isZero())
            return zero();
        const BigFloat::Top64 t = value.top64();
        return pack(t.negative, t.exp2, t.sig, t.sticky);
    }
    /// @}

    /** @name Arithmetic via the binary32 carrier (all RNE) */
    /// @{
    friend BFloat16
    operator+(const BFloat16 &a, const BFloat16 &b)
    {
        return fromFloat(a.toFloat() + b.toFloat());
    }
    friend BFloat16
    operator-(const BFloat16 &a, const BFloat16 &b)
    {
        return fromFloat(a.toFloat() - b.toFloat());
    }
    friend BFloat16
    operator*(const BFloat16 &a, const BFloat16 &b)
    {
        return fromFloat(a.toFloat() * b.toFloat());
    }
    friend BFloat16
    operator/(const BFloat16 &a, const BFloat16 &b)
    {
        return fromFloat(a.toFloat() / b.toFloat());
    }

    BFloat16
    operator-() const
    {
        return fromBits(static_cast<uint16_t>(bits_ ^ 0x8000));
    }

    /** Magnitude (sign bit cleared). */
    BFloat16
    abs() const
    {
        return fromBits(static_cast<uint16_t>(bits_ & 0x7FFF));
    }

    BFloat16 &operator+=(const BFloat16 &o) { return *this = *this + o; }
    BFloat16 &operator-=(const BFloat16 &o) { return *this = *this - o; }
    BFloat16 &operator*=(const BFloat16 &o) { return *this = *this * o; }
    BFloat16 &operator/=(const BFloat16 &o) { return *this = *this / o; }
    /// @}

    /** @name Comparison (IEEE semantics: NaN compares false) */
    /// @{
    friend bool
    operator==(const BFloat16 &a, const BFloat16 &b)
    {
        return a.toFloat() == b.toFloat();
    }
    friend bool
    operator<(const BFloat16 &a, const BFloat16 &b)
    {
        return a.toFloat() < b.toFloat();
    }
    friend bool
    operator>(const BFloat16 &a, const BFloat16 &b)
    {
        return a.toFloat() > b.toFloat();
    }
    /// @}

    /** Display name used by RealTraits. */
    static std::string name() { return "bfloat16"; }

  private:
    static constexpr BFloat16
    signedZero(bool negative)
    {
        return fromBits(negative ? 0x8000 : 0x0000);
    }
    static constexpr BFloat16
    signedInf(bool negative)
    {
        return fromBits(negative ? 0xFF80 : 0x7F80);
    }

    /**
     * RNE rounding of (-1)^negative * sig * 2^(exp2 - 63) (MSB of sig
     * set) to the bfloat16 grid, then flush-to-zero of subnormals.
     */
    static BFloat16
    pack(bool negative, int64_t exp2, uint64_t sig, bool sticky)
    {
        if (exp2 >= 128)
            return signedInf(negative);
        // Even a round-up by one binade stays subnormal: flush.
        if (exp2 < -127)
            return signedZero(negative);

        constexpr int p = precision;
        uint64_t kept = roundSigRNE(sig, p, sticky);
        if (kept == (uint64_t{1} << p)) { // carry into the next binade
            kept >>= 1;
            ++exp2;
            if (exp2 == 128)
                return signedInf(negative);
        }
        if (exp2 < -126) // rounded result is subnormal: flush
            return signedZero(negative);

        const auto exp_field = static_cast<uint16_t>(exp2 + 127);
        const auto mant = static_cast<uint16_t>(kept & 0x7F);
        return fromBits(static_cast<uint16_t>(
            (negative ? 0x8000 : 0x0000) | (exp_field << 7) | mant));
    }

    uint16_t bits_ = 0;
};

} // namespace pstat

#endif // PSTAT_CORE_BFLOAT16_HH
