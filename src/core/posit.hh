/**
 * @file
 * Software posit arithmetic, the paper's primary subject.
 *
 * Posit<N, ES> implements Gustafson-style posits (arXiv 1711.xx /
 * Posit Standard 2022 semantics) for any width N in [3, 64] and any
 * exponent-field size ES in [0, 24], which covers every configuration
 * the paper studies: posit(64,6) ... posit(64,21). All operations are
 * exact-then-round: operands are decoded to (sign, scale, 64-bit
 * significand), combined with 128-bit intermediates, and re-encoded
 * with round-to-nearest-even at the posit cut point. Because posit
 * bit patterns are monotone in value, rounding carries propagate
 * correctly from fraction into exponent and regime.
 *
 * Each operation is one core (addCore, mulCore, ...) that returns the
 * unrounded result, and one of two finishers: pack() encodes it to a
 * bit pattern, round() returns the decoded form of that pattern.
 * PositDecoded chains operations through round(), so kernels that
 * hold posits decoded encode each result once.
 *
 * Special values follow the posit standard: a single 0, a single NaR
 * (1 followed by zeros); no subnormals, no signed zero. Values beyond
 * +-maxpos clamp to +-maxpos, nonzero values below minpos clamp to
 * minpos (never to zero). Comparison is the standard's total order
 * (two's-complement integer order), with NaR smallest and
 * NaR == NaR true.
 */

#ifndef PSTAT_CORE_POSIT_HH
#define PSTAT_CORE_POSIT_HH

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>

#include "bigfloat/bigfloat.hh"

namespace pstat
{

template <int N, int ES>
class PositDecoded;

/**
 * An N-bit posit with at most ES exponent bits.
 *
 * @tparam N  total width in bits, 3..64
 * @tparam ES maximum exponent field width, 0..24
 */
template <int N, int ES>
class Posit
{
    static_assert(N >= 3 && N <= 64, "posit width must be 3..64");
    static_assert(ES >= 0 && ES <= 24, "ES must be 0..24");

  public:
    /** Total bit width. */
    static constexpr int nbits = N;
    /** Maximum exponent field width. */
    static constexpr int es = ES;
    /** log2(useed) = 2^ES: scale contribution of one regime step. */
    static constexpr int64_t useed_log2 = int64_t{1} << ES;
    /** Largest base-2 scale: maxpos = 2^scale_max. */
    static constexpr int64_t scale_max = int64_t{N - 2} << ES;
    /** Smallest base-2 scale: minpos = 2^scale_min. */
    static constexpr int64_t scale_min = -scale_max;
    /** Maximum number of fraction bits any encoding can carry. */
    static constexpr int max_fraction_bits =
        (N - 3 - ES) > 0 ? (N - 3 - ES) : 0;

    /** The decoded form kernels compute in (see PositDecoded). */
    using Decoded = PositDecoded<N, ES>;

    /** Constructs zero. */
    constexpr Posit() = default;

    /** @name Bit-level access */
    /// @{
    /** Reinterpret a raw N-bit pattern (low N bits of raw). */
    static constexpr Posit
    fromBits(uint64_t raw)
    {
        Posit p;
        p.bits_ = signExtend(raw & patternMask());
        return p;
    }

    /** The N-bit pattern, zero-extended into a uint64_t. */
    constexpr uint64_t
    bits() const
    {
        return static_cast<uint64_t>(bits_) & patternMask();
    }
    /// @}

    /** @name Special values */
    /// @{
    static constexpr Posit zero() { return Posit(); }
    static constexpr Posit nar()
    {
        return fromBits(uint64_t{1} << (N - 1));
    }
    static constexpr Posit one()
    {
        return fromBits(uint64_t{1} << (N - 2));
    }
    static constexpr Posit maxpos()
    {
        return fromBits((uint64_t{1} << (N - 1)) - 1);
    }
    static constexpr Posit minpos() { return fromBits(1); }

    constexpr bool isZero() const { return bits_ == 0; }
    constexpr bool isNaR() const
    {
        return bits() == (uint64_t{1} << (N - 1));
    }
    constexpr bool isNegative() const { return bits_ < 0 && !isNaR(); }
    /// @}

    /**
     * Exact decoded form: value = (-1)^negative * sig * 2^(scale-63)
     * with the 64-bit significand's MSB set (so sig/2^63 is the
     * 1.fraction significand in [1, 2)).
     */
    struct Unpacked
    {
        bool negative;
        int64_t scale;
        uint64_t sig;
    };

    /** Decode a finite nonzero posit exactly. */
    constexpr Unpacked
    unpack() const
    {
        assert(!isZero() && !isNaR());
        Unpacked u;
        uint64_t pattern = bits();
        u.negative = (pattern >> (N - 1)) & 1;
        if (u.negative)
            pattern = (0 - pattern) & patternMask();

        // Left-align the N-1 magnitude bits in a 64-bit word.
        const uint64_t body = pattern & (patternMask() >> 1);
        const uint64_t x = body << (64 - (N - 1));

        const bool regime_one = (x >> 63) & 1;
        const int run =
            regime_one ? countLeadingOnes(x) : countLeadingZeros(x);
        const int64_t k = regime_one ? run - 1 : -run;
        const int consumed = run + 1 <= N - 1 ? run + 1 : N - 1;

        const int rem = (N - 1) - consumed;
        const int e_bits = rem < ES ? rem : ES;
        const uint64_t x2 = shiftLeft(x, consumed);
        // Missing low exponent bits are treated as zero (standard).
        const uint64_t e_field =
            e_bits == 0 ? 0 : (x2 >> (64 - e_bits)) << (ES - e_bits);
        const uint64_t x3 = shiftLeft(x2, e_bits);

        u.scale = k * useed_log2 + static_cast<int64_t>(e_field);
        u.sig = (uint64_t{1} << 63) | (x3 >> 1);
        return u;
    }

    /**
     * An arithmetic core's exact-then-truncated result, before
     * rounding: value = (-1)^negative * (sig + f) * 2^(scale-63) for
     * some f in [0, 1), with f != 0 exactly when sticky is set. sig
     * has its MSB set, or is 0 for an exact zero.
     */
    struct Unrounded
    {
        bool negative;
        int64_t scale;
        uint64_t sig;
        bool sticky;
    };

    /**
     * Encode with correct RNE rounding.
     *
     * @param negative sign of the value
     * @param scale    base-2 exponent (value = sig * 2^(scale-63))
     * @param sig      64-bit significand, MSB set; 0 encodes zero
     * @param sticky   true if the true value has any nonzero bits
     *                 below sig's LSB
     */
    static constexpr Posit
    pack(bool negative, int64_t scale, uint64_t sig, bool sticky)
    {
        if (sig == 0)
            return zero();
        assert((sig >> 63) == 1 && "significand must be normalized");

        // Saturation per the posit standard: no rounding to 0 or NaR.
        if (scale >= scale_max)
            return negative ? -maxpos() : maxpos();
        if (scale < scale_min)
            return negative ? -minpos() : minpos();

        const int64_t k = scale >> ES; // floor division
        const auto e =
            static_cast<uint64_t>(scale - (k << ES)); // 0..2^ES-1

        // Regime | exponent | fraction, left-aligned in a 128-bit
        // window. The regime is run ones then a zero (k >= 0) or run
        // zeros then a one; run <= N-2, so it always fits.
        const int run = k >= 0 ? static_cast<int>(k) + 1
                               : static_cast<int>(-k);
        const U128 regime = k >= 0 ? ~U128{0} << (128 - run)
                                   : U128{1} << (127 - run);
        // The ES + 63 exponent and fraction bits follow the regime's
        // run + 1 bits; any that fall past the window feed sticky.
        const U128 tail = (static_cast<U128>(e) << 63) |
                          (sig & ((uint64_t{1} << 63) - 1));
        const int shift = 64 - run - ES;
        U128 window = regime;
        bool stk = sticky;
        if (shift >= 0) {
            window |= tail << shift;
        } else {
            window |= tail >> -shift;
            stk = stk || (tail & ((U128{1} << -shift) - 1)) != 0;
        }

        // Cut at N-1 bits; round to nearest, ties to even pattern.
        auto body =
            static_cast<uint64_t>(window >> (128 - (N - 1)));
        const bool guard = ((window >> (128 - N)) & 1) != 0;
        const bool lower =
            (window & ((static_cast<U128>(1) << (128 - N)) - 1)) != 0 ||
            stk;
        if (guard && (lower || (body & 1)))
            body += 1; // cannot overflow past maxpos (see above clamp)

        uint64_t pattern = body;
        if (negative)
            pattern = (0 - pattern) & patternMask();
        return fromBits(pattern);
    }

    /** Encode a core's result with correct RNE rounding. */
    static constexpr Posit
    pack(const Unrounded &r)
    {
        return pack(r.negative, r.scale, r.sig, r.sticky);
    }

    /**
     * Round a core's nonzero result and return it decoded: exactly
     * pack(r).unpack(), without building the bit pattern when the
     * cut falls inside the fraction with at least one fraction bit
     * kept. There, RNE on the pattern is RNE on sig, and a carry out
     * of the kept bits gives 2^(scale+1), which is representable.
     * Saturation and cuts inside the exponent or the regime take the
     * pack().unpack() path.
     */
    static constexpr Unpacked
    round(const Unrounded &r)
    {
        assert((r.sig >> 63) == 1 && "significand must be normalized");
        const int64_t k = r.scale >> ES;
        const int64_t run = k >= 0 ? k + 1 : -k;
        const int64_t fraction_bits = (N - 1) - (run + 1) - ES;
        if (fraction_bits >= 1) {
            const int drop = 63 - static_cast<int>(fraction_bits);
            const uint64_t half = uint64_t{1} << (drop - 1);
            const uint64_t dropped = r.sig & ((half << 1) - 1);
            uint64_t sig = r.sig - dropped;
            const bool odd = ((r.sig >> drop) & 1) != 0;
            if (dropped > half ||
                (dropped == half && (r.sticky || odd))) {
                sig += half << 1;
                if (sig == 0)
                    return {r.negative, r.scale + 1, uint64_t{1} << 63};
            }
            return {r.negative, r.scale, sig};
        }
        return pack(r).unpack();
    }

    /** @name Conversions */
    /// @{
    static Posit
    fromDouble(double value)
    {
        if (std::isnan(value) || std::isinf(value))
            return nar();
        if (value == 0.0)
            return zero();
        int e = 0;
        const double frac = std::frexp(std::fabs(value), &e);
        const auto sig53 =
            static_cast<uint64_t>(std::ldexp(frac, 53));
        return pack(std::signbit(value), e - 1, sig53 << 11, false);
    }

    /**
     * Round to nearest double. Exact for every posit whose value fits
     * a normal double; values in double's subnormal range may be
     * double-rounded (documented; the accuracy harness uses
     * toBigFloat, which is exact).
     */
    double
    toDouble() const
    {
        if (isZero())
            return 0.0;
        if (isNaR())
            return std::numeric_limits<double>::quiet_NaN();
        const Unpacked u = unpack();
        const double mag =
            std::ldexp(static_cast<double>(u.sig),
                       static_cast<int>(u.scale) - 63);
        return u.negative ? -mag : mag;
    }

    /** Exact conversion to the oracle format. */
    BigFloat
    toBigFloat() const
    {
        if (isZero())
            return BigFloat::zero();
        if (isNaR())
            return BigFloat::nan();
        const Unpacked u = unpack();
        return BigFloat::fromSig64(u.negative, u.scale, u.sig);
    }

    /** Correctly rounded conversion from the oracle format. */
    static Posit
    fromBigFloat(const BigFloat &value)
    {
        if (value.isNaN())
            return nar();
        if (value.isZero())
            return zero();
        const BigFloat::Top64 t = value.top64();
        return pack(t.negative, t.exp2, t.sig, t.sticky);
    }
    /// @}

    /**
     * @name Arithmetic cores
     * Exact-then-truncate on finite nonzero operands; pack() or
     * round() finishes the result. The operators below and
     * PositDecoded share these, so both round identically.
     */
    /// @{
    static constexpr Unrounded
    addCore(const Unpacked &ua, const Unpacked &ub)
    {
        // Order by magnitude so the subtract path cannot go negative.
        const bool a_is_hi =
            ua.scale != ub.scale ? ua.scale > ub.scale
                                 : ua.sig >= ub.sig;
        const Unpacked &hi = a_is_hi ? ua : ub;
        const Unpacked &lo = a_is_hi ? ub : ua;

        const int64_t diff = hi.scale - lo.scale;
        U128 acc = static_cast<U128>(hi.sig) << 64;
        U128 small = static_cast<U128>(lo.sig) << 64;
        bool sticky = false;
        if (diff >= 128) {
            small = 0;
            sticky = true;
        } else if (diff > 0) {
            const U128 dropped =
                small & ((static_cast<U128>(1) << diff) - 1);
            sticky = dropped != 0;
            small >>= diff;
        }

        int64_t scale = hi.scale;
        if (ua.negative == ub.negative) {
            const U128 before = acc;
            acc += small;
            if (acc < before) { // carry out of bit 127
                sticky = sticky || (acc & 1) != 0;
                acc = (acc >> 1) | (static_cast<U128>(1) << 127);
                scale += 1;
            }
        } else {
            acc -= small;
            if (sticky) {
                // True subtrahend was larger than its truncation:
                // borrow one and let sticky mark the in-between value.
                acc -= 1;
            }
            if (acc == 0) // sticky cannot be set here (diff<65)
                return {false, 0, 0, false};
            const int lz = countLeadingZeros128(acc);
            acc <<= lz;
            scale -= lz;
        }

        return {hi.negative, scale, static_cast<uint64_t>(acc >> 64),
                sticky || static_cast<uint64_t>(acc) != 0};
    }

    static constexpr Unrounded
    mulCore(const Unpacked &ua, const Unpacked &ub)
    {
        const U128 prod = static_cast<U128>(ua.sig) * ub.sig;
        const bool negative = ua.negative != ub.negative;
        const int64_t scale = ua.scale + ub.scale;
        if ((prod >> 127) != 0)
            return {negative, scale + 1,
                    static_cast<uint64_t>(prod >> 64),
                    static_cast<uint64_t>(prod) != 0};
        return {negative, scale, static_cast<uint64_t>(prod >> 63),
                (static_cast<uint64_t>(prod) &
                 ((uint64_t{1} << 63) - 1)) != 0};
    }

    static constexpr Unrounded
    divCore(const Unpacked &ua, const Unpacked &ub)
    {
        const bool negative = ua.negative != ub.negative;
        const U128 num = static_cast<U128>(ua.sig) << 64;
        const U128 q = num / ub.sig;
        const bool rem = (num % ub.sig) != 0;

        // sigA/sigB in (1/2, 2) => q in (2^63, 2^65).
        const int64_t scale = ua.scale - ub.scale;
        if ((q >> 64) != 0)
            return {negative, scale, static_cast<uint64_t>(q >> 1),
                    rem || (q & 1) != 0};
        return {negative, scale - 1, static_cast<uint64_t>(q), rem};
    }

    /**
     * a * b + c with one rounding: the exact 128-bit product is
     * aligned against c before any rounding happens.
     */
    static Unrounded
    fmaCore(const Unpacked &ua, const Unpacked &ub, const Unpacked &uc)
    {
        U128 prod = static_cast<U128>(ua.sig) * ub.sig;
        int64_t scale_p = ua.scale + ub.scale;
        if ((prod >> 127) != 0)
            scale_p += 1;
        else
            prod <<= 1; // normalize: top bit at 127
        const bool neg_p = ua.negative != ub.negative;
        const U128 caug = static_cast<U128>(uc.sig) << 64;

        // Order by magnitude (both normalized with bit 127 set).
        const bool prod_is_hi =
            scale_p != uc.scale ? scale_p > uc.scale : prod >= caug;
        U128 acc = prod_is_hi ? prod : caug;
        U128 small = prod_is_hi ? caug : prod;
        const bool neg_hi = prod_is_hi ? neg_p : uc.negative;
        const bool neg_lo = prod_is_hi ? uc.negative : neg_p;
        int64_t scale =
            prod_is_hi ? scale_p : uc.scale;
        const int64_t diff =
            prod_is_hi ? scale_p - uc.scale : uc.scale - scale_p;

        bool sticky = false;
        if (diff >= 128) {
            small = 0;
            sticky = true;
        } else if (diff > 0) {
            const U128 dropped =
                small & ((static_cast<U128>(1) << diff) - 1);
            sticky = dropped != 0;
            small >>= diff;
        }

        if (neg_hi == neg_lo) {
            const U128 before = acc;
            acc += small;
            if (acc < before) {
                sticky = sticky || (acc & 1) != 0;
                acc = (acc >> 1) | (static_cast<U128>(1) << 127);
                scale += 1;
            }
        } else {
            acc -= small;
            if (sticky) {
                // Bits of the 128-bit product were shifted out before
                // the subtraction. If the subtraction also cancelled
                // the top bits, those lost bits decide the result:
                // recompute exactly (cancellation beyond one bit
                // implies the scales differed by at most one, so the
                // exact difference fits the 256-bit oracle).
                if (acc < (static_cast<U128>(1) << 126)) {
                    const auto big = [](const Unpacked &u) {
                        return BigFloat::fromSig64(u.negative, u.scale,
                                                   u.sig);
                    };
                    const BigFloat exact = big(ua) * big(ub) + big(uc);
                    if (exact.isZero())
                        return {false, 0, 0, false};
                    const BigFloat::Top64 t = exact.top64();
                    return {t.negative, t.exp2, t.sig, t.sticky};
                }
                acc -= 1;
            }
            if (acc == 0)
                return {false, 0, 0, false};
            const int lz = countLeadingZeros128(acc);
            acc <<= lz;
            scale -= lz;
        }

        return {neg_hi, scale, static_cast<uint64_t>(acc >> 64),
                sticky || static_cast<uint64_t>(acc) != 0};
    }
    /// @}

    /** @name Arithmetic */
    /// @{
    friend Posit
    operator+(const Posit &a, const Posit &b)
    {
        if (a.isNaR() || b.isNaR())
            return nar();
        if (a.isZero())
            return b;
        if (b.isZero())
            return a;
        return pack(addCore(a.unpack(), b.unpack()));
    }

    friend Posit
    operator-(const Posit &a, const Posit &b)
    {
        return a + (-b);
    }

    friend Posit
    operator*(const Posit &a, const Posit &b)
    {
        if (a.isNaR() || b.isNaR())
            return nar();
        if (a.isZero() || b.isZero())
            return zero();
        return pack(mulCore(a.unpack(), b.unpack()));
    }

    friend Posit
    operator/(const Posit &a, const Posit &b)
    {
        if (a.isNaR() || b.isNaR() || b.isZero())
            return nar();
        if (a.isZero())
            return zero();
        return pack(divCore(a.unpack(), b.unpack()));
    }

    /**
     * Correctly rounded square root. NaR for negative input or NaR;
     * exact integer square root of the significand with a sticky
     * remainder, so rounding is a true RNE of the infinite result.
     */
    static Posit
    sqrt(const Posit &x)
    {
        if (x.isNaR() || x.isNegative())
            return nar();
        if (x.isZero())
            return zero();
        const Unpacked u = x.unpack();
        const int64_t e = u.scale;
        const int odd = static_cast<int>(e & 1);
        // value = sig * 2^(e-63); fold parity into the radicand so
        // the remaining exponent is even: isqrt(sig << (63+odd)).
        const U128 radicand = static_cast<U128>(u.sig) << (63 + odd);

        // Newton from a double seed, then exact floor adjustment.
        auto q = static_cast<uint64_t>(std::sqrt(
            std::ldexp(static_cast<double>(u.sig), 63 + odd - 64) *
            18446744073709551616.0));
        for (int i = 0; i < 4; ++i) {
            const uint64_t div =
                static_cast<uint64_t>(radicand / q);
            q = (q >> 1) + (div >> 1) + (q & div & 1);
        }
        while (static_cast<U128>(q) * q > radicand)
            --q;
        while (static_cast<U128>(q + 1) * (q + 1) <= radicand)
            ++q;
        const bool sticky = static_cast<U128>(q) * q != radicand;

        // q = floor(sqrt(value) * 2^63) with q in [2^63, 2^64).
        return pack(false, (e - odd) >> 1, q, sticky);
    }

    /** Fused multiply-add: a * b + c with a single rounding. */
    static Posit
    fma(const Posit &a, const Posit &b, const Posit &c)
    {
        if (a.isNaR() || b.isNaR() || c.isNaR())
            return nar();
        if (a.isZero() || b.isZero())
            return c;
        if (c.isZero())
            return a * b;
        return pack(fmaCore(a.unpack(), b.unpack(), c.unpack()));
    }

    constexpr Posit
    operator-() const
    {
        // Two's-complement negation; fixes NaR and zero for free.
        return fromBits((0 - bits()) & patternMask());
    }

    constexpr Posit
    abs() const
    {
        return isNegative() ? -*this : *this;
    }

    Posit &operator+=(const Posit &o) { return *this = *this + o; }
    Posit &operator-=(const Posit &o) { return *this = *this - o; }
    Posit &operator*=(const Posit &o) { return *this = *this * o; }
    Posit &operator/=(const Posit &o) { return *this = *this / o; }
    /// @}

    /** @name Comparison: the standard's total order (NaR smallest). */
    /// @{
    friend constexpr bool
    operator==(const Posit &a, const Posit &b)
    {
        return a.bits_ == b.bits_;
    }
    friend constexpr bool
    operator!=(const Posit &a, const Posit &b)
    {
        return a.bits_ != b.bits_;
    }
    friend constexpr bool
    operator<(const Posit &a, const Posit &b)
    {
        return a.bits_ < b.bits_;
    }
    friend constexpr bool
    operator<=(const Posit &a, const Posit &b)
    {
        return a.bits_ <= b.bits_;
    }
    friend constexpr bool
    operator>(const Posit &a, const Posit &b)
    {
        return a.bits_ > b.bits_;
    }
    friend constexpr bool
    operator>=(const Posit &a, const Posit &b)
    {
        return a.bits_ >= b.bits_;
    }
    /// @}

    /** Human-readable config name, e.g. "posit(64,12)". */
    static std::string
    name()
    {
        return "posit(" + std::to_string(N) + "," + std::to_string(ES) +
               ")";
    }

  private:
    using U128 = unsigned __int128;

    static constexpr uint64_t
    patternMask()
    {
        return N == 64 ? ~uint64_t{0} : (uint64_t{1} << N) - 1;
    }

    /** Sign-extend the N-bit pattern so integer order == posit order. */
    static constexpr int64_t
    signExtend(uint64_t pattern)
    {
        if (N == 64)
            return static_cast<int64_t>(pattern);
        const uint64_t sign_bit = uint64_t{1} << (N - 1);
        return static_cast<int64_t>((pattern ^ sign_bit) - sign_bit);
    }

    static constexpr int
    countLeadingZeros(uint64_t x)
    {
        return x == 0 ? 64 : __builtin_clzll(x);
    }

    static constexpr int
    countLeadingOnes(uint64_t x)
    {
        return countLeadingZeros(~x);
    }

    static constexpr int
    countLeadingZeros128(U128 x)
    {
        const auto hi = static_cast<uint64_t>(x >> 64);
        if (hi != 0)
            return countLeadingZeros(hi);
        return 64 + countLeadingZeros(static_cast<uint64_t>(x));
    }

    /** Shift left that tolerates a shift amount of 64. */
    static constexpr uint64_t
    shiftLeft(uint64_t x, int amount)
    {
        return amount >= 64 ? 0 : x << amount;
    }

    int64_t bits_ = 0; //!< sign-extended N-bit pattern
};

/**
 * A posit held decoded between operations.
 *
 * Its arithmetic is Posit's: the same cores, finished by
 * Posit::round() instead of pack(), so every result is the decoded
 * form of the Posit operator's result. A chain of operations on
 * PositDecoded values skips the unpack and pack around each one and
 * is bit-identical to the same chain on Posit. The kernels in src/hmm
 * compute in this type (WorkScalar in core/real_traits.hh) and encode
 * each result once.
 *
 * A value is zero, NaR, or a finite nonzero Posit::Unpacked.
 */
template <int N, int ES>
class PositDecoded
{
  public:
    /** The encoded format. */
    using P = Posit<N, ES>;
    /** Finite nonzero fields: sign, scale, normalized significand. */
    using Unpacked = typename P::Unpacked;

    /** Constructs zero. */
    constexpr PositDecoded() = default;

    /** Decode a posit. */
    constexpr explicit PositDecoded(const P &p)
    {
        if (p.isNaR())
            u_.negative = true;
        else if (!p.isZero())
            u_ = p.unpack();
    }

    /** Encode; exact, since every value is a posit. */
    constexpr P
    toPosit() const
    {
        if (isZero())
            return P::zero();
        if (isNaR())
            return P::nar();
        return P::pack(u_.negative, u_.scale, u_.sig, false);
    }

    static constexpr PositDecoded zero() { return PositDecoded(); }
    static constexpr PositDecoded
    nar()
    {
        PositDecoded d;
        d.u_.negative = true;
        return d;
    }

    constexpr bool
    isZero() const
    {
        return u_.sig == 0 && !u_.negative;
    }
    constexpr bool isNaR() const { return u_.sig == 0 && u_.negative; }

    /** The fields of a finite nonzero value. */
    constexpr const Unpacked &
    unpacked() const
    {
        assert(u_.sig != 0);
        return u_;
    }

    friend constexpr PositDecoded
    operator+(const PositDecoded &a, const PositDecoded &b)
    {
        if (a.isSpecial() || b.isSpecial()) {
            if (a.isNaR() || b.isNaR())
                return nar();
            return a.isZero() ? b : a;
        }
        return finish(P::addCore(a.u_, b.u_));
    }

    friend constexpr PositDecoded
    operator-(const PositDecoded &a, const PositDecoded &b)
    {
        return a + (-b);
    }

    friend constexpr PositDecoded
    operator*(const PositDecoded &a, const PositDecoded &b)
    {
        if (a.isSpecial() || b.isSpecial())
            return a.isNaR() || b.isNaR() ? nar() : zero();
        return finish(P::mulCore(a.u_, b.u_));
    }

    constexpr PositDecoded
    operator-() const
    {
        PositDecoded d = *this;
        if (!isSpecial())
            d.u_.negative = !d.u_.negative;
        return d;
    }

    constexpr PositDecoded
    abs() const
    {
        PositDecoded d = *this;
        if (!isSpecial())
            d.u_.negative = false;
        return d;
    }

    /** Posit's total order: NaR, negatives, zero, positives. */
    friend constexpr bool
    operator<(const PositDecoded &a, const PositDecoded &b)
    {
        const int ra = a.rank();
        const int rb = b.rank();
        if (ra != rb)
            return ra < rb;
        if (ra == 1)
            return magnitudeLess(b.u_, a.u_);
        return ra == 3 && magnitudeLess(a.u_, b.u_);
    }

  private:
    constexpr bool isSpecial() const { return u_.sig == 0; }

    /** 0 NaR, 1 negative, 2 zero, 3 positive. */
    constexpr int
    rank() const
    {
        if (isSpecial())
            return u_.negative ? 0 : 2;
        return u_.negative ? 1 : 3;
    }

    static constexpr bool
    magnitudeLess(const Unpacked &x, const Unpacked &y)
    {
        return x.scale != y.scale ? x.scale < y.scale : x.sig < y.sig;
    }

    static constexpr PositDecoded
    finish(const typename P::Unrounded &r)
    {
        PositDecoded d;
        if (r.sig != 0)
            d.u_ = P::round(r);
        return d;
    }

    // sig == 0 marks the two specials: zero (negative false) and NaR
    // (negative true).
    Unpacked u_{false, 0, 0};
};

/** The paper's three studied 64-bit configurations. */
using Posit64es9 = Posit<64, 9>;
using Posit64es12 = Posit<64, 12>;
using Posit64es18 = Posit<64, 18>;

} // namespace pstat

#endif // PSTAT_CORE_POSIT_HH
