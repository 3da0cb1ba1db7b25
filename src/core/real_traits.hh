/**
 * @file
 * Uniform scalar-format adapter for the statistical kernels.
 *
 * Every kernel in src/hmm and src/pbd is a template over a scalar
 * type T; RealTraits<T> supplies construction, conversion to/from the
 * BigFloat oracle, and a display name. Specializations cover the
 * format families the paper compares — binary64, log-space binary64,
 * LNS, posits, and the oracles — plus the reduced-precision tier:
 * binary32, log-space binary32, posit(32,2), and bfloat16.
 * WorkScalar<T> names the type a kernel computes in for format T:
 * T itself, or the decoded form for posits.
 */

#ifndef PSTAT_CORE_REAL_TRAITS_HH
#define PSTAT_CORE_REAL_TRAITS_HH

#include <string>

#include "bigfloat/bigfloat.hh"
#include "core/bfloat16.hh"
#include "core/binary32.hh"
#include "core/dd.hh"
#include "core/lns.hh"
#include "core/logspace.hh"
#include "core/logspace32.hh"
#include "core/posit.hh"

/**
 * @namespace pstat
 * Root namespace of the reproduction: number formats, statistical
 * kernels, the accuracy oracle, and the FPGA performance model.
 */
namespace pstat
{

/**
 * The scalar-format adapter the kernels are templated over.
 *
 * Each specialization provides the same static interface:
 * - `name()` — display name, e.g. `"posit(64,18)"`;
 * - `zero()` / `one()` — additive and multiplicative identities;
 * - `fromDouble(double)` — the format's rounding of a binary64 value;
 * - `fromBigFloat(BigFloat)` / `toBigFloat(T)` — correctly rounded
 *   conversion from, and exact conversion to, the 256-bit oracle;
 * - `isZero(T)` / `isInvalid(T)` — underflow and NaR/NaN predicates
 *   used by the accuracy bookkeeping.
 */
template <typename T>
struct RealTraits;

/** IEEE binary64 — the hardware baseline format. */
template <>
struct RealTraits<double>
{
    /** Display name. */
    static std::string name() { return "binary64"; }
    /** Additive identity. */
    static double zero() { return 0.0; }
    /** Multiplicative identity. */
    static double one() { return 1.0; }
    /** Identity conversion. */
    static double fromDouble(double v) { return v; }
    /** Correctly rounded conversion from the oracle. */
    static double fromBigFloat(const BigFloat &v) { return v.toDouble(); }
    /** Exact conversion to the oracle. */
    static BigFloat toBigFloat(double v) { return BigFloat::fromDouble(v); }
    /** True when the value is (+/-) zero. */
    static bool isZero(double v) { return v == 0.0; }
    /** True for NaN. */
    static bool isInvalid(double v) { return v != v; }
};

/**
 * IEEE binary32 — the cheap linear-domain format of the
 * reduced-precision tier (24 significand bits, underflow at 2^-149).
 */
template <>
struct RealTraits<float>
{
    /** Display name. */
    static std::string name() { return "binary32"; }
    /** Additive identity. */
    static float zero() { return 0.0f; }
    /** Multiplicative identity. */
    static float one() { return 1.0f; }
    /** The binary32 rounding of a binary64 value (single RNE cast). */
    static float fromDouble(double v) { return static_cast<float>(v); }
    /** Correctly rounded conversion from the oracle (single RNE). */
    static float fromBigFloat(const BigFloat &v)
    {
        return binary32FromBigFloat(v);
    }
    /** Exact conversion to the oracle. */
    static BigFloat toBigFloat(float v)
    {
        return BigFloat::fromDouble(static_cast<double>(v));
    }
    /** True when the value is (+/-) zero. */
    static bool isZero(float v) { return v == 0.0f; }
    /** True for NaN. */
    static bool isInvalid(float v) { return v != v; }
};

/** Log-space binary64 (LogDouble) — the paper's software baseline. */
template <>
struct RealTraits<LogDouble>
{
    /** Display name. */
    static std::string name() { return LogDouble::name(); }
    /** Additive identity (log value -inf). */
    static LogDouble zero() { return LogDouble::zero(); }
    /** Multiplicative identity (log value 0). */
    static LogDouble one() { return LogDouble::one(); }
    /** Convert by taking ln in binary64. */
    static LogDouble fromDouble(double v)
    {
        return LogDouble::fromDouble(v);
    }
    /** ln at oracle precision, rounded once to binary64. */
    static LogDouble fromBigFloat(const BigFloat &v)
    {
        return LogDouble::fromBigFloat(v);
    }
    /** Exact value exp(ln) lifted into the oracle. */
    static BigFloat toBigFloat(const LogDouble &v)
    {
        return v.toBigFloat();
    }
    /** True for the log-space zero (-inf). */
    static bool isZero(const LogDouble &v) { return v.isZero(); }
    /** True for NaN (negative or invalid operands). */
    static bool isInvalid(const LogDouble &v) { return v.isNaN(); }
};

/**
 * Log-space binary32 (LogFloat) — the log strategy at the
 * reduced-precision tier: near-unbounded range, ~7 decimal digits.
 */
template <>
struct RealTraits<LogFloat>
{
    /** Display name. */
    static std::string name() { return LogFloat::name(); }
    /** Additive identity (log value -inf). */
    static LogFloat zero() { return LogFloat::zero(); }
    /** Multiplicative identity (log value 0). */
    static LogFloat one() { return LogFloat::one(); }
    /** Convert by taking ln, rounded to binary32. */
    static LogFloat fromDouble(double v)
    {
        return LogFloat::fromDouble(v);
    }
    /** ln at oracle precision, rounded once to binary32. */
    static LogFloat fromBigFloat(const BigFloat &v)
    {
        return LogFloat::fromBigFloat(v);
    }
    /** Exact value exp(ln) lifted into the oracle. */
    static BigFloat toBigFloat(const LogFloat &v)
    {
        return v.toBigFloat();
    }
    /** True for the log-space zero (-inf). */
    static bool isZero(const LogFloat &v) { return v.isZero(); }
    /** True for NaN (negative or invalid operands). */
    static bool isInvalid(const LogFloat &v) { return v.isNaN(); }
};

/** Any Posit<N, ES> configuration (the paper's primary subject). */
template <int N, int ES>
struct RealTraits<Posit<N, ES>>
{
    /** The posit configuration this specialization adapts. */
    using P = Posit<N, ES>;
    /** Display name, e.g. "posit(64,18)". */
    static std::string name() { return P::name(); }
    /** Additive identity. */
    static P zero() { return P::zero(); }
    /** Multiplicative identity. */
    static P one() { return P::one(); }
    /** Correctly rounded conversion from binary64. */
    static P fromDouble(double v) { return P::fromDouble(v); }
    /** Correctly rounded conversion from the oracle. */
    static P fromBigFloat(const BigFloat &v) { return P::fromBigFloat(v); }
    /** Exact conversion to the oracle. */
    static BigFloat toBigFloat(const P &v) { return v.toBigFloat(); }
    /** True for the single posit zero. */
    static bool isZero(const P &v) { return v.isZero(); }
    /** True for NaR. */
    static bool isInvalid(const P &v) { return v.isNaR(); }
};

/** A posit held decoded between operations (PositDecoded). */
template <int N, int ES>
struct RealTraits<PositDecoded<N, ES>>
{
    /** The posit configuration this form decodes. */
    using P = Posit<N, ES>;
    /** The decoded form. */
    using D = PositDecoded<N, ES>;
    /** Display name, the posit's. */
    static std::string name() { return P::name(); }
    /** Additive identity. */
    static D zero() { return D::zero(); }
    /** Multiplicative identity. */
    static D one() { return D(P::one()); }
    /** Correctly rounded conversion from binary64. */
    static D fromDouble(double v) { return D(P::fromDouble(v)); }
    /** Correctly rounded conversion from the oracle. */
    static D fromBigFloat(const BigFloat &v)
    {
        return D(P::fromBigFloat(v));
    }
    /** Exact conversion to the oracle. */
    static BigFloat toBigFloat(const D &v)
    {
        return v.toPosit().toBigFloat();
    }
    /** True for the single posit zero. */
    static bool isZero(const D &v) { return v.isZero(); }
    /** True for NaR. */
    static bool isInvalid(const D &v) { return v.isNaR(); }
};

/** 64-bit fixed-point LNS (Section VII related work). */
template <>
struct RealTraits<Lns64>
{
    /** Display name. */
    static std::string name() { return Lns64::name(); }
    /** Additive identity. */
    static Lns64 zero() { return Lns64::zero(); }
    /** Multiplicative identity. */
    static Lns64 one() { return Lns64::one(); }
    /** Convert by taking log2, quantized to Q24.39. */
    static Lns64 fromDouble(double v) { return Lns64::fromDouble(v); }
    /** log2 at oracle precision, quantized to Q24.39. */
    static Lns64 fromBigFloat(const BigFloat &v)
    {
        return Lns64::fromBigFloat(v);
    }
    /** Exact value 2^log2 lifted into the oracle. */
    static BigFloat toBigFloat(const Lns64 &v)
    {
        return v.toBigFloat();
    }
    /** True for the LNS zero flag. */
    static bool isZero(const Lns64 &v) { return v.isZero(); }
    /** True for NaN (negative or invalid operands). */
    static bool isInvalid(const Lns64 &v) { return v.isNaN(); }
};

/**
 * Software-emulated bfloat16 — 8 significand bits on binary32's
 * 8-bit exponent range, with flush-to-zero below 2^-126.
 */
template <>
struct RealTraits<BFloat16>
{
    /** Display name. */
    static std::string name() { return BFloat16::name(); }
    /** Additive identity. */
    static BFloat16 zero() { return BFloat16::zero(); }
    /** Multiplicative identity. */
    static BFloat16 one() { return BFloat16::one(); }
    /** Correctly rounded conversion from binary64 (single RNE). */
    static BFloat16 fromDouble(double v)
    {
        return BFloat16::fromDouble(v);
    }
    /** Correctly rounded conversion from the oracle (single RNE). */
    static BFloat16 fromBigFloat(const BigFloat &v)
    {
        return BFloat16::fromBigFloat(v);
    }
    /** Exact conversion to the oracle (infinities become NaN). */
    static BigFloat toBigFloat(const BFloat16 &v)
    {
        return v.toBigFloat();
    }
    /** True when the value is (+/-) zero. */
    static bool isZero(const BFloat16 &v) { return v.isZero(); }
    /** True for NaN or infinity (unrepresentable in the oracle). */
    static bool isInvalid(const BFloat16 &v)
    {
        return v.isNaN() || v.isInf();
    }
};

/** Scaled double-double — the fast oracle (~31 significant digits). */
template <>
struct RealTraits<ScaledDD>
{
    /** Display name. */
    static std::string name() { return "scaled-dd (oracle)"; }
    /** Additive identity. */
    static ScaledDD zero() { return ScaledDD::zero(); }
    /** Multiplicative identity. */
    static ScaledDD one() { return ScaledDD::one(); }
    /** Exact conversion from binary64. */
    static ScaledDD fromDouble(double v) { return ScaledDD(v); }
    /** Split an oracle value into scaled hi/lo doubles. */
    static ScaledDD
    fromBigFloat(const BigFloat &v)
    {
        if (v.isZero())
            return ScaledDD::zero();
        const int64_t e = v.exponent();
        const BigFloat scaled = v * BigFloat::twoPow(-e);
        const double hi = scaled.toDouble();
        const double lo = (scaled - BigFloat::fromDouble(hi)).toDouble();
        return ScaledDD(DD(hi, lo), e);
    }
    /** Exact conversion to the 256-bit oracle. */
    static BigFloat toBigFloat(const ScaledDD &v)
    {
        return v.toBigFloat();
    }
    /** True for zero. */
    static bool isZero(const ScaledDD &v) { return v.isZero(); }
    /** True when the mantissa is NaN. */
    static bool isInvalid(const ScaledDD &v)
    {
        return v.mant.hi != v.mant.hi;
    }
};

/** The 256-bit BigFloat itself (the reference oracle). */
template <>
struct RealTraits<BigFloat>
{
    /** Display name. */
    static std::string name() { return "bigfloat256 (oracle)"; }
    /** Additive identity. */
    static BigFloat zero() { return BigFloat::zero(); }
    /** Multiplicative identity. */
    static BigFloat one() { return BigFloat::one(); }
    /** Exact conversion from binary64. */
    static BigFloat fromDouble(double v) { return BigFloat::fromDouble(v); }
    /** Identity conversion. */
    static BigFloat fromBigFloat(const BigFloat &v) { return v; }
    /** Identity conversion. */
    static BigFloat toBigFloat(const BigFloat &v) { return v; }
    /** True for zero. */
    static bool isZero(const BigFloat &v) { return v.isZero(); }
    /** True for NaN. */
    static bool isInvalid(const BigFloat &v) { return v.isNaN(); }
};

/**
 * The scalar a kernel computes in for format T, and the conversions
 * at the kernel's edges: load() when the inputs are converted, store()
 * for the result. It is T for every format except posits, which
 * kernels hold decoded (Posit::Decoded) between operations and encode
 * once per result. The arithmetic is the same, so results are
 * bit-identical to computing in T.
 */
template <typename T>
struct WorkScalar
{
    /** The kernel's scalar type. */
    using type = T;
    /** Identity. */
    static const T &load(const T &v) { return v; }
    /** Identity. */
    static const T &store(const T &v) { return v; }
};

/** Posits compute decoded. */
template <int N, int ES>
struct WorkScalar<Posit<N, ES>>
{
    /** The kernel's scalar type. */
    using type = PositDecoded<N, ES>;
    /** Decode. */
    static type load(const Posit<N, ES> &v) { return type(v); }
    /** Encode (exact). */
    static Posit<N, ES> store(const type &v) { return v.toPosit(); }
};

/** Shorthand for WorkScalar<T>::type. */
template <typename T>
using WorkOf = typename WorkScalar<T>::type;

} // namespace pstat

#endif // PSTAT_CORE_REAL_TRAITS_HH
