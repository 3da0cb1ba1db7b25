/**
 * @file
 * Bit-identity sweeps of decoded posit arithmetic against a frozen
 * reference.
 *
 * Posit operations are one core each plus a finisher: pack() encodes
 * the result, round() returns it decoded (core/posit.hh), and the HMM
 * kernels compute in PositDecoded, encoding once per result. RefPosit
 * below is the arithmetic they replaced, kept here as it was: the
 * same exact-then-round operators, encoded by a pack() that assembles
 * regime, exponent and fraction field by field in a 128-bit window.
 * refForward()/refBackward() are the kernels as they ran on encoded
 * posits. The sweeps require, bit for bit and field for field:
 *
 *   - round() == pack().unpack(), pack() == the reference pack(), and
 *     decoded + - * and < == Posit's == RefPosit's, over every
 *     operand pair for posit(8,0), (8,2) and (10,2);
 *   - the same on random operands and random core results for
 *     posit(64, ES) with ES in {0, 2, 9, 12, 18, 24} and posit(32,2),
 *     biased toward minpos and maxpos, rounding ties, carries out of
 *     the fraction, and the pack().unpack() cases of round();
 *   - forward and backward likelihoods for every registered posit
 *     format under every dataflow, against the reference kernels.
 *
 * The random sweeps scale with PSTAT_DIFF_CASES (default 10000).
 */

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/compensated.hh"
#include "core/posit.hh"
#include "core/real_traits.hh"
#include "engine/format_registry.hh"
#include "hmm/decode.hh"
#include "hmm/forward.hh"
#include "hmm/generator.hh"
#include "prop_util.hh"
#include "stats/rng.hh"

namespace
{

using U128 = unsigned __int128;

/** Posit arithmetic as it was: field-by-field window encoding. */
template <int N, int ES>
class RefPosit
{
  public:
    using P = pstat::Posit<N, ES>;
    using Unpacked = typename P::Unpacked;

    RefPosit() = default;
    explicit RefPosit(P p) : p_(p) {}
    P posit() const { return p_; }

    static RefPosit
    pack(bool negative, int64_t scale, uint64_t sig, bool sticky)
    {
        if (sig == 0)
            return RefPosit(P::zero());
        if (scale >= P::scale_max)
            return RefPosit(negative ? -P::maxpos() : P::maxpos());
        if (scale < P::scale_min)
            return RefPosit(negative ? -P::minpos() : P::minpos());

        const int64_t k = scale >> ES;
        const auto e = static_cast<uint64_t>(scale - (k << ES));

        U128 window = 0;
        int used = 0;
        bool stk = sticky;
        auto append = [&window, &used, &stk](uint64_t value,
                                             int width) {
            if (width <= 0)
                return;
            const int shift = 128 - used - width;
            if (shift >= 0) {
                window |= static_cast<U128>(value) << shift;
            } else {
                const int drop = -shift;
                if (drop >= width) {
                    stk = stk || value != 0;
                } else {
                    window |= static_cast<U128>(value) >> drop;
                    stk = stk ||
                          (value & ((uint64_t{1} << drop) - 1)) != 0;
                }
            }
            used += width;
        };

        if (k >= 0) {
            const int run = static_cast<int>(k) + 1;
            append((~uint64_t{0}) >> (64 - run), run);
            append(0, 1);
        } else {
            append(0, static_cast<int>(-k));
            append(1, 1);
        }
        append(e, ES);
        append(sig & ((uint64_t{1} << 63) - 1), 63);

        auto body = static_cast<uint64_t>(window >> (128 - (N - 1)));
        const bool guard = ((window >> (128 - N)) & 1) != 0;
        const bool lower =
            (window & ((static_cast<U128>(1) << (128 - N)) - 1)) != 0 ||
            stk;
        if (guard && (lower || (body & 1)))
            body += 1;
        const uint64_t mask =
            N == 64 ? ~uint64_t{0} : (uint64_t{1} << N) - 1;
        return RefPosit(
            P::fromBits(negative ? (0 - body) & mask : body));
    }

    static RefPosit
    fromDouble(double value)
    {
        if (std::isnan(value) || std::isinf(value))
            return RefPosit(P::nar());
        if (value == 0.0)
            return RefPosit(P::zero());
        int e = 0;
        const double frac = std::frexp(std::fabs(value), &e);
        const auto sig53 = static_cast<uint64_t>(std::ldexp(frac, 53));
        return pack(std::signbit(value), e - 1, sig53 << 11, false);
    }

    friend RefPosit
    operator+(const RefPosit &x, const RefPosit &y)
    {
        const P a = x.p_;
        const P b = y.p_;
        if (a.isNaR() || b.isNaR())
            return RefPosit(P::nar());
        if (a.isZero())
            return y;
        if (b.isZero())
            return x;

        const Unpacked ua = a.unpack();
        const Unpacked ub = b.unpack();
        const bool a_is_hi = ua.scale != ub.scale ? ua.scale > ub.scale
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
            if (acc < before) {
                sticky = sticky || (acc & 1) != 0;
                acc = (acc >> 1) | (static_cast<U128>(1) << 127);
                scale += 1;
            }
        } else {
            acc -= small;
            if (sticky)
                acc -= 1;
            if (acc == 0)
                return RefPosit(P::zero());
            const auto top = static_cast<uint64_t>(acc >> 64);
            const auto bottom = static_cast<uint64_t>(acc);
            const int lz = top != 0 ? __builtin_clzll(top)
                                    : 64 + __builtin_clzll(bottom);
            acc <<= lz;
            scale -= lz;
        }
        return pack(hi.negative, scale,
                    static_cast<uint64_t>(acc >> 64),
                    sticky || static_cast<uint64_t>(acc) != 0);
    }

    friend RefPosit
    operator*(const RefPosit &x, const RefPosit &y)
    {
        const P a = x.p_;
        const P b = y.p_;
        if (a.isNaR() || b.isNaR())
            return RefPosit(P::nar());
        if (a.isZero() || b.isZero())
            return RefPosit(P::zero());

        const Unpacked ua = a.unpack();
        const Unpacked ub = b.unpack();
        const U128 prod = static_cast<U128>(ua.sig) * ub.sig;
        const bool negative = ua.negative != ub.negative;
        int64_t scale = ua.scale + ub.scale;
        if ((prod >> 127) != 0)
            return pack(negative, scale + 1,
                        static_cast<uint64_t>(prod >> 64),
                        static_cast<uint64_t>(prod) != 0);
        return pack(negative, scale, static_cast<uint64_t>(prod >> 63),
                    (static_cast<uint64_t>(prod) &
                     ((uint64_t{1} << 63) - 1)) != 0);
    }

    RefPosit operator-() const { return RefPosit(-p_); }
    friend RefPosit
    operator-(const RefPosit &a, const RefPosit &b)
    {
        return a + (-b);
    }
    RefPosit abs() const { return RefPosit(p_.abs()); }
    friend bool
    operator<(const RefPosit &a, const RefPosit &b)
    {
        return a.p_ < b.p_;
    }

  private:
    P p_;
};

} // namespace

namespace pstat
{

/** Just enough of the adapter for NeumaierSum and the kernels. */
template <int N, int ES>
struct RealTraits<RefPosit<N, ES>>
{
    static RefPosit<N, ES> zero() { return {}; }
    static RefPosit<N, ES> one()
    {
        return RefPosit<N, ES>(Posit<N, ES>::one());
    }
    static RefPosit<N, ES> fromDouble(double v)
    {
        return RefPosit<N, ES>::fromDouble(v);
    }
};

} // namespace pstat

namespace
{

using namespace pstat;
using hmm::Reduction;

// ------------------------------------------------- reference kernels

template <typename T>
T
refReduceTree(std::vector<T> &buf)
{
    size_t n = buf.size();
    while (n > 1) {
        const size_t half = n / 2;
        for (size_t i = 0; i < half; ++i)
            buf[i] = buf[2 * i] + buf[2 * i + 1];
        if (n % 2 != 0) {
            buf[half] = buf[n - 1];
            n = half + 1;
        } else {
            n = half;
        }
    }
    return buf[0];
}

template <typename T>
T
refReduce(std::vector<T> &terms, Reduction reduction)
{
    if (reduction == Reduction::Tree)
        return refReduceTree(terms);
    if (reduction == Reduction::Compensated) {
        NeumaierSum<T> acc;
        for (const T &v : terms)
            acc.add(v);
        return acc.value();
    }
    T sum = RealTraits<T>::zero();
    for (const T &v : terms)
        sum = sum + v;
    return sum;
}

/** forward<T>() as it ran on encoded posits. */
template <typename T>
T
refForward(const hmm::Model &model, std::span<const int> obs,
           Reduction reduction)
{
    using RT = RealTraits<T>;
    const int h = model.num_states;
    const size_t s = static_cast<size_t>(model.num_symbols);
    std::vector<T> a(model.a.size());
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = RT::fromDouble(model.a[i]);
    std::vector<T> b(model.b.size());
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = RT::fromDouble(model.b[i]);

    std::vector<T> alpha(h), alpha_prev(h), terms(h);
    for (int q = 0; q < h; ++q)
        alpha_prev[q] = RT::fromDouble(model.pi[q]) * b[q * s + obs[0]];
    for (size_t t = 1; t < obs.size(); ++t) {
        for (int q = 0; q < h; ++q) {
            for (int p = 0; p < h; ++p)
                terms[p] =
                    alpha_prev[p] * a[static_cast<size_t>(p) * h + q];
            alpha[q] = refReduce(terms, reduction) * b[q * s + obs[t]];
        }
        std::swap(alpha, alpha_prev);
    }
    return refReduce(alpha_prev, reduction);
}

/** backward<T>() as it ran on encoded posits. */
template <typename T>
T
refBackward(const hmm::Model &model, std::span<const int> obs,
            Reduction reduction)
{
    using RT = RealTraits<T>;
    const int h = model.num_states;
    const size_t s = static_cast<size_t>(model.num_symbols);
    std::vector<T> a(model.a.size());
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = RT::fromDouble(model.a[i]);
    std::vector<T> b(model.b.size());
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = RT::fromDouble(model.b[i]);

    std::vector<T> beta(h), beta_prev(h, RT::one()), terms(h);
    for (size_t t = obs.size() - 1; t > 0; --t) {
        for (int p = 0; p < h; ++p) {
            for (int q = 0; q < h; ++q)
                terms[q] = a[static_cast<size_t>(p) * h + q] *
                           b[q * s + obs[t]] * beta_prev[q];
            beta[p] = refReduce(terms, reduction);
        }
        std::swap(beta, beta_prev);
    }
    for (int q = 0; q < h; ++q)
        terms[q] = RT::fromDouble(model.pi[q]) * b[q * s + obs[0]] *
                   beta_prev[q];
    return refReduce(terms, reduction);
}

// ------------------------------------------------------- the checks

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

template <typename Fields>
bool
sameFields(const Fields &x, const Fields &y)
{
    return x.negative == y.negative && x.scale == y.scale &&
           x.sig == y.sig;
}

/** A decoded value equals a posit in bits and, if finite, in fields. */
template <int N, int ES>
::testing::AssertionResult
decodedIs(const PositDecoded<N, ES> &d, const Posit<N, ES> &p)
{
    if (d.toPosit() != p)
        return ::testing::AssertionFailure()
               << "decoded encodes to " << hex(d.toPosit().bits())
               << ", posit is " << hex(p.bits());
    if (d.isZero() != p.isZero() || d.isNaR() != p.isNaR())
        return ::testing::AssertionFailure() << "special class differs";
    const bool finite = !p.isZero() && !p.isNaR();
    if (finite && !sameFields(d.unpacked(), p.unpack()))
        return ::testing::AssertionFailure() << "fields differ";
    return ::testing::AssertionSuccess();
}

/**
 * One operand pair: decoded + - * and < against Posit's, and Posit's
 * + - * against the reference's.
 */
template <int N, int ES>
::testing::AssertionResult
checkPair(uint64_t x, uint64_t y)
{
    using P = Posit<N, ES>;
    using D = PositDecoded<N, ES>;
    using R = RefPosit<N, ES>;
    const P a = P::fromBits(x);
    const P b = P::fromBits(y);
    const D da(a);
    const D db(b);
    const R ra(a);
    const R rb(b);
    const struct
    {
        const char *op;
        D decoded;
        P posit;
        R ref;
    } results[] = {{"+", da + db, a + b, ra + rb},
                   {"-", da - db, a - b, ra - rb},
                   {"*", da * db, a * b, ra * rb}};
    for (const auto &r : results) {
        const auto same = decodedIs(r.decoded, r.posit);
        if (!same || r.posit != r.ref.posit())
            return ::testing::AssertionFailure()
                   << P::name() << " " << hex(x) << " " << r.op << " "
                   << hex(y) << ": posit " << hex(r.posit.bits())
                   << ", reference " << hex(r.ref.posit().bits())
                   << "; " << same.message();
    }
    if ((da < db) != (a < b) || !decodedIs(-da, -a) ||
        !decodedIs(da.abs(), a.abs()))
        return ::testing::AssertionFailure()
               << P::name() << " " << hex(x) << ", " << hex(y)
               << ": <, unary - or abs differs";
    return ::testing::AssertionSuccess();
}

/** round() == pack().unpack() and pack() == the reference pack(). */
template <int N, int ES>
::testing::AssertionResult
checkUnrounded(const typename Posit<N, ES>::Unrounded &r)
{
    using P = Posit<N, ES>;
    const P packed = P::pack(r);
    const P ref =
        RefPosit<N, ES>::pack(r.negative, r.scale, r.sig, r.sticky)
            .posit();
    if (packed != ref || (r.sig != 0 && !sameFields(P::round(r),
                                                     packed.unpack())))
        return ::testing::AssertionFailure()
               << P::name() << " negative " << r.negative << " scale "
               << r.scale << " sig " << hex(r.sig) << " sticky "
               << r.sticky << ": pack " << hex(packed.bits())
               << ", reference " << hex(ref.bits());
    return ::testing::AssertionSuccess();
}

/** checkUnrounded() on the add and mul cores of two posits. */
template <int N, int ES>
::testing::AssertionResult
checkCores(uint64_t x, uint64_t y)
{
    using P = Posit<N, ES>;
    const P a = P::fromBits(x);
    const P b = P::fromBits(y);
    if (a.isZero() || a.isNaR() || b.isZero() || b.isNaR())
        return ::testing::AssertionSuccess();
    const auto add = checkUnrounded<N, ES>(
        P::addCore(a.unpack(), b.unpack()));
    return add ? checkUnrounded<N, ES>(
                     P::mulCore(a.unpack(), b.unpack()))
               : add;
}

/** Every operand pair, and every nonzero core result they produce. */
template <int N, int ES>
void
sweepExhaustive()
{
    for (uint64_t x = 0; x < (uint64_t{1} << N); ++x) {
        for (uint64_t y = 0; y < (uint64_t{1} << N); ++y) {
            ASSERT_TRUE((checkPair<N, ES>(x, y)));
            ASSERT_TRUE((checkCores<N, ES>(x, y)));
        }
    }
}

/** A posit pattern biased toward the edges of the format. */
template <int N, int ES>
uint64_t
edgyPattern(stats::Rng &rng)
{
    using P = Posit<N, ES>;
    const uint64_t near = rng() % 64;
    switch (rng() % 6) {
    case 0:
        return P::minpos().bits() + near; // near minpos
    case 1:
        return P::maxpos().bits() - near; // near maxpos
    case 2:
        return P::one().bits() + near - 32; // near one
    case 3:
        return 0 - (P::minpos().bits() + near); // near -minpos
    case 4:
        return 0 - (P::maxpos().bits() - near); // near -maxpos
    default:
        return rng();
    }
}

/**
 * A core result biased toward the cases round() must get right:
 * scales at and past minpos and maxpos and wherever the cut moves
 * into the exponent or the regime; significands that tie, that carry
 * out of the kept bits, or that end in long runs of zeros or ones.
 */
template <int N, int ES>
typename Posit<N, ES>::Unrounded
edgyUnrounded(stats::Rng &rng)
{
    using P = Posit<N, ES>;
    const int64_t useed = P::useed_log2;
    int64_t scale = 0;
    switch (rng() % 4) {
    case 0:
        scale = P::scale_min - 2 * useed +
                static_cast<int64_t>(rng() % (6 * useed + 1));
        break;
    case 1:
        scale = P::scale_max - 4 * useed +
                static_cast<int64_t>(rng() % (6 * useed + 1));
        break;
    default:
        scale = P::scale_min - 2 +
                static_cast<int64_t>(rng() %
                                     (P::scale_max - P::scale_min + 5));
        break;
    }

    // The fraction bits this scale keeps, if the cut is in the
    // fraction; otherwise pick a cut anywhere in the significand.
    const int64_t k = scale >> ES;
    const int64_t run = k >= 0 ? k + 1 : -k;
    int64_t kept = (N - 1) - (run + 1) - ES;
    if (kept < 1 || kept > 62)
        kept = static_cast<int64_t>(rng() % 62) + 1;
    const int drop = 63 - static_cast<int>(kept);
    const uint64_t half = uint64_t{1} << (drop - 1);
    const uint64_t low_mask = (half << 1) - 1;

    uint64_t sig = rng() | (uint64_t{1} << 63);
    switch (rng() % 5) {
    case 0:
        sig = (sig & ~low_mask) | half; // exact tie
        break;
    case 1:
        sig = sig | ~low_mask; // all kept bits set: carry on round-up
        break;
    case 2:
        sig = (sig & ~low_mask) | (rng() & low_mask & ~half);
        break;
    case 3:
        sig &= ~uint64_t{0} << (rng() % 64); // trailing zeros
        sig |= uint64_t{1} << 63;
        break;
    default:
        break;
    }
    return {(rng() & 1) != 0, scale, sig, (rng() & 3) == 0};
}

template <int N, int ES>
void
sweepRandom(uint64_t seed)
{
    const size_t cases = 30 * prop::diffCases();
    stats::Rng rng(seed);
    for (size_t i = 0; i < cases; ++i) {
        const uint64_t x = edgyPattern<N, ES>(rng);
        uint64_t y = edgyPattern<N, ES>(rng);
        if (i % 4 == 0) // near-cancellation
            y = (0 - x) + (rng() % 5) - 2;
        ASSERT_TRUE((checkPair<N, ES>(x, y))) << "case " << i;
        ASSERT_TRUE((checkCores<N, ES>(x, y))) << "case " << i;
        ASSERT_TRUE((checkUnrounded<N, ES>(edgyUnrounded<N, ES>(rng))))
            << "case " << i;
    }
}

TEST(PositDecoded, ExhaustivePosit8es0)
{
    sweepExhaustive<8, 0>();
}

TEST(PositDecoded, ExhaustivePosit8es2)
{
    sweepExhaustive<8, 2>();
}

TEST(PositDecoded, ExhaustivePosit10es2)
{
    sweepExhaustive<10, 2>();
}

TEST(PositDecoded, RandomPosit64)
{
    sweepRandom<64, 0>(0x64000);
    sweepRandom<64, 2>(0x64002);
    sweepRandom<64, 9>(0x64009);
    sweepRandom<64, 12>(0x64012);
    sweepRandom<64, 18>(0x64018);
    sweepRandom<64, 24>(0x64024);
}

TEST(PositDecoded, RandomPosit32es2)
{
    sweepRandom<32, 2>(0x32002);
}

/**
 * Forward and backward likelihoods of one posit format: the kernels,
 * and the registry's format under each dataflow, against the
 * reference kernels.
 */
template <int N, int ES>
void
checkKernels(const std::string &format_id,
             const std::vector<hmm::Model> &models,
             const std::vector<std::vector<int>> &sequences)
{
    using P = Posit<N, ES>;
    using R = RefPosit<N, ES>;
    const engine::FormatOps *ops =
        engine::FormatRegistry::instance().find(format_id);
    ASSERT_NE(ops, nullptr) << format_id;
    const struct
    {
        engine::Dataflow dataflow;
        Reduction reduction;
    } flows[] = {{engine::Dataflow::Software, Reduction::Sequential},
                 {engine::Dataflow::SoftwareCompensated,
                  Reduction::Compensated},
                 {engine::Dataflow::Accelerator, Reduction::Tree}};
    for (size_t m = 0; m < models.size(); ++m) {
        const hmm::Model &model = models[m];
        const std::span<const int> obs(sequences[m]);
        for (const auto &flow : flows) {
            const P ref_f =
                refForward<R>(model, obs, flow.reduction).posit();
            const P ref_b =
                refBackward<R>(model, obs, flow.reduction).posit();
            const std::string where =
                format_id + " model " + std::to_string(m) +
                " reduction " +
                std::to_string(static_cast<int>(flow.reduction));
            EXPECT_EQ(hmm::forward<P>(model, obs, flow.reduction)
                          .likelihood.bits(),
                      ref_f.bits())
                << "forward " << where;
            EXPECT_EQ(hmm::backward<P>(model, obs, flow.reduction)
                          .likelihood.bits(),
                      ref_b.bits())
                << "backward " << where;
            const engine::Dataflow flow_id = flow.dataflow;
            EXPECT_TRUE(ops->hmmForward(model, obs, flow_id).value ==
                        ref_f.toBigFloat())
                << "registry forward " << where;
            EXPECT_TRUE(ops->hmmBackward(model, obs, flow_id).value ==
                        ref_b.toBigFloat())
                << "registry backward " << where;
        }
    }
}

TEST(PositDecoded, KernelsMatchReferenceForEveryPositFormat)
{
    // The phylogenetics model of the hmm-forward workload, a shorter
    // faster-decaying one that drives alpha to minpos, and a
    // Dirichlet model.
    stats::Rng rng(0xDEC0DED);
    const size_t length = prop::diffCases() >= 10000 ? 400 : 80;
    std::vector<hmm::Model> models;
    std::vector<std::vector<int>> sequences;
    hmm::PhyloConfig phylo;
    models.push_back(hmm::makePhyloModel(rng, phylo));
    phylo.decay_bits_per_site = 400.0;
    models.push_back(hmm::makePhyloModel(rng, phylo));
    models.push_back(hmm::makeDirichletModel(rng, 5, 7));
    for (const hmm::Model &model : models)
        sequences.push_back(
            hmm::sampleObservations(rng, model, length));

    checkKernels<64, 9>("posit64_9", models, sequences);
    checkKernels<64, 12>("posit64_12", models, sequences);
    checkKernels<64, 18>("posit64_18", models, sequences);
    checkKernels<32, 2>("posit32_2", models, sequences);

    // Every registered posit format is covered above.
    int posit_formats = 0;
    for (const engine::FormatOps *ops :
         engine::FormatRegistry::instance().all())
        posit_formats += ops->name().rfind("posit(", 0) == 0 ? 1 : 0;
    EXPECT_EQ(posit_formats, 4);
}

} // namespace
