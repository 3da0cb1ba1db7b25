/**
 * @file
 * The forward algorithm in every number system under study.
 *
 * forward<T>() is Listing 1 of the paper as a template over the
 * scalar type: binary64, Posit<N,ES>, BigFloat, ScaledDD (the
 * oracle), and LogDouble all run the identical kernel. For LogDouble
 * the operators already implement log-space semantics (binary LSE
 * chains), which is what straightforward log-space software does;
 * forwardLogNary() is the Listing-3 variant that uses the n-ary LSE
 * of Equation (3), matching the paper's accelerator dataflow.
 * The kernels compute in WorkOf<T> (core/real_traits.hh): posits stay
 * decoded between operations and are encoded once, for the result.
 *
 * The Reduction policy selects how the innermost accumulation (line 8
 * of Listing 1) is ordered: Sequential matches a software loop, Tree
 * matches the accelerator's parallel reduction tree.
 */

#ifndef PSTAT_HMM_FORWARD_HH
#define PSTAT_HMM_FORWARD_HH

#include <cmath>
#include <span>
#include <vector>

#include "core/compensated.hh"
#include "core/dd.hh"
#include "core/logspace.hh"
#include "core/logspace32.hh"
#include "core/real_traits.hh"
#include "hmm/model.hh"

namespace pstat::hmm
{

/** Innermost-loop accumulation order. */
enum class Reduction
{
    Sequential,  //!< left-to-right software loop
    Tree,        //!< pairwise reduction tree (accelerator dataflow)
    /**
     * Left-to-right loop with Neumaier compensation — the summation
     * policy that keeps the reduced-precision tier usable on long
     * chains. Formats without subtraction (the log-domain scalars)
     * fall back to plain Sequential.
     */
    Compensated
};

/** Result of a forward run in scalar type T. */
template <typename T>
struct ForwardOutcome
{
    T likelihood = RealTraits<T>::zero();
    /**
     * First outer iteration at which every alpha state was zero
     * (total underflow), or -1 if that never happened.
     */
    int first_underflow_step = -1;
};

/**
 * Pairwise tree reduction over a scratch buffer. The buffer's
 * contents are clobbered (each level writes partial sums in place)
 * but its extent is never changed, so callers can reuse the same
 * buffer across calls without resizing; they only need to refill the
 * values.
 */
template <typename T>
T
reduceTree(std::span<T> buf)
{
    if (buf.empty())
        return RealTraits<T>::zero();
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

/** Convenience overload: reduce a vector's contents as scratch. */
template <typename T>
T
reduceTree(std::vector<T> &buf)
{
    return reduceTree(std::span<T>(buf));
}

/**
 * Reduce a scratch buffer under a Reduction policy. Tree clobbers the
 * buffer (pairwise in place); Sequential/Compensated only read it.
 * Compensated falls back to Sequential for formats without
 * subtraction (the log-domain scalars).
 */
template <typename T>
T
reduceWith(std::span<T> terms, Reduction reduction)
{
    if (reduction == Reduction::Tree)
        return reduceTree(terms);
    if (reduction == Reduction::Compensated) {
        if constexpr (Compensable<T>) {
            NeumaierSum<T> acc;
            for (const T &v : terms)
                acc.add(v);
            return acc.value();
        }
    }
    T sum = RealTraits<T>::zero();
    for (const T &v : terms)
        sum = sum + v;
    return sum;
}

/**
 * A model table (A, B or pi) as format T rounds it, converted once
 * into the scalar the kernels compute in (WorkOf<T>), as an
 * accelerator would at load time.
 */
template <typename T>
std::vector<WorkOf<T>>
loadEntries(std::span<const double> values)
{
    std::vector<WorkOf<T>> out(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
        out[i] =
            WorkScalar<T>::load(RealTraits<T>::fromDouble(values[i]));
    }
    return out;
}

/**
 * Listing 1: iteratively multiply-accumulate alpha states and return
 * the total likelihood P(O | lambda). Each state's path sum and the
 * final sum follow the Reduction policy.
 */
template <typename T>
ForwardOutcome<T>
forward(const Model &model, std::span<const int> obs,
        Reduction reduction = Reduction::Sequential)
{
    using W = WorkOf<T>;
    const int h = model.num_states;
    ForwardOutcome<T> out;
    if (obs.empty())
        return out;

    const std::vector<W> a = loadEntries<T>(model.a);
    const std::vector<W> b = loadEntries<T>(model.b);
    const std::vector<W> pi = loadEntries<T>(model.pi);

    std::vector<W> alpha(h);
    std::vector<W> alpha_prev(h);
    std::vector<W> terms(h);
    for (int q = 0; q < h; ++q) {
        alpha_prev[q] =
            pi[q] *
            b[static_cast<size_t>(q) * model.num_symbols + obs[0]];
    }

    for (size_t t = 1; t < obs.size(); ++t) {
        const int ot = obs[t];
        for (int q = 0; q < h; ++q) {
            for (int p = 0; p < h; ++p) {
                terms[p] = alpha_prev[p] *
                           a[static_cast<size_t>(p) * h + q];
            }
            alpha[q] =
                reduceWith(std::span<W>(terms), reduction) *
                b[static_cast<size_t>(q) * model.num_symbols + ot];
        }
        std::swap(alpha, alpha_prev);

        if (out.first_underflow_step < 0) {
            bool all_zero = true;
            for (int q = 0; q < h; ++q)
                all_zero =
                    all_zero && RealTraits<W>::isZero(alpha_prev[q]);
            if (all_zero)
                out.first_underflow_step = static_cast<int>(t);
        }
    }

    out.likelihood = WorkScalar<T>::store(
        reduceWith(std::span<W>(alpha_prev), reduction));
    return out;
}

/**
 * Listing 3: the forward algorithm in log space with the n-ary LSE
 * of Equation (3), the exact dataflow of the paper's log-based
 * accelerator PE (max tree, exponentials, adder tree, single log).
 */
ForwardOutcome<LogDouble> forwardLogNary(const Model &model,
                                         std::span<const int> obs);

/**
 * Listing 3 at the reduced-precision tier: the same n-ary-LSE
 * dataflow with every log value, exponential, and adder-tree
 * intermediate held in binary32 — the accelerator PE built from
 * float function units.
 */
ForwardOutcome<LogFloat> forwardLogNary32(const Model &model,
                                          std::span<const int> obs);

/**
 * The classic rescaling baseline from the related work (Section
 * VII): binary64 with per-step normalization of alpha by its sum and
 * an accumulated log-likelihood. Returns log2 of the likelihood.
 */
struct RescaledForwardResult
{
    double log2_likelihood;
};
RescaledForwardResult forwardRescaled(const Model &model,
                                      std::span<const int> obs);

/**
 * Log-magnitude budget of the forward recursion on one sequence: an
 * upper bound on |ln x| over every nonzero intermediate (alpha
 * states, path products, and their partial sums). Every nonzero
 * intermediate is a sum of path products whose factors are nonzero
 * model entries — one emission per step, one transition per hop,
 * one prior — so its |ln| is bounded by the sum of the worst
 * nonzero-factor magnitudes, plus ln(H+1) slack per step for the
 * H-way sums. Used by the adaptive escalation bounds
 * (engine/escalate.hh) to certify log-domain forward evaluations.
 */
double sequenceLogBudget(const Model &model, std::span<const int> obs);

/**
 * Oracle forward run (ScaledDD scalar, ~31 significant digits with
 * unbounded exponent). Optionally records the base-2 exponent of the
 * largest alpha state after every outer iteration (Figure 1).
 */
struct OracleForwardResult
{
    ScaledDD likelihood;
    std::vector<double> alpha_max_log2; //!< per-step, if requested
};
OracleForwardResult forwardOracle(const Model &model,
                                  std::span<const int> obs,
                                  bool track_exponents = false);

} // namespace pstat::hmm

#endif // PSTAT_HMM_FORWARD_HH
