/**
 * @file
 * The Listing-2 p-value DP over one structure-of-arrays tile,
 * templated over a simd.hh vector wrapper. Included by the baseline
 * and the per-ISA translation units (pbd_simd.cc, pbd_simd_avx2.cc);
 * not part of the public API — use pbd::pvalueBatchSimd.
 *
 * One tile is Vec::width columns advancing in lockstep: DP row k of
 * every lane is stored contiguously (dp[k * W + c] is lane c's
 * Pr_n(X = k)), so each step's recurrence
 *     pr[k] = pr_prev[k] * q + pr_prev[k - 1] * p
 * is two vector loads, two multiplies, and an add across all lanes.
 *
 * Per-lane bit-identity with detail::pvalueImpl (the scalar oracle)
 * holds by construction, because every divergence between lanes is
 * expressed through values that make the extra vector operations
 * bitwise neutral for the finite non-negative DP state that [0, 1]
 * probabilities (the dataset contract) produce:
 *
 *  - lanes shorter than the tile's longest column run padded steps
 *    with p = 0, q = 1: rows pass through unchanged (x*1 = x,
 *    x*0 = +0, x + +0 = x for x >= +0) and the tail term is +0;
 *  - the tail accumulation P(X >= K) += pr_prev[K-1] * p is gated
 *    per lane by a 0.0/1.0 flag factor: before step K the term is
 *    multiplied by 0.0 into +0, and folding +0 into either
 *    accumulator policy (plain or Neumaier) is a bitwise no-op —
 *    for Neumaier because t = sum + 0 = sum, the dominance test
 *    |sum| < |0| is false, and the error term (sum - t) + 0 is +0
 *    (the compensation value can be negative but never -0, since
 *    IEEE round-to-nearest only produces -0 from sums of two -0s).
 *    Steps before the tile's smallest K skip the accumulation
 *    outright (no lane can fire — the scalar guard's image), and a
 *    tile whose lanes share one K drops the flag and the gather:
 *    the tail row is a single contiguous vector load, and x*1 = x
 *    makes the flag multiply it replaces bitwise invisible;
 *  - rows above a lane's own K-1 (up to the tile's kmax) are genuine
 *    PMF extensions — finite, non-negative, and never read by that
 *    lane's tail gather.
 *
 * Everything else is the scalar kernel's operation sequence verbatim,
 * in the same order, with -ffp-contract=off keeping multiplies and
 * adds unfused.
 */

#ifndef PSTAT_PBD_PBD_SIMD_TILE_HH
#define PSTAT_PBD_PBD_SIMD_TILE_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/real_traits.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"

namespace pstat::pbd::detail
{

/**
 * Allocator for the tile scratch: storage starts on a cache line.
 * Every tile access is one W * sizeof(T)-byte vector (32 bytes on
 * AVX2) at a multiple of that width from the buffer start, so a
 * 64-byte aligned buffer never splits one across two lines. malloc
 * promises only 16 bytes: an AVX2 buffer 16 bytes off splits every
 * other access (binary64 tiles about 13% slower on an Emerald Rapids
 * Xeon), and which offset a lane's buffer got depended on the heap's
 * history, so tile throughput changed from one process to the next.
 */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;
    static constexpr std::align_val_t alignment{64};

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), alignment));
    }

    void
    deallocate(T *p, size_t) noexcept
    {
        ::operator delete(p, alignment);
    }

    friend bool
    operator==(const CacheLineAllocator &, const CacheLineAllocator &)
    {
        return true;
    }
};

/**
 * Per-thread tile scratch, reused across tiles: a realistic calling
 * batch is thousands of tiny-K tiles, and a fresh value-initialized
 * buffer pair per tile (two mallocs plus a memset the transpose
 * immediately overwrites) costs more than the tile's whole DP.
 * Thread-local keeps the engine's worker lanes independent.
 */
template <typename T>
struct TileScratch
{
    using Buffer = std::vector<T, CacheLineAllocator<T>>;
    Buffer pq; //!< transposed p/q; contents always overwritten
    Buffer dp; //!< DP rows; re-zeroed per tile (rows start 0)

    static TileScratch &
    get()
    {
        thread_local TileScratch scratch;
        return scratch;
    }
};

/** One SoA tile of Vec::width columns; out gets each lane's p-value. */
template <typename Vec, bool kCompensated>
void
pvalueTileImpl(const ColumnView *cols, typename Vec::Scalar *out)
{
    using T = typename Vec::Scalar;
    using RT = pstat::RealTraits<T>;
    constexpr int W = Vec::width;

    size_t kcap[W];
    size_t kmax = 1;
    size_t kmin = 0; // first step any lane's tail term can fire
    size_t nmax = 0;
    bool kequal = true;
    for (int c = 0; c < W; ++c) {
        // k <= 0 lanes (P(X >= k) = 1 by definition) ride along
        // inertly with kcap 1 and a never-raised tail flag; their
        // slot is overwritten with one() at the end.
        kcap[c] = cols[c].k > 0 ? static_cast<size_t>(cols[c].k) : 1;
        if (kcap[c] > kmax)
            kmax = kcap[c];
        if (kcap[c] < kmin || kmin == 0)
            kmin = kcap[c];
        kequal = kequal && kcap[c] == kcap[0];
        if (cols[c].success_probs.size() > nmax)
            nmax = cols[c].success_probs.size();
    }

    // Pre-transposed SoA trial probabilities: pt/qt[(n-1)*W + c] are
    // lane c's p_n and 1 - p_n, converted exactly as the scalar
    // kernel converts them. One sequential pass here makes the hot
    // loop below pure vector code (two unit-stride loads per step
    // instead of a W-lane gather with branches); the buffers are
    // streamed once, so they cost bandwidth, not cache residency.
    TileScratch<T> &scratch = TileScratch<T>::get();
    if (scratch.pq.size() < 2 * nmax * W)
        scratch.pq.resize(2 * nmax * W);
    T *pt = scratch.pq.data();
    T *qt = scratch.pq.data() + nmax * W;
    for (int c = 0; c < W; ++c) {
        const auto &probs = cols[c].success_probs;
        const size_t len = probs.size();
        for (size_t n = 0; n < len; ++n) {
            pt[n * W + c] = RT::fromDouble(probs[n]);
            qt[n * W + c] = RT::fromDouble(1.0 - probs[n]);
        }
        for (size_t n = len; n < nmax; ++n) {
            // Padded steps beyond a lane's own N: p = 0, q = 1 pass
            // rows through unchanged and zero the tail term.
            pt[n * W + c] = RT::zero();
            qt[n * W + c] = RT::one();
        }
    }

    // Double-buffered SoA DP state, rows 0..kmax-1 of every lane.
    // Both halves must start zero: row k of pr_prev is first READ at
    // step k (as Pr_{k-1}(X = k) = 0) one step before it is first
    // written.
    scratch.dp.assign(2 * kmax * W, RT::zero());
    T *pr_prev = scratch.dp.data();
    T *pr = scratch.dp.data() + kmax * W;
    for (int c = 0; c < W; ++c)
        pr_prev[c] = RT::one(); // row 0: Pr_0(X = 0) = 1

    Vec sum = Vec::broadcastZero();
    Vec comp = Vec::broadcastZero();

    // pval.add(term): the accumulator policies lane-wise. Folding a
    // +0 term is a bitwise no-op under either policy (see the file
    // comment), which is what lets shorter lanes ride along.
    const auto accumulate = [&sum, &comp](const Vec &term) {
        if constexpr (kCompensated) {
            // NeumaierSum<T>::add, lane-wise: the same dominance
            // branch expressed as a compare + two selects.
            const Vec t = sum + term;
            const auto dominated =
                Vec::lessThan(sum.abs(), term.abs());
            const Vec big = Vec::select(dominated, term, sum);
            const Vec small = Vec::select(dominated, sum, term);
            comp = comp + ((big - t) + small);
            sum = t;
        } else {
            sum = sum + term;
        }
    };

    alignas(64) T tbuf[W];
    alignas(64) T fbuf[W];
    for (int c = 0; c < W; ++c)
        fbuf[c] = RT::zero();

    for (size_t n = 1; n <= nmax; ++n) {
        const Vec p = Vec::load(pt + (n - 1) * W);
        const Vec q = Vec::load(qt + (n - 1) * W);

        // pval.add(pr_prev[kcap - 1] * p). Before step kmin no lane
        // can fire, exactly as the scalar kernel's n >= kcap guard —
        // skipping the add entirely is its bit-identical image. When
        // every lane shares one kcap the tail row is a contiguous
        // vector and the 0/1 flag factor disappears (k <= 0 lanes
        // may then accumulate garbage tails, but their slot is
        // overwritten with one() below); ragged-K tiles gather the
        // per-lane tail row and gate it with the flag.
        if (n >= kmin) {
            if (kequal) {
                accumulate(Vec::load(pr_prev + (kmin - 1) * W) * p);
            } else {
                for (int c = 0; c < W; ++c) {
                    if (cols[c].k > 0 && n == kcap[c])
                        fbuf[c] = RT::one(); // tail term starts
                    tbuf[c] = pr_prev[(kcap[c] - 1) * W + c];
                }
                accumulate((Vec::load(tbuf) * p) * Vec::load(fbuf));
            }
        }

        const size_t hi = n < kmax - 1 ? n : kmax - 1;
        for (size_t k = hi; k >= 1; --k) {
            const Vec row = Vec::load(pr_prev + k * W) * q +
                            Vec::load(pr_prev + (k - 1) * W) * p;
            row.store(pr + k * W);
        }
        (Vec::load(pr_prev) * q).store(pr);
        std::swap(pr, pr_prev);
    }

    Vec total = sum;
    if constexpr (kCompensated)
        total = sum + comp; // NeumaierSum::value()
    total.store(out);
    for (int c = 0; c < W; ++c) {
        if (cols[c].k <= 0)
            out[c] = RT::one();
    }
}

/** Runtime-policy front end over the two accumulator instantiations. */
template <typename Vec>
void
pvalueTileRun(const ColumnView *cols, typename Vec::Scalar *out,
              bool compensated)
{
    if (compensated)
        pvalueTileImpl<Vec, true>(cols, out);
    else
        pvalueTileImpl<Vec, false>(cols, out);
}

/**
 * The second vector form: ONE column with the DP rows vectorized.
 *
 * The SoA tile keeps a 2 * kmax * W working set, which for deep-tail
 * columns (K in the hundreds or thousands) spills the DP state out of
 * L1 and hands the win straight back; this kernel instead walks
 * pvalueImpl's own 2 * K buffers and vectorizes the row update
 *     pr[k] = pr_prev[k] * q + pr_prev[k - 1] * p
 * across W consecutive rows with p and q broadcast. The rows of one
 * step are element-wise independent (they read only pr_prev and write
 * only pr), each output element is the exact scalar expression on the
 * exact scalar inputs, and the tail accumulation plus both
 * accumulator policies stay scalar code shared with pvalueImpl — so
 * bit-identity holds with no masking argument at all. Leading rows
 * hi, hi-1, ... that do not fill a vector run scalar.
 *
 * The batch dispatcher sends columns here when their K would blow the
 * tile's L1 budget, and also mops up sub-tile remainders with it.
 */
template <typename Vec, bool kCompensated>
typename Vec::Scalar
pvalueColumnRowsImpl(const ColumnView &column)
{
    using T = typename Vec::Scalar;
    using RT = pstat::RealTraits<T>;
    constexpr size_t W = Vec::width;

    if (column.k <= 0)
        return RT::one();
    const auto kcap = static_cast<size_t>(column.k);

    std::vector<T> pr(kcap, RT::zero());
    std::vector<T> pr_prev(kcap, RT::zero());
    pr_prev[0] = RT::one();
    using Accumulator = std::conditional_t<kCompensated,
                                           pstat::NeumaierSum<T>,
                                           PlainSum<T>>;
    Accumulator pval;

    const std::span<const double> probs = column.success_probs;
    for (size_t n = 1; n <= probs.size(); ++n) {
        const double pn = probs[n - 1];
        const T p = RT::fromDouble(pn);
        const T q = RT::fromDouble(1.0 - pn);

        if (n >= kcap)
            pval.add(pr_prev[kcap - 1] * p);

        const size_t hi = n < kcap - 1 ? n : kcap - 1;
        const Vec pv = Vec::broadcast(p);
        const Vec qv = Vec::broadcast(q);
        size_t k = hi;
        for (; k >= W; k -= W) {
            const Vec row =
                Vec::load(pr_prev.data() + (k - W + 1)) * qv +
                Vec::load(pr_prev.data() + (k - W)) * pv;
            row.store(pr.data() + (k - W + 1));
        }
        for (; k >= 1; --k)
            pr[k] = pr_prev[k] * q + pr_prev[k - 1] * p;
        pr[0] = pr_prev[0] * q;
        std::swap(pr, pr_prev);
    }
    return pval.value();
}

/** Runtime-policy front end for the row-vectorized column kernel. */
template <typename Vec>
typename Vec::Scalar
pvalueColumnRowsRun(const ColumnView &column, bool compensated)
{
    if (compensated)
        return pvalueColumnRowsImpl<Vec, true>(column);
    return pvalueColumnRowsImpl<Vec, false>(column);
}

} // namespace pstat::pbd::detail

#endif // PSTAT_PBD_PBD_SIMD_TILE_HH
