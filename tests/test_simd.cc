/**
 * @file
 * Bit-identity tests for the SIMD layer (core/simd.hh and friends).
 *
 * The contract under test: every vector kernel returns results
 * bit-identical to its scalar oracle for binary64 / binary32 on any
 * input, including ragged sizes (n % lane_width != 0, n < width,
 * empty spans) and special-value lanes (-inf / NaN / subnormal).
 * Unsupported ISA requests must fall back to the scalar path, so
 * every test loops over simd::supportedIsas() via the public
 * dispatch — plus the portable ArrayVec backends directly, which
 * exercise the tile logic at AVX2 widths on any host.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/logspace.hh"
#include "core/simd.hh"
#include "engine/format_registry.hh"
#include "hmm/forward.hh"
#include "hmm/forward_simd.hh"
#include "hmm/generator.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/pbd_simd.hh"
#include "pbd/pbd_simd_tile.hh"
#include "stats/rng.hh"

namespace
{

using namespace pstat;

/** Bitwise equality — the contract is bits, not ULPs. */
template <typename T>
bool
bitsEqual(T a, T b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/** The scalar Listing-2 oracle for one column under either policy. */
template <typename T>
T
oracle(const pbd::ColumnView &view, bool compensated)
{
    if (compensated)
        return pbd::pvalueCompensated<T>(view.success_probs, view.k);
    return pbd::pvalue<T>(view.success_probs, view.k);
}

/** The all-ISAs list, including ones this host cannot run. */
const std::vector<simd::Isa> &
allIsas()
{
    static const std::vector<simd::Isa> isas = {
        simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Neon};
    return isas;
}

// ---------------------------------------------------------------------------
// logSumExpSimd
// ---------------------------------------------------------------------------

template <typename T>
void
checkLseAcrossIsas(std::span<const T> lvals, const char *label)
{
    const T scalar = simd::logSumExpSimd(lvals, simd::Isa::Scalar);
    for (simd::Isa isa : allIsas()) {
        const T vec = simd::logSumExpSimd(lvals, isa);
        if (std::isnan(static_cast<double>(scalar))) {
            // NaN payloads are not part of the contract; NaN-ness is.
            EXPECT_TRUE(std::isnan(static_cast<double>(vec)))
                << label << " isa=" << simd::isaName(isa);
        } else {
            EXPECT_TRUE(bitsEqual(vec, scalar))
                << label << " isa=" << simd::isaName(isa)
                << " vec=" << vec << " scalar=" << scalar;
        }
    }
}

template <typename T>
void
runLseRaggedSizes()
{
    stats::Rng rng(42);
    // Sizes straddling every stripe boundary: empty, below one
    // stripe pass, exact multiples, and off-by-one raggedness.
    for (size_t n : {0UL, 1UL, 2UL, 3UL, 4UL, 5UL, 7UL, 8UL, 9UL,
                     15UL, 16UL, 17UL, 31UL, 32UL, 33UL, 100UL,
                     257UL}) {
        std::vector<T> lvals(n);
        for (auto &v : lvals)
            v = static_cast<T>(rng.uniform(-80.0, 0.0));
        checkLseAcrossIsas<T>(lvals, "ragged");
    }
}

TEST(SimdLse, BitIdenticalAcrossIsasOnRaggedSizesF64)
{
    runLseRaggedSizes<double>();
}

TEST(SimdLse, BitIdenticalAcrossIsasOnRaggedSizesF32)
{
    runLseRaggedSizes<float>();
}

template <typename T>
void
runLseSpecialValues()
{
    const T ninf = -std::numeric_limits<T>::infinity();
    const T pinf = std::numeric_limits<T>::infinity();
    const T nan = std::numeric_limits<T>::quiet_NaN();
    const T subn = std::numeric_limits<T>::denorm_min();

    // Empty and all--inf spans are exact zeros: -inf, never NaN.
    {
        std::vector<T> empty;
        for (simd::Isa isa : allIsas()) {
            EXPECT_TRUE(std::isinf(static_cast<double>(
                            simd::logSumExpSimd(
                                std::span<const T>(empty), isa))))
                << simd::isaName(isa);
        }
        std::vector<T> zeros(13, ninf);
        for (simd::Isa isa : allIsas()) {
            const T v = simd::logSumExpSimd(
                std::span<const T>(zeros), isa);
            EXPECT_TRUE(std::isinf(static_cast<double>(v)) && v < 0)
                << simd::isaName(isa);
        }
    }

    // -inf lanes mixed into one tile, in every position class.
    std::vector<std::vector<T>> cases = {
        {ninf, T(-1.5), T(-2.25), T(-0.5), T(-3), T(-4), T(-5),
         T(-6), T(-7)},
        {T(-1.5), T(-2.25), ninf, T(-0.5), ninf, T(-4), T(-5),
         ninf, T(-7)},
        {T(-700), subn, T(-0.125), ninf, T(-44), subn, T(-1),
         T(-2), T(-3)},
        {subn, subn, subn},
        {T(-1)},
        {ninf, ninf, T(-9.75)},
    };
    for (const auto &lvals : cases)
        checkLseAcrossIsas<T>(lvals, "special");

    // NaN and +inf poison the exponential sum into NaN everywhere.
    std::vector<std::vector<T>> poisoned = {
        {T(-1), nan, T(-2), T(-3), T(-4), T(-5), T(-6), T(-7),
         T(-8)},
        {T(-1), pinf, T(-2), T(-3), T(-4), T(-5), T(-6), T(-7),
         T(-8)},
    };
    for (const auto &lvals : poisoned)
        checkLseAcrossIsas<T>(lvals, "poisoned");
}

TEST(SimdLse, SpecialValueLanesF64) { runLseSpecialValues<double>(); }

TEST(SimdLse, SpecialValueLanesF32) { runLseSpecialValues<float>(); }

// ---------------------------------------------------------------------------
// StreamingLogSumExp -inf edge cases (pinned per the logspace.hh doc)
// ---------------------------------------------------------------------------

TEST(StreamingLse, EmptyAndAllMinusInfReportMinusInf)
{
    StreamingLogSumExp empty;
    EXPECT_TRUE(std::isinf(empty.value()) && empty.value() < 0);

    StreamingLogSumExp zeros;
    for (int i = 0; i < 7; ++i)
        zeros.add(-INFINITY);
    // Never NaN from -inf + log(0): the -inf terms are skipped.
    EXPECT_TRUE(std::isinf(zeros.value()) && zeros.value() < 0);

    const std::vector<double> none;
    EXPECT_EQ(empty.value(), logSumExp(std::span<const double>(none)));
    EXPECT_EQ(empty.value(),
              simd::logSumExpSimd(std::span<const double>(none),
                                  simd::Isa::Scalar));
}

TEST(StreamingLse, LeadingMinusInfLeavesStateUntouched)
{
    const std::vector<double> terms = {-3.5, -0.25, -700.0, -1.0};
    StreamingLogSumExp with, without;
    with.add(-INFINITY);
    for (double t : terms) {
        with.add(t);
        without.add(t);
    }
    EXPECT_TRUE(bitsEqual(with.value(), without.value()));

    // Single finite term: streaming, n-ary, and striped all agree
    // exactly (max + log(1) = max).
    StreamingLogSumExp one;
    one.add(-INFINITY);
    one.add(-2.75);
    const std::vector<double> single = {-2.75};
    EXPECT_TRUE(bitsEqual(one.value(), -2.75));
    EXPECT_TRUE(bitsEqual(
        one.value(), logSumExp(std::span<const double>(single))));
    EXPECT_TRUE(bitsEqual(
        one.value(),
        simd::logSumExpSimd(std::span<const double>(single))));
}

// ---------------------------------------------------------------------------
// pbd batch kernels
// ---------------------------------------------------------------------------

/** A deliberately ragged batch covering every dispatch path. */
std::vector<pbd::Column>
makeRaggedColumns()
{
    stats::Rng rng(7);
    std::vector<pbd::Column> cols;

    // Ragged N and K, including n < lane width and n % width != 0.
    for (int i = 0; i < 37; ++i) {
        pbd::Column col;
        const int n = 5 + (i * 17) % 200;
        col.success_probs.resize(n);
        for (auto &p : col.success_probs)
            p = rng.uniform(1e-6, 0.2);
        col.k = i % (n / 2 + 1);
        cols.push_back(std::move(col));
    }

    // K <= 0 columns: answered upfront by the batch filter.
    for (int k : {0, -3}) {
        pbd::Column col;
        col.success_probs.assign(16, 0.01);
        col.k = k;
        cols.push_back(std::move(col));
    }

    // K > N: the tail can never fire; P(X >= K) underflows to zero.
    {
        pbd::Column col;
        col.success_probs.assign(10, 0.05);
        col.k = 15;
        cols.push_back(std::move(col));
    }

    // Empty spans.
    for (int k : {0, 2}) {
        pbd::Column col;
        col.k = k;
        cols.push_back(std::move(col));
    }

    // Subnormal / extreme probabilities: the DP underflows through
    // subnormals to zero and the bits must still match.
    {
        pbd::Column col;
        col.success_probs = {5e-324, 1e-300, 1.0, 0.0, 1e-160,
                             0.999,  1e-8,   0.5};
        col.k = 3;
        cols.push_back(std::move(col));
    }

    // Deep-tail columns past the 32 KiB L1 tile budget (K > 512):
    // a full lane-width group of them peels off to the row kernel.
    for (int i = 0; i < 9; ++i) {
        pbd::Column col;
        const int n = 1400 + i * 3;
        col.success_probs.resize(n);
        for (auto &p : col.success_probs)
            p = rng.uniform(0.3, 0.7);
        col.k = 600 + i;
        cols.push_back(std::move(col));
    }
    return cols;
}

template <typename T>
void
runPbdBatchAgainstOracle(const std::vector<pbd::Column> &cols)
{
    const std::vector<pbd::ColumnView> views = pbd::viewsOf(cols);
    std::vector<T> out(views.size());
    for (simd::Isa isa : allIsas()) {
        for (bool compensated : {false, true}) {
            if (compensated)
                pbd::pvalueBatchCompensatedSimd<T>(views, out, isa);
            else
                pbd::pvalueBatchSimd<T>(views, out, isa);
            for (size_t i = 0; i < views.size(); ++i) {
                const T want = oracle<T>(views[i], compensated);
                EXPECT_TRUE(bitsEqual(out[i], want))
                    << "isa=" << simd::isaName(isa)
                    << " compensated=" << compensated
                    << " column=" << i << " k=" << views[i].k
                    << " n=" << views[i].coverage()
                    << " simd=" << out[i] << " oracle=" << want;
            }
        }
    }
}

TEST(SimdPbd, BatchBitIdenticalToScalarOracleF64)
{
    runPbdBatchAgainstOracle<double>(makeRaggedColumns());
}

TEST(SimdPbd, BatchBitIdenticalToScalarOracleF32)
{
    runPbdBatchAgainstOracle<float>(makeRaggedColumns());
}

TEST(SimdPbd, BatchesSmallerThanLaneWidth)
{
    // Batches below and not divisible by any lane width still route
    // every column somewhere (remainder loop) and match the oracle.
    const auto all = makeRaggedColumns();
    for (size_t take : {1UL, 3UL, 5UL, 13UL}) {
        std::vector<pbd::Column> cols(all.begin(),
                                      all.begin() + take);
        runPbdBatchAgainstOracle<double>(cols);
        runPbdBatchAgainstOracle<float>(cols);
    }
}

TEST(SimdPbd, TileOrderSortsByKThenNWithNonPositiveKLast)
{
    const std::vector<double> probs(9, 0.01);
    auto view = [&probs](size_t n, int k) {
        return pbd::ColumnView{std::span<const double>(probs.data(), n),
                               k};
    };
    const std::vector<pbd::ColumnView> columns = {
        view(4, 2), view(3, 0),  view(9, 5), view(6, 2),
        view(4, 2), view(2, -1), view(5, 5), view(0, 3),
    };
    // Descending (K, N), equal keys in input order, K <= 0 last in
    // input order.
    const std::vector<uint32_t> want = {2, 6, 7, 3, 0, 4, 1, 5};
    EXPECT_EQ(pbd::tileOrder(columns), want);
    EXPECT_TRUE(pbd::tileOrder({}).empty());
}

TEST(SimdPbd, TileScratchStartsOnACacheLine)
{
    // Tile throughput must not depend on where the heap happened to
    // put a lane's scratch: every growth lands on a cache line, with
    // odd-sized blocks left live in between to vary the heap.
    using Buffer = pbd::detail::TileScratch<double>::Buffer;
    std::vector<std::vector<char>> holes;
    Buffer buffer;
    for (size_t n = 1; n < 20000; n = n * 3 / 2 + 1) {
        holes.emplace_back(n % 40 + 8);
        buffer.resize(n);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % 64, 0U)
            << "n=" << n;
    }
    // The scratch the batch kernel actually ran with.
    const auto columns = makeRaggedColumns();
    const auto views = pbd::viewsOf(columns);
    std::vector<double> out(views.size());
    pbd::pvalueBatchSimd<double>(views, out);
    const auto &scratch = pbd::detail::TileScratch<double>::get();
    for (const Buffer *b : {&scratch.pq, &scratch.dp}) {
        if (!b->empty()) {
            EXPECT_EQ(reinterpret_cast<uintptr_t>(b->data()) % 64, 0U);
        }
    }
}

template <typename T, int W>
void
runPortableTileAgainstOracle()
{
    stats::Rng rng(11);
    // Three tile flavours: distinct K (gather tail), shared K (the
    // contiguous fast path), and a K <= 0 lane mixed in.
    std::vector<std::vector<pbd::Column>> groups;
    {
        std::vector<pbd::Column> group(W);
        for (int c = 0; c < W; ++c) {
            const int n = 20 + c * 7;
            group[c].success_probs.resize(n);
            for (auto &p : group[c].success_probs)
                p = rng.uniform(1e-5, 0.3);
            group[c].k = 2 + 3 * c;
        }
        groups.push_back(std::move(group));
    }
    {
        std::vector<pbd::Column> group(W);
        for (int c = 0; c < W; ++c) {
            const int n = 30 + c;
            group[c].success_probs.resize(n);
            for (auto &p : group[c].success_probs)
                p = rng.uniform(1e-5, 0.3);
            group[c].k = 6; // every lane shares one K
        }
        groups.push_back(std::move(group));
    }
    {
        std::vector<pbd::Column> group(W);
        for (int c = 0; c < W; ++c) {
            const int n = 12 + c * 3;
            group[c].success_probs.resize(n);
            for (auto &p : group[c].success_probs)
                p = rng.uniform(1e-5, 0.3);
            group[c].k = c == 1 ? 0 : 4; // inert lane must yield 1
        }
        groups.push_back(std::move(group));
    }

    for (const auto &group : groups) {
        const std::vector<pbd::ColumnView> views =
            pbd::viewsOf(group);
        for (bool compensated : {false, true}) {
            T out[W];
            pbd::detail::pvalueTilePortable(views.data(), out,
                                            compensated);
            for (int c = 0; c < W; ++c) {
                const T want = oracle<T>(views[c], compensated);
                EXPECT_TRUE(bitsEqual(out[c], want))
                    << "lane=" << c << " k=" << views[c].k
                    << " compensated=" << compensated;
            }
            // The row-vectorized deep-tail kernel on the same lanes.
            for (int c = 0; c < W; ++c) {
                T row_out;
                pbd::detail::pvalueColumnRowsPortable(
                    views[c], &row_out, compensated);
                EXPECT_TRUE(bitsEqual(
                    row_out, oracle<T>(views[c], compensated)))
                    << "lane=" << c;
            }
        }
    }
}

TEST(SimdPbd, PortableTileMatchesOracleF64)
{
    runPortableTileAgainstOracle<double, 4>();
}

TEST(SimdPbd, PortableTileMatchesOracleF32)
{
    runPortableTileAgainstOracle<float, 8>();
}

// ---------------------------------------------------------------------------
// HMM forward
// ---------------------------------------------------------------------------

template <typename T>
void
runForwardAgainstOracle()
{
    stats::Rng rng(23);
    for (int h : {3, 8, 13}) {
        const hmm::Model model = hmm::makeDirichletModel(rng, h, 12);
        const std::vector<int> obs =
            hmm::sampleObservations(rng, model, 160);
        const hmm::ForwardOutcome<T> want = hmm::forward<T>(
            model, obs, hmm::Reduction::Sequential);
        for (simd::Isa isa : allIsas()) {
            const hmm::ForwardOutcome<T> got =
                hmm::forwardSimd<T>(model, obs, isa);
            EXPECT_TRUE(bitsEqual(got.likelihood, want.likelihood))
                << "h=" << h << " isa=" << simd::isaName(isa);
            EXPECT_EQ(got.first_underflow_step,
                      want.first_underflow_step)
                << "h=" << h << " isa=" << simd::isaName(isa);
        }
    }
}

TEST(SimdHmm, ForwardBitIdenticalEveryIsaF64)
{
    runForwardAgainstOracle<double>();
}

TEST(SimdHmm, ForwardBitIdenticalEveryIsaF32)
{
    runForwardAgainstOracle<float>();
}

TEST(SimdHmm, PortableForwardTileMatchesOracle)
{
    stats::Rng rng(31);
    const hmm::Model model = hmm::makeDirichletModel(rng, 13, 16);
    const std::vector<int> obs =
        hmm::sampleObservations(rng, model, 120);

    const auto want64 = hmm::forward<double>(
        model, obs, hmm::Reduction::Sequential);
    const auto got64 = hmm::detail::forwardTilePortableF64(model, obs);
    EXPECT_TRUE(bitsEqual(got64.likelihood, want64.likelihood));
    EXPECT_EQ(got64.first_underflow_step, want64.first_underflow_step);

    const auto want32 = hmm::forward<float>(
        model, obs, hmm::Reduction::Sequential);
    const auto got32 = hmm::detail::forwardTilePortableF32(model, obs);
    EXPECT_TRUE(bitsEqual(got32.likelihood, want32.likelihood));
    EXPECT_EQ(got32.first_underflow_step, want32.first_underflow_step);
}

TEST(SimdHmm, LogNaryIsaInvariant)
{
    stats::Rng rng(37);
    const hmm::Model model = hmm::makeDirichletModel(rng, 13, 16);
    const std::vector<int> obs =
        hmm::sampleObservations(rng, model, 200);

    const auto want64 =
        hmm::forwardLogNarySimd(model, obs, simd::Isa::Scalar);
    const auto want32 =
        hmm::forwardLogNary32Simd(model, obs, simd::Isa::Scalar);
    for (simd::Isa isa : allIsas()) {
        const auto got64 = hmm::forwardLogNarySimd(model, obs, isa);
        EXPECT_TRUE(bitsEqual(got64.likelihood.lnValue(),
                              want64.likelihood.lnValue()))
            << simd::isaName(isa);
        const auto got32 = hmm::forwardLogNary32Simd(model, obs, isa);
        EXPECT_TRUE(bitsEqual(got32.likelihood.lnValue(),
                              want32.likelihood.lnValue()))
            << simd::isaName(isa);
    }
}

// ---------------------------------------------------------------------------
// Engine batch entry: every registered format
// ---------------------------------------------------------------------------

TEST(SimdEngine, PbdPValueBatchMatchesPerColumnEveryFormat)
{
    pbd::DatasetConfig config;
    config.num_columns = 10;
    config.median_coverage = 60.0;
    config.coverage_sigma = 0.4;
    config.seed = 61;
    pbd::ColumnDataset ds = pbd::makeDataset(config, "simd-batch");
    {
        // A K <= 0 column and a deep-ish one, to cross the batch
        // kernel's dispatch boundaries inside the overridden formats.
        pbd::Column inert;
        inert.success_probs.assign(24, 0.02);
        inert.k = 0;
        ds.columns.push_back(std::move(inert));
        pbd::Column empty;
        empty.k = 1;
        ds.columns.push_back(std::move(empty));
    }
    const std::vector<pbd::ColumnView> views =
        pbd::viewsOf(ds.columns);

    const auto &registry = engine::FormatRegistry::instance();
    for (const auto *format : registry.all()) {
        for (engine::SumPolicy policy :
             {engine::SumPolicy::Plain,
              engine::SumPolicy::Compensated}) {
            std::vector<engine::EvalResult> batch(views.size());
            format->pbdPValueBatch(views, policy, batch);
            for (size_t i = 0; i < views.size(); ++i) {
                const engine::EvalResult single = format->pbdPValue(
                    views[i].success_probs, views[i].k, policy);
                EXPECT_TRUE(batch[i].value == single.value)
                    << format->id() << " column " << i;
                EXPECT_EQ(batch[i].invalid, single.invalid)
                    << format->id() << " column " << i;
                EXPECT_EQ(batch[i].underflow, single.underflow)
                    << format->id() << " column " << i;
            }
        }
    }
}

} // namespace
