/**
 * @file
 * Google-benchmark microbenchmarks of the software scalar operations
 * underlying every experiment. Context for Section IV-B's remark
 * that "software-emulated posit is too slow for practical use": the
 * gap between hardware-native binary64 and software posit/LSE is
 * visible directly in these throughput numbers. BM_Crc32 tracks the
 * checksum that validates every shard and serve frame, and
 * BM_CertifiedBounds the analytic tier of the adaptive ladder.
 */

#include <type_traits>
#include <vector>

#include <benchmark/benchmark.h>

#include "bigfloat/bigfloat.hh"
#include "core/bfloat16.hh"
#include "core/dd.hh"
#include "core/logspace.hh"
#include "core/posit.hh"
#include "core/simd.hh"
#include "hmm/forward.hh"
#include "hmm/generator.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/pbd_simd.hh"
#include "pbd/screen.hh"
#include "stats/rng.hh"

namespace
{

using namespace pstat;

constexpr int pool_size = 1024;

template <typename T, typename Make>
std::vector<T>
makePool(Make make)
{
    stats::Rng rng(123);
    std::vector<T> pool;
    pool.reserve(pool_size);
    for (int i = 0; i < pool_size; ++i)
        pool.push_back(make(rng.uniform(1e-6, 1.0)));
    return pool;
}

void
BM_Binary64Add(benchmark::State &state)
{
    auto pool = makePool<double>([](double v) { return v; });
    size_t i = 0;
    double acc = 0.0;
    for (auto _ : state) {
        acc += pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_Binary64Add);

void
BM_Binary64Mul(benchmark::State &state)
{
    auto pool = makePool<double>([](double v) { return v + 0.5; });
    size_t i = 0;
    double acc = 1.0;
    for (auto _ : state) {
        acc *= pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_Binary64Mul);

void
BM_BFloat16Add(benchmark::State &state)
{
    auto pool = makePool<BFloat16>(
        [](double v) { return BFloat16::fromDouble(v); });
    size_t i = 0;
    BFloat16 acc = BFloat16::zero();
    for (auto _ : state) {
        acc = acc + pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_BFloat16Add);

void
BM_BFloat16Mul(benchmark::State &state)
{
    auto pool = makePool<BFloat16>(
        [](double v) { return BFloat16::fromDouble(v + 0.5); });
    size_t i = 0;
    BFloat16 acc = BFloat16::one();
    for (auto _ : state) {
        acc = acc * pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_BFloat16Mul);

void
BM_LogSpaceAddLse(benchmark::State &state)
{
    auto pool = makePool<LogDouble>(
        [](double v) { return LogDouble::fromDouble(v); });
    size_t i = 0;
    LogDouble acc = LogDouble::zero();
    for (auto _ : state) {
        acc = acc + pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_LogSpaceAddLse);

void
BM_LogSpaceMul(benchmark::State &state)
{
    auto pool = makePool<LogDouble>(
        [](double v) { return LogDouble::fromDouble(v); });
    size_t i = 0;
    LogDouble acc = LogDouble::one();
    for (auto _ : state) {
        acc = acc * pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_LogSpaceMul);

template <int ES>
void
BM_PositAdd(benchmark::State &state)
{
    using P = Posit<64, ES>;
    auto pool =
        makePool<P>([](double v) { return P::fromDouble(v); });
    size_t i = 0;
    P acc = P::zero();
    for (auto _ : state) {
        acc = acc + pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_PositAdd<9>);
BENCHMARK(BM_PositAdd<12>);
BENCHMARK(BM_PositAdd<18>);

template <int ES>
void
BM_PositMul(benchmark::State &state)
{
    using P = Posit<64, ES>;
    auto pool =
        makePool<P>([](double v) { return P::fromDouble(v + 0.5); });
    size_t i = 0;
    P acc = P::one();
    for (auto _ : state) {
        acc = acc * pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_PositMul<9>);
BENCHMARK(BM_PositMul<18>);

// The same chains on decoded posits, the form the HMM kernels compute
// in: no unpack or pack around each operation.
template <int ES>
void
BM_PositDecodedAdd(benchmark::State &state)
{
    using P = Posit<64, ES>;
    using D = typename P::Decoded;
    auto pool =
        makePool<D>([](double v) { return D(P::fromDouble(v)); });
    size_t i = 0;
    D acc = D::zero();
    for (auto _ : state) {
        acc = acc + pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_PositDecodedAdd<18>);

template <int ES>
void
BM_PositDecodedMul(benchmark::State &state)
{
    using P = Posit<64, ES>;
    using D = typename P::Decoded;
    auto pool = makePool<D>(
        [](double v) { return D(P::fromDouble(v + 0.5)); });
    size_t i = 0;
    D acc = D(P::one());
    for (auto _ : state) {
        acc = acc * pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_PositDecodedMul<18>);

/**
 * One Forward sequence per iteration, H = 13 and T = 1500 as in
 * perfbench's hmm-forward, in the Accelerator dataflow that workload
 * runs: the tree reduction for posits, the n-ary log-sum-exp of
 * Listing 3 for LogDouble.
 */
template <typename T>
void
BM_HmmForward(benchmark::State &state)
{
    stats::Rng rng(9001);
    const hmm::Model model =
        hmm::makePhyloModel(rng, hmm::PhyloConfig{});
    const std::vector<int> obs =
        hmm::sampleUniformObservations(rng, model.num_symbols, 1500);
    for (auto _ : state) {
        if constexpr (std::is_same_v<T, LogDouble>) {
            benchmark::DoNotOptimize(
                hmm::forwardLogNary(model, obs).likelihood);
        } else {
            benchmark::DoNotOptimize(
                hmm::forward<T>(model, obs, hmm::Reduction::Tree)
                    .likelihood);
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HmmForward<Posit64es18>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HmmForward<LogDouble>)->Unit(benchmark::kMicrosecond);

void
BM_ScaledDdMul(benchmark::State &state)
{
    auto pool =
        makePool<ScaledDD>([](double v) { return ScaledDD(v); });
    size_t i = 0;
    ScaledDD acc = ScaledDD::one();
    for (auto _ : state) {
        acc = acc * pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ScaledDdMul);

void
BM_BigFloatMul(benchmark::State &state)
{
    auto pool = makePool<BigFloat>(
        [](double v) { return BigFloat::fromDouble(v + 0.5); });
    size_t i = 0;
    BigFloat acc = BigFloat::one();
    for (auto _ : state) {
        acc = acc * pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_BigFloatMul);

void
BM_BigFloatLn(benchmark::State &state)
{
    auto pool = makePool<BigFloat>(
        [](double v) { return BigFloat::fromDouble(v + 1e-6); });
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(BigFloat::ln(pool[i % pool_size]));
        ++i;
    }
}
BENCHMARK(BM_BigFloatLn);

// ---------------------------------------------------------------------------
// SIMD batch kernels vs their scalar oracles (fig15's design point,
// here in Google-benchmark form for quick interactive comparison).
// ---------------------------------------------------------------------------

/** The fig15 allele-fraction-threshold scan at micro-bench size. */
const pbd::ColumnDataset &
scanDataset()
{
    static const pbd::ColumnDataset ds = [] {
        pbd::DatasetConfig config;
        config.num_columns = 512;
        config.median_coverage = 120.0;
        config.coverage_sigma = 0.4;
        config.seed = 1501;
        return pbd::makeScanDataset(config, 0.05, "micro_af_scan");
    }();
    return ds;
}

/**
 * The scalar Listing-2 kernel over the whole scan. bfloat16 has no
 * hardware lanes, so its batch is the per-column pvalue<T> loop that
 * Isa::Scalar runs for the hardware formats.
 */
template <typename T>
void
BM_PbdBatchScalar(benchmark::State &state)
{
    const auto views = pbd::viewsOf(scanDataset().columns);
    std::vector<T> out(views.size());
    for (auto _ : state) {
        if constexpr (std::is_same_v<T, BFloat16>) {
            for (size_t i = 0; i < views.size(); ++i)
                out[i] = pbd::pvalue<T>(views[i].success_probs,
                                        views[i].k);
        } else {
            pbd::pvalueBatchSimd<T>(views, out, simd::Isa::Scalar);
        }
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(views.size()));
}
BENCHMARK(BM_PbdBatchScalar<double>);
BENCHMARK(BM_PbdBatchScalar<float>);
BENCHMARK(BM_PbdBatchScalar<BFloat16>);

template <typename T>
void
BM_PbdBatchSimd(benchmark::State &state)
{
    const auto views = pbd::viewsOf(scanDataset().columns);
    std::vector<T> out(views.size());
    const simd::Isa isa = simd::activeIsa();
    for (auto _ : state) {
        pbd::pvalueBatchSimd<T>(views, out, isa);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(views.size()));
    state.SetLabel(simd::isaName(isa));
}
BENCHMARK(BM_PbdBatchSimd<double>);
BENCHMARK(BM_PbdBatchSimd<float>);

void
BM_LogSumExpNaryScalar(benchmark::State &state)
{
    auto pool = makePool<double>(
        [](double v) { return std::log(v); });
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            logSumExp(std::span<const double>(pool)));
    }
    state.SetItemsProcessed(state.iterations() * pool_size);
}
BENCHMARK(BM_LogSumExpNaryScalar);

void
BM_LogSumExpStriped(benchmark::State &state)
{
    auto pool = makePool<double>(
        [](double v) { return std::log(v); });
    const simd::Isa isa = simd::activeIsa();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simd::logSumExpSimd(std::span<const double>(pool), isa));
    }
    state.SetItemsProcessed(state.iterations() * pool_size);
    state.SetLabel(simd::isaName(isa));
}
BENCHMARK(BM_LogSumExpStriped);

// ---------------------------------------------------------------------------
// The analytic tier of the adaptive ladder: pbd::certifiedBoundsLog2
// over a fig16-style mix at mean Phred 20 (six deep datasets with
// their variant columns plus a borderline slice near 2^-200). One
// iteration bounds one column, so the reported time is the mean
// cost per column over the mix.
// ---------------------------------------------------------------------------

const std::vector<pbd::Column> &
deepColumnMix()
{
    static const std::vector<pbd::Column> mix = [] {
        std::vector<pbd::Column> out;
        for (int d = 0; d < 6; ++d) {
            pbd::DatasetConfig config;
            config.num_columns = 100;
            config.median_coverage = 1800.0 + 250.0 * d;
            config.coverage_sigma = 0.40;
            config.mean_phred = 20.0 + 1.0 * (d % 3);
            config.phred_sigma = 3.0;
            config.variant_fraction = 0.04;
            config.seed = 1601ULL + 97ULL * d;
            auto ds = pbd::makeDataset(config, "micro_bounds");
            stats::Rng rng(1601ULL * 31ULL + d);
            for (int i = 0; i < config.num_columns / 5; ++i)
                ds.columns.push_back(pbd::makeColumnWithTarget(
                    rng, rng.uniform(150.0, 260.0)));
            for (auto &column : ds.columns)
                out.push_back(std::move(column));
        }
        return out;
    }();
    return mix;
}

void
BM_CertifiedBounds(benchmark::State &state)
{
    const auto views = pbd::viewsOf(deepColumnMix());
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pbd::certifiedBoundsLog2(views[i]));
        i = i + 1 == views.size() ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CertifiedBounds)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// CRC-32 over the byte ranges the pipeline validates: a serve-small
// request's column payload (1,280 bytes) and one stream-fixed shard
// (3.9 MB).
// ---------------------------------------------------------------------------

void
BM_Crc32(benchmark::State &state)
{
    stats::Rng rng(32);
    std::vector<unsigned char> bytes(static_cast<size_t>(state.range(0)));
    for (unsigned char &b : bytes)
        b = static_cast<unsigned char>(rng.uniform(0.0, 256.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            io::crc32(0, bytes.data(), bytes.size()));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Arg(1280)->Arg(3900000);

} // namespace

BENCHMARK_MAIN();
