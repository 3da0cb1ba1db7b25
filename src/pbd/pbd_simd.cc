#include "pbd/pbd_simd.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

#include "core/real_traits.hh"
#include "pbd/pbd.hh"
#include "pbd/pbd_simd_tile.hh"

namespace pstat::pbd
{

namespace
{

/** The scalar oracle for one column under either policy. */
template <typename T>
T
scalarPValue(const ColumnView &column, bool compensated)
{
    if (compensated)
        return pvalueCompensated<T>(column.success_probs, column.k);
    return pvalue<T>(column.success_probs, column.k);
}

/**
 * One ISA's kernels for scalar type T: the SoA tile, the
 * row-vectorized single-column kernel for K beyond the tile's L1
 * budget, the lane count, and that budget expressed as the largest
 * group K the tile may run with (k_tile_cap). The cap keeps the
 * tile's double-buffered 2 * kmax * width DP state inside a 32 KiB
 * L1 slice — past it the tile's loads fall out of L1 and lose to
 * the scalar kernel's compact buffers, so deep-tail columns go
 * through the row kernel instead. The measured AVX2 crossover sits
 * near the resulting K = 512 for both carriers.
 */
template <typename T>
struct TileBackend
{
    void (*tile)(const ColumnView *, T *, bool) = nullptr;
    void (*column)(const ColumnView &, T *, bool) = nullptr;
    int width = 1;
    size_t k_tile_cap = 0;
};

constexpr size_t k_l1_budget_bytes = 32 * 1024;

#if defined(PSTAT_SIMD_HAS_NEON)

void
pvalueTileNeon(const ColumnView *cols, double *out, bool compensated)
{
    detail::pvalueTileRun<simd::NeonDoubleVec>(cols, out, compensated);
}

void
pvalueTileNeon(const ColumnView *cols, float *out, bool compensated)
{
    detail::pvalueTileRun<simd::NeonFloatVec>(cols, out, compensated);
}

void
pvalueColumnRowsNeon(const ColumnView &column, double *out,
                     bool compensated)
{
    *out = detail::pvalueColumnRowsRun<simd::NeonDoubleVec>(
        column, compensated);
}

void
pvalueColumnRowsNeon(const ColumnView &column, float *out,
                     bool compensated)
{
    *out = detail::pvalueColumnRowsRun<simd::NeonFloatVec>(
        column, compensated);
}

#endif // PSTAT_SIMD_HAS_NEON

template <typename T>
TileBackend<T>
tileBackendFor(simd::Isa isa)
{
    TileBackend<T> backend;
    if (!simd::isaSupported(isa))
        return backend; // unsupported request: scalar fallback
    switch (isa) {
    case simd::Isa::Avx2:
#if defined(PSTAT_SIMD_HAS_AVX2)
        backend.tile = [](const ColumnView *cols, T *out,
                          bool compensated) {
            detail::pvalueTileAvx2(cols, out, compensated);
        };
        backend.column = [](const ColumnView &column, T *out,
                            bool compensated) {
            detail::pvalueColumnRowsAvx2(column, out, compensated);
        };
        backend.width = std::is_same_v<T, double> ? 4 : 8;
#endif
        break;
    case simd::Isa::Neon:
#if defined(PSTAT_SIMD_HAS_NEON)
        backend.tile = [](const ColumnView *cols, T *out,
                          bool compensated) {
            pvalueTileNeon(cols, out, compensated);
        };
        backend.column = [](const ColumnView &column, T *out,
                            bool compensated) {
            pvalueColumnRowsNeon(column, out, compensated);
        };
        backend.width = std::is_same_v<T, double> ? 2 : 4;
#endif
        break;
    case simd::Isa::Scalar:
        break;
    }
    if (backend.tile != nullptr) {
        backend.k_tile_cap =
            k_l1_budget_bytes /
            (2 * static_cast<size_t>(backend.width) * sizeof(T));
    }
    return backend;
}

template <typename T>
void
pvalueBatchImpl(std::span<const ColumnView> columns, std::span<T> out,
                simd::Isa isa, bool compensated)
{
    assert(columns.size() == out.size());
    const size_t n = columns.size();
    const TileBackend<T> backend = tileBackendFor<T>(isa);
    const auto width = static_cast<size_t>(backend.width);
    if (backend.tile == nullptr) {
        for (size_t i = 0; i < n; ++i)
            out[i] = scalarPValue<T>(columns[i], compensated);
        return;
    }

    // K <= 0 columns are P(X >= K) = 1 by definition: the scalar
    // kernel answers them in O(1), so letting them occupy tile lanes
    // (a full inert DP run each) would hand back the whole win on
    // realistic calling scans, where most background columns saw no
    // noise read at all. tileOrder puts them last: answer them here
    // and tile only the rest. Results scatter back to input order;
    // per-column bits are unaffected — a lane's operation sequence
    // depends only on its own column.
    std::vector<uint32_t> order = tileOrder(columns);
    while (!order.empty() && columns[order.back()].k <= 0) {
        out[order.back()] = RealTraits<T>::one();
        order.pop_back();
    }

    assert(tile_columns % width == 0);
    ColumnView tile_cols[tile_columns];
    T tile_out[tile_columns];
    const size_t tiles = order.size() / width;
    for (size_t t = 0; t < tiles; ++t) {
        size_t group_kmax = 1;
        for (size_t c = 0; c < width; ++c) {
            const ColumnView &col = columns[order[t * width + c]];
            const auto kc = static_cast<size_t>(col.k);
            if (kc > group_kmax)
                group_kmax = kc;
        }
        if (group_kmax > backend.k_tile_cap) {
            // The tile's SoA DP state would spill L1: run each
            // column through the row-vectorized kernel instead.
            for (size_t c = 0; c < width; ++c) {
                const size_t i = order[t * width + c];
                backend.column(columns[i], &out[i], compensated);
            }
            continue;
        }
        for (size_t c = 0; c < width; ++c)
            tile_cols[c] = columns[order[t * width + c]];
        backend.tile(tile_cols, tile_out, compensated);
        for (size_t c = 0; c < width; ++c)
            out[order[t * width + c]] = tile_out[c];
    }
    for (size_t i = tiles * width; i < order.size(); ++i)
        backend.column(columns[order[i]], &out[order[i]],
                       compensated);
}

} // namespace

std::vector<uint32_t>
tileOrder(std::span<const ColumnView> columns)
{
    // Tile lanes run in lockstep to the deepest lane's K and N — a
    // tile costs about max(N) * max(K) regardless of the other lanes
    // — so sort by descending (K, N): equal-K columns become adjacent
    // (realistic calling batches are dominated by a few tiny noise-K
    // classes, so most tiles then hit the tile kernel's shared-K fast
    // path) and N is monotone within each K class, bounding the
    // padding. Columns too deep for a tile's L1 budget sort to the
    // front and peel off to the row kernel tile group by tile group.
    // One word per key: K <= 0 packs to 0 and sorts last. Sorting
    // (~key, index) pairs ascending is descending by key with ties in
    // input order — a stable sort without an indirect comparator.
    std::vector<std::pair<uint64_t, uint32_t>> keyed(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
        const ColumnView &col = columns[i];
        uint64_t key = 0;
        if (col.k > 0) {
            const uint64_t len =
                std::min<size_t>(col.success_probs.size(), 0xffffffff);
            key = (static_cast<uint64_t>(col.k) << 32) | len;
        }
        keyed[i] = {~key, static_cast<uint32_t>(i)};
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<uint32_t> order(columns.size());
    for (size_t i = 0; i < keyed.size(); ++i)
        order[i] = keyed[i].second;
    return order;
}

template <typename T>
void
pvalueBatchSimd(std::span<const ColumnView> columns, std::span<T> out,
                simd::Isa isa)
{
    pvalueBatchImpl<T>(columns, out, isa, false);
}

template <typename T>
void
pvalueBatchCompensatedSimd(std::span<const ColumnView> columns,
                           std::span<T> out, simd::Isa isa)
{
    pvalueBatchImpl<T>(columns, out, isa, true);
}

template void pvalueBatchSimd<double>(std::span<const ColumnView>,
                                      std::span<double>, simd::Isa);
template void pvalueBatchSimd<float>(std::span<const ColumnView>,
                                     std::span<float>, simd::Isa);
template void
pvalueBatchCompensatedSimd<double>(std::span<const ColumnView>,
                                   std::span<double>, simd::Isa);
template void
pvalueBatchCompensatedSimd<float>(std::span<const ColumnView>,
                                  std::span<float>, simd::Isa);

namespace detail
{

void
pvalueTilePortable(const ColumnView *cols, double *out,
                   bool compensated)
{
    pvalueTileRun<simd::ArrayVec<double, 4>>(cols, out, compensated);
}

void
pvalueTilePortable(const ColumnView *cols, float *out,
                   bool compensated)
{
    pvalueTileRun<simd::ArrayVec<float, 8>>(cols, out, compensated);
}

void
pvalueColumnRowsPortable(const ColumnView &column, double *out,
                         bool compensated)
{
    *out = pvalueColumnRowsRun<simd::ArrayVec<double, 4>>(column,
                                                          compensated);
}

void
pvalueColumnRowsPortable(const ColumnView &column, float *out,
                         bool compensated)
{
    *out = pvalueColumnRowsRun<simd::ArrayVec<float, 8>>(column,
                                                         compensated);
}

} // namespace detail

} // namespace pstat::pbd
