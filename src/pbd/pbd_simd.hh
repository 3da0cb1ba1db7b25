/**
 * @file
 * Multi-column SIMD batch entry points for the Listing-2 p-value DP.
 *
 * pvalueBatchSimd evaluates a whole batch of alignment columns by
 * transposing groups of Vec::width columns into structure-of-arrays
 * tiles (pbd_simd_tile.hh) and advancing all lanes per instruction.
 * Results are bit-identical, column by column, to the scalar
 * pvalue<T> / pvalueCompensated<T> oracles — the tests enforce this
 * for binary64 and binary32 on ragged batch shapes — so routing the
 * engine's default paths through here moves no committed baseline.
 *
 * Columns are processed in tileOrder — descending packed (K, N), the
 * single ordering definition — so that a tile's lanes share DP depth
 * (a tile always runs to its longest lane's K and N; mixed tiles
 * would burn the difference), and results are scattered back to input
 * order. The engine orders a whole block by the same tileOrder and
 * hands lanes chunks on multiples of tile_columns, so a chunk's tiles
 * are the block's tiles and the sort here finds them already in
 * place. Two vector forms split the work by K: tiles handle groups
 * whose DP state fits the L1 budget, while deep-tail columns (and
 * sub-tile remainders) run a row-vectorized single-column kernel
 * that keeps the scalar kernel's compact 2*K working set.
 * Isa::Scalar runs the scalar kernel for every column — the legacy
 * path, not a 1-lane emulation.
 */

#ifndef PSTAT_PBD_PBD_SIMD_HH
#define PSTAT_PBD_PBD_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/simd.hh"
#include "pbd/dataset.hh"

namespace pstat::pbd
{

/**
 * The widest tile of any backend (AVX2 binary32: 8 lanes). A slice of
 * a tileOrder sequence that starts on a multiple of it starts on a
 * tile boundary for every backend width (each divides 8), so callers
 * that split one ordered batch into such slices run exactly the
 * batch's tiles.
 */
inline constexpr size_t tile_columns = 8;

/**
 * The order the batch kernels tile columns in: indices into
 * @p columns by descending packed (K, N) key — equal-K columns
 * adjacent and N monotone within each K class, so a tile's lanes
 * share DP depth — then every K <= 0 column (answered in O(1), never
 * tiled) last. Ties keep input order, so the order is deterministic.
 */
std::vector<uint32_t> tileOrder(std::span<const ColumnView> columns);

/**
 * Listing-2 p-values of every column under plain accumulation;
 * out[i] is bit-identical to pvalue<T>(columns[i]). T is double or
 * float (the formats with hardware lanes); out.size() must equal
 * columns.size().
 */
template <typename T>
void pvalueBatchSimd(std::span<const ColumnView> columns,
                     std::span<T> out,
                     simd::Isa isa = simd::activeIsa());

/**
 * Listing-2 p-values under the Neumaier-compensated policy; out[i]
 * is bit-identical to pvalueCompensated<T>(columns[i]).
 */
template <typename T>
void pvalueBatchCompensatedSimd(std::span<const ColumnView> columns,
                                std::span<T> out,
                                simd::Isa isa = simd::activeIsa());

extern template void
pvalueBatchSimd<double>(std::span<const ColumnView>,
                        std::span<double>, simd::Isa);
extern template void
pvalueBatchSimd<float>(std::span<const ColumnView>, std::span<float>,
                       simd::Isa);
extern template void
pvalueBatchCompensatedSimd<double>(std::span<const ColumnView>,
                                   std::span<double>, simd::Isa);
extern template void
pvalueBatchCompensatedSimd<float>(std::span<const ColumnView>,
                                  std::span<float>, simd::Isa);

/** Borrowed views of owned columns (valid while the columns live). */
inline std::vector<ColumnView>
viewsOf(std::span<const Column> columns)
{
    std::vector<ColumnView> views;
    views.reserve(columns.size());
    for (const Column &column : columns)
        views.push_back(column.view());
    return views;
}

namespace detail
{

/**
 * One AVX2 SoA tile (4 x double / 8 x float lanes); defined in
 * pbd_simd_avx2.cc, callable only when isaSupported(Isa::Avx2).
 */
void pvalueTileAvx2(const ColumnView *cols, double *out,
                    bool compensated);
void pvalueTileAvx2(const ColumnView *cols, float *out,
                    bool compensated);

/**
 * One column with the DP rows vectorized (AVX2), for deep-tail K
 * where the SoA tile would outgrow L1; defined in pbd_simd_avx2.cc.
 */
void pvalueColumnRowsAvx2(const ColumnView &column, double *out,
                          bool compensated);
void pvalueColumnRowsAvx2(const ColumnView &column, float *out,
                          bool compensated);

/**
 * The portable ArrayVec tile at the AVX2 widths (4 x double /
 * 8 x float): the scalar-loop reference backend the tests use to
 * validate the SoA tiling (and its bit-identity argument) on any
 * host, with or without vector hardware.
 */
void pvalueTilePortable(const ColumnView *cols, double *out,
                        bool compensated);
void pvalueTilePortable(const ColumnView *cols, float *out,
                        bool compensated);

/** The portable ArrayVec row-vectorized column kernel (same role). */
void pvalueColumnRowsPortable(const ColumnView &column, double *out,
                              bool compensated);
void pvalueColumnRowsPortable(const ColumnView &column, float *out,
                              bool compensated);

} // namespace detail

} // namespace pstat::pbd

#endif // PSTAT_PBD_PBD_SIMD_HH
