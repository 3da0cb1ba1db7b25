#include "io/shard.hh"

#include <cassert>
#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pstat::io
{

// Sequence payloads store observation symbols as on-disk int32; the
// in-memory HMM API traffics in spans of int, so serving zero-copy
// views requires the two to be the same type.
static_assert(sizeof(int) == 4, "sequence records assume 32-bit int");

namespace
{

[[noreturn]] void
fail(const std::string &path, const std::string &what)
{
    throw ShardError(path + ": " + what);
}

/** Read a little-endian scalar at an arbitrary (unaligned) offset. */
template <typename T>
T
loadAt(const unsigned char *base, size_t offset)
{
    T value;
    std::memcpy(&value, base + offset, sizeof(T));
    return value;
}

/**
 * The portable CRC-32 step: one table lookup per byte on the raw
 * (pre-inverted) register. The only path on non-x86 builds and CPUs
 * without PCLMUL, and the path for short inputs and fold tails
 * everywhere.
 */
uint32_t
crc32Table(uint32_t crc, const unsigned char *bytes, size_t len)
{
    // IEEE 802.3 (zlib) polynomial, table built once per process.
    static const auto table = [] {
        std::vector<uint32_t> t(256);
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    for (size_t i = 0; i < len; ++i)
        crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
    return crc;
}

#if defined(__x86_64__)

bool
hasPclmul()
{
    static const bool supported = __builtin_cpu_supports("pclmul") &&
                                  __builtin_cpu_supports("sse4.1");
    return supported;
}

/**
 * x shifted by a fold distance, plus next: the two 64-bit halves of
 * x are carry-less multiplied by the distance constants in k.
 */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/**
 * CRC-32 of `len` bytes (len >= 64, a multiple of 16) on the raw
 * register by carry-less multiplication: four 128-bit lanes fold 64
 * bytes per step, collapse to one lane, fold any remaining 16-byte
 * blocks, then reduce 128 -> 64 -> 32 bits (Barrett). Method and
 * bit-reflected constants from Gopal et al., "Fast CRC Computation
 * for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009):
 * the k constants are x^d mod P(x) for the fold distances d, and
 * mu = floor(x^64 / P(x)), all bit-reflected as zlib uses them.
 */
__attribute__((target("pclmul,sse4.1"))) uint32_t
crc32Fold(uint32_t crc, const unsigned char *buf, size_t len)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    const auto load = [](const unsigned char *p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    };

    __m128i x1 = _mm_xor_si128(load(buf), _mm_cvtsi32_si128(
                                              static_cast<int>(crc)));
    __m128i x2 = load(buf + 16);
    __m128i x3 = load(buf + 32);
    __m128i x4 = load(buf + 48);
    buf += 64;
    len -= 64;
    for (; len >= 64; buf += 64, len -= 64) {
        x1 = fold(x1, k1k2, load(buf));
        x2 = fold(x2, k1k2, load(buf + 16));
        x3 = fold(x3, k1k2, load(buf + 32));
        x4 = fold(x4, k1k2, load(buf + 48));
    }
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; len >= 16; buf += 16, len -= 16)
        x1 = fold(x1, k3k4, load(buf));

    // 128 -> 64 bits.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(
        _mm_srli_si128(x1, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

    // Barrett reduction 64 -> 32 bits.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
    return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t),
                                                   1));
}

#endif // __x86_64__

} // namespace

uint32_t
crc32(uint32_t crc, const void *data, size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    crc ^= 0xffffffffu;
#if defined(__x86_64__)
    if (len >= 64 && hasPclmul()) {
        const size_t folded = len & ~size_t{15};
        crc = crc32Fold(crc, bytes, folded);
        bytes += folded;
        len -= folded;
    }
#endif
    return crc32Table(crc, bytes, len) ^ 0xffffffffu;
}

// ------------------------------------------------------------ writer

ShardWriter::ShardWriter(std::string path, ShardPayload payload)
    : path_(std::move(path)), payload_(payload)
{
    file_ = std::fopen(path_.c_str(), "wb");
    if (file_ == nullptr)
        fail(path_, std::string("cannot open for writing: ") +
                        std::strerror(errno));
    // A zeroed placeholder (no magic): a writer that dies before
    // close() leaves a file no reader will ever validate.
    const ShardHeader placeholder{};
    write(&placeholder, sizeof(placeholder));
    payload_bytes_ = 0; // the header is not payload
}

ShardWriter::~ShardWriter()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void
ShardWriter::write(const void *data, size_t len)
{
    assert(file_ != nullptr && "writer already closed");
    if (std::fwrite(data, 1, len, file_) != len)
        fail(path_, "write failed");
}

void
ShardWriter::add(pbd::ColumnView column)
{
    if (payload_ != ShardPayload::Columns)
        throw std::logic_error(path_ +
                               ": column record on a non-Columns shard");
    const auto n = static_cast<uint32_t>(column.success_probs.size());
    const auto k = static_cast<int32_t>(column.k);
    const size_t prob_bytes = column.success_probs.size_bytes();

    write(&n, sizeof(n));
    write(&k, sizeof(k));
    if (prob_bytes > 0)
        write(column.success_probs.data(), prob_bytes);

    crc_ = crc32(crc_, &n, sizeof(n));
    crc_ = crc32(crc_, &k, sizeof(k));
    crc_ = crc32(crc_, column.success_probs.data(), prob_bytes);
    payload_bytes_ += sizeof(n) + sizeof(k) + prob_bytes;
    ++items_;
}

ShardWriter::ShardWriter(std::string path, uint32_t result_kernel,
                         const std::string &format_id)
    : ShardWriter(std::move(path), ShardPayload::Results)
{
    // The meta block precedes every record: kernel tag, id length,
    // id bytes, zero-padded to the 8-byte record grid. It is payload
    // (CRC-covered) but not a record (not in item_count).
    if (format_id.size() > shard_result_id_max)
        throw std::logic_error(path_ + ": result format id too long");
    const auto id_len = static_cast<uint32_t>(format_id.size());
    write(&result_kernel, sizeof(result_kernel));
    write(&id_len, sizeof(id_len));
    crc_ = crc32(crc_, &result_kernel, sizeof(result_kernel));
    crc_ = crc32(crc_, &id_len, sizeof(id_len));
    payload_bytes_ += sizeof(result_kernel) + sizeof(id_len);
    if (id_len > 0) {
        write(format_id.data(), id_len);
        crc_ = crc32(crc_, format_id.data(), id_len);
        payload_bytes_ += id_len;
    }
    const size_t pad_bytes = (8 - id_len % 8) % 8;
    if (pad_bytes > 0) {
        const uint64_t pad = 0;
        write(&pad, pad_bytes);
        crc_ = crc32(crc_, &pad, pad_bytes);
        payload_bytes_ += pad_bytes;
    }
}

void
ShardWriter::addSequence(std::span<const int> obs)
{
    if (payload_ != ShardPayload::Sequences)
        throw std::logic_error(
            path_ + ": sequence record on a non-Sequences shard");
    const auto len = static_cast<uint32_t>(obs.size());
    const uint32_t reserved = 0;
    const size_t obs_bytes = obs.size_bytes();
    // Pad odd-length symbol runs so the next record stays 8-aligned.
    const uint32_t pad = 0;
    const size_t pad_bytes = (obs.size() % 2 != 0) ? 4 : 0;

    write(&len, sizeof(len));
    write(&reserved, sizeof(reserved));
    if (obs_bytes > 0)
        write(obs.data(), obs_bytes);
    if (pad_bytes > 0)
        write(&pad, pad_bytes);

    crc_ = crc32(crc_, &len, sizeof(len));
    crc_ = crc32(crc_, &reserved, sizeof(reserved));
    crc_ = crc32(crc_, obs.data(), obs_bytes);
    crc_ = crc32(crc_, &pad, pad_bytes);
    payload_bytes_ += sizeof(len) + sizeof(reserved) + obs_bytes +
                      pad_bytes;
    ++items_;
}

void
ShardWriter::addResult(const ShardResultRecord &record)
{
    if (payload_ != ShardPayload::Results)
        throw std::logic_error(path_ +
                               ": result record on a non-Results shard");
    // Mirror the reader's open-time validation: a record this writer
    // accepts must re-open cleanly, so malformed encodings are caller
    // bugs (logic_error), never bad bytes on disk.
    if ((record.flags & ~result_flag_mask) != 0)
        throw std::logic_error(path_ + ": unknown result flag bits");
    const bool zero = (record.flags & result_flag_zero) != 0;
    const bool nan = (record.flags & result_flag_nan) != 0;
    if (zero && nan)
        throw std::logic_error(path_ +
                               ": result flagged both zero and NaN");
    const bool limbs_zero = record.limbs[0] == 0 &&
                            record.limbs[1] == 0 &&
                            record.limbs[2] == 0 && record.limbs[3] == 0;
    if (zero || nan) {
        if (record.exp != 0 || !limbs_zero)
            throw std::logic_error(
                path_ + ": non-canonical zero/NaN result record");
    } else if ((record.limbs[3] >> 63) == 0) {
        throw std::logic_error(path_ +
                               ": denormalized result mantissa");
    }

    const auto count = static_cast<uint32_t>(record.path.size());
    const uint32_t reserved = 0;
    unsigned char buf[shard_result_record_bytes];
    std::memcpy(buf + 0, &count, sizeof(count));
    std::memcpy(buf + 4, &record.flags, sizeof(record.flags));
    std::memcpy(buf + 8, &record.exp, sizeof(record.exp));
    std::memcpy(buf + 16, record.limbs.data(), 32);
    std::memcpy(buf + 48, &record.aux, sizeof(record.aux));
    std::memcpy(buf + 52, &reserved, sizeof(reserved));
    write(buf, sizeof(buf));
    crc_ = crc32(crc_, buf, sizeof(buf));
    payload_bytes_ += sizeof(buf);

    const size_t path_bytes = record.path.size_bytes();
    if (path_bytes > 0) {
        write(record.path.data(), path_bytes);
        crc_ = crc32(crc_, record.path.data(), path_bytes);
        payload_bytes_ += path_bytes;
    }
    // Pad odd-length paths so the next record stays 8-aligned.
    const uint32_t pad = 0;
    const size_t pad_bytes = (record.path.size() % 2 != 0) ? 4 : 0;
    if (pad_bytes > 0) {
        write(&pad, pad_bytes);
        crc_ = crc32(crc_, &pad, pad_bytes);
        payload_bytes_ += pad_bytes;
    }
    ++items_;
}

void
ShardWriter::close()
{
    assert(file_ != nullptr && "writer already closed");
    const uint64_t trailer = crc_; // zero-extended to 8 bytes
    write(&trailer, sizeof(trailer));

    ShardHeader header{};
    std::memcpy(header.magic, shard_magic, sizeof(header.magic));
    header.version = shard_version;
    header.payload = static_cast<uint32_t>(payload_);
    header.item_count = items_;
    header.payload_bytes = payload_bytes_;
    if (std::fseek(file_, 0, SEEK_SET) != 0)
        fail(path_, "seek failed");
    write(&header, sizeof(header));

    std::FILE *file = std::exchange(file_, nullptr);
    if (std::fclose(file) != 0)
        fail(path_, "close failed");
}

// ------------------------------------------------------------ reader

ShardReader::ShardReader(const std::string &path) : path_(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail(path, std::string("cannot open: ") +
                       std::strerror(errno));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        fail(path, std::string("cannot stat: ") + std::strerror(err));
    }
    const auto file_bytes = static_cast<size_t>(st.st_size);
    if (file_bytes < sizeof(ShardHeader) + shard_trailer_bytes) {
        ::close(fd);
        fail(path, "truncated shard (smaller than header + trailer)");
    }
    void *map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE,
                       fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (map == MAP_FAILED)
        fail(path, std::string("mmap failed: ") +
                       std::strerror(errno));
    base_ = static_cast<const unsigned char *>(map);
    mapped_bytes_ = file_bytes;

    ShardHeader header;
    std::memcpy(&header, base_, sizeof(header));
    if (std::memcmp(header.magic, shard_magic,
                    sizeof(shard_magic)) != 0) {
        unmap();
        fail(path, "bad magic (not a shard file)");
    }
    if (header.version != shard_version) {
        unmap();
        fail(path, "unsupported shard version " +
                       std::to_string(header.version));
    }
    if (header.payload !=
            static_cast<uint32_t>(ShardPayload::Columns) &&
        header.payload !=
            static_cast<uint32_t>(ShardPayload::Sequences) &&
        header.payload !=
            static_cast<uint32_t>(ShardPayload::Results)) {
        unmap();
        fail(path, "unknown payload tag " +
                       std::to_string(header.payload));
    }
    version_ = header.version;
    payload_ = static_cast<ShardPayload>(header.payload);
    if (header.payload_bytes !=
        file_bytes - sizeof(ShardHeader) - shard_trailer_bytes) {
        unmap();
        fail(path, "truncated shard (payload size does not match "
                   "file size)");
    }
    payload_bytes_ = header.payload_bytes;

    const unsigned char *payload = base_ + sizeof(ShardHeader);
    const uint32_t stored_crc = loadAt<uint32_t>(
        base_, sizeof(ShardHeader) + payload_bytes_);
    const uint32_t computed_crc = crc32(0, payload, payload_bytes_);
    if (stored_crc != computed_crc) {
        unmap();
        fail(path, "payload CRC mismatch (corrupted shard)");
    }

    // Walk every record boundary once so column()/sequence() can
    // never step outside the payload. The header is outside the CRC,
    // so item_count is untrusted until the walk confirms it: records
    // are at least 8 bytes, which bounds any honest count — reject a
    // larger one here instead of letting reserve() throw bad_alloc.
    if (header.item_count > payload_bytes_ / 8) {
        unmap();
        fail(path, "item count exceeds what the payload can hold");
    }
    offsets_.reserve(header.item_count);
    size_t offset = 0;
    if (payload_ == ShardPayload::Results) {
        // The meta block (kernel tag, id length, id bytes, padded to
        // the record grid) precedes the records and is not counted
        // in item_count.
        if (payload_bytes_ < 8) {
            unmap();
            fail(path, "result meta overruns payload");
        }
        result_kernel_ = loadAt<uint32_t>(payload, 0);
        const auto id_len = loadAt<uint32_t>(payload, 4);
        if (id_len > shard_result_id_max) {
            unmap();
            fail(path, "result format id too long");
        }
        const size_t meta_bytes =
            (8 + size_t{id_len} + 7) & ~size_t{7};
        if (meta_bytes > payload_bytes_) {
            unmap();
            fail(path, "result meta overruns payload");
        }
        result_format_id_.assign(
            reinterpret_cast<const char *>(payload) + 8, id_len);
        offset = meta_bytes;
    }
    for (uint64_t i = 0; i < header.item_count; ++i) {
        if (offset + 8 > payload_bytes_) {
            unmap();
            fail(path, "record header overruns payload");
        }
        const auto count = loadAt<uint32_t>(payload, offset);
        size_t record_bytes = 0;
        if (payload_ == ShardPayload::Columns) {
            record_bytes = 8 + size_t{count} * sizeof(double);
        } else if (payload_ == ShardPayload::Sequences) {
            record_bytes = 8 + size_t{count} * sizeof(int32_t);
            record_bytes = (record_bytes + 7) & ~size_t{7};
        } else {
            record_bytes = shard_result_record_bytes +
                           size_t{count} * sizeof(int32_t);
            record_bytes = (record_bytes + 7) & ~size_t{7};
        }
        if (offset + record_bytes > payload_bytes_) {
            unmap();
            fail(path, "record overruns payload");
        }
        if (payload_ == ShardPayload::Results) {
            // Validate the value encoding here, at open time, so
            // result() can hand the limbs straight to
            // BigFloat::fromLimbs (which requires a normalized
            // mantissa) without a per-access check.
            const auto flags = loadAt<uint32_t>(payload, offset + 4);
            if ((flags & ~result_flag_mask) != 0) {
                unmap();
                fail(path, "unknown result flag bits");
            }
            const bool zero = (flags & result_flag_zero) != 0;
            const bool nan = (flags & result_flag_nan) != 0;
            if (zero && nan) {
                unmap();
                fail(path, "result flagged both zero and NaN");
            }
            const auto exp = loadAt<int64_t>(payload, offset + 8);
            uint64_t limb_or = 0;
            for (size_t l = 0; l < 4; ++l)
                limb_or |=
                    loadAt<uint64_t>(payload, offset + 16 + 8 * l);
            if (zero || nan) {
                if (exp != 0 || limb_or != 0) {
                    unmap();
                    fail(path,
                         "non-canonical zero/NaN result record");
                }
            } else if ((loadAt<uint64_t>(payload, offset + 40) >>
                        63) == 0) {
                unmap();
                fail(path, "denormalized result mantissa");
            }
        }
        offsets_.push_back(offset);
        offset += record_bytes;
    }
    if (offset != payload_bytes_) {
        unmap();
        fail(path, "trailing bytes after the last record");
    }
}

ShardReader::~ShardReader()
{
    unmap();
}

ShardReader::ShardReader(ShardReader &&other) noexcept
    : path_(std::move(other.path_)), payload_(other.payload_),
      version_(other.version_), payload_bytes_(other.payload_bytes_),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)),
      base_(std::exchange(other.base_, nullptr)),
      offsets_(std::move(other.offsets_)),
      result_kernel_(other.result_kernel_),
      result_format_id_(std::move(other.result_format_id_))
{
    other.offsets_.clear();
}

ShardReader &
ShardReader::operator=(ShardReader &&other) noexcept
{
    if (this != &other) {
        unmap();
        path_ = std::move(other.path_);
        payload_ = other.payload_;
        version_ = other.version_;
        payload_bytes_ = other.payload_bytes_;
        mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
        base_ = std::exchange(other.base_, nullptr);
        offsets_ = std::move(other.offsets_);
        other.offsets_.clear();
        result_kernel_ = other.result_kernel_;
        result_format_id_ = std::move(other.result_format_id_);
    }
    return *this;
}

void
ShardReader::unmap() noexcept
{
    if (base_ != nullptr) {
        ::munmap(const_cast<unsigned char *>(base_), mapped_bytes_);
        base_ = nullptr;
        mapped_bytes_ = 0;
    }
}

pbd::ColumnView
ShardReader::column(size_t i) const
{
    assert(payload_ == ShardPayload::Columns &&
           "column() on a non-Columns shard");
    assert(i < offsets_.size() && "column index out of range");
    const unsigned char *payload = base_ + sizeof(ShardHeader);
    const size_t offset = offsets_[i];
    const auto n = loadAt<uint32_t>(payload, offset);
    const auto k = loadAt<int32_t>(payload, offset + 4);
    // Records are 8-aligned within the page-aligned mapping, so the
    // probability block really is a double array in place.
    const auto *probs = reinterpret_cast<const double *>(
        payload + offset + 8);
    return {std::span<const double>(probs, n), static_cast<int>(k)};
}

std::span<const int>
ShardReader::sequence(size_t i) const
{
    assert(payload_ == ShardPayload::Sequences &&
           "sequence() on a non-Sequences shard");
    assert(i < offsets_.size() && "sequence index out of range");
    const unsigned char *payload = base_ + sizeof(ShardHeader);
    const size_t offset = offsets_[i];
    const auto len = loadAt<uint32_t>(payload, offset);
    const auto *obs = reinterpret_cast<const int *>(
        payload + offset + 8);
    return {obs, len};
}

ShardResultRecord
ShardReader::result(size_t i) const
{
    assert(payload_ == ShardPayload::Results &&
           "result() on a non-Results shard");
    assert(i < offsets_.size() && "result index out of range");
    const unsigned char *payload = base_ + sizeof(ShardHeader);
    const size_t offset = offsets_[i];
    ShardResultRecord record;
    const auto count = loadAt<uint32_t>(payload, offset);
    record.flags = loadAt<uint32_t>(payload, offset + 4);
    record.exp = loadAt<int64_t>(payload, offset + 8);
    for (size_t l = 0; l < record.limbs.size(); ++l)
        record.limbs[l] =
            loadAt<uint64_t>(payload, offset + 16 + 8 * l);
    record.aux = loadAt<int32_t>(payload, offset + 48);
    const auto *path_entries = reinterpret_cast<const int *>(
        payload + offset + shard_result_record_bytes);
    record.path = {path_entries, count};
    return record;
}

uint32_t
ShardReader::resultKernel() const
{
    assert(payload_ == ShardPayload::Results &&
           "resultKernel() on a non-Results shard");
    return result_kernel_;
}

const std::string &
ShardReader::resultFormatId() const
{
    assert(payload_ == ShardPayload::Results &&
           "resultFormatId() on a non-Results shard");
    return result_format_id_;
}

pbd::Column
ShardReader::materializeColumn(size_t i) const
{
    const pbd::ColumnView view = column(i);
    pbd::Column out;
    out.k = view.k;
    out.success_probs.assign(view.success_probs.begin(),
                             view.success_probs.end());
    return out;
}

// ------------------------------------------------------ conveniences

std::optional<ShardPayload>
peekShardPayload(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return std::nullopt;
    ShardHeader header{};
    const size_t got =
        std::fread(&header, 1, sizeof(header), file);
    std::fclose(file);
    if (got != sizeof(header))
        return std::nullopt;
    if (std::memcmp(header.magic, shard_magic,
                    sizeof(shard_magic)) != 0)
        return std::nullopt;
    switch (header.payload) {
    case static_cast<uint32_t>(ShardPayload::Columns):
        return ShardPayload::Columns;
    case static_cast<uint32_t>(ShardPayload::Sequences):
        return ShardPayload::Sequences;
    case static_cast<uint32_t>(ShardPayload::Results):
        return ShardPayload::Results;
    default:
        return std::nullopt;
    }
}

void
writeColumnShard(const std::string &path,
                 std::span<const pbd::Column> columns)
{
    ShardWriter writer(path, ShardPayload::Columns);
    for (const auto &column : columns)
        writer.add(column);
    writer.close();
}

std::vector<pbd::Column>
readColumnShard(const std::string &path)
{
    const ShardReader reader(path);
    std::vector<pbd::Column> out;
    out.reserve(reader.size());
    for (size_t i = 0; i < reader.size(); ++i)
        out.push_back(reader.materializeColumn(i));
    return out;
}

} // namespace pstat::io
