/**
 * @file
 * Byte-exact little-endian state serialization, the substrate of
 * predictor checkpoint/restore (serve/checkpoint.hpp): StateWriter
 * appends fixed-width scalars, bulk u16 arrays and length-prefixed
 * byte ranges into a growing buffer; StateReader replays them with
 * bounds checking, latching the first failure so callers can decode a
 * whole record and test ok() once at the end. Each scalar moves in one
 * step: one append or one bounds check, and a single load or store on
 * a little-endian host.
 *
 * The encoding is deliberately dumb — no varints, no alignment, no
 * endianness surprises — so a blob written on any host decodes on any
 * other and the FNV digest over the bytes is a stable fingerprint of
 * the serialized state.
 */

#ifndef TAGECON_UTIL_STATE_IO_HPP
#define TAGECON_UTIL_STATE_IO_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace tagecon {

/** FNV-1a 64-bit hash of a byte range (offset basis / prime of the
 *  golden state-hash tests, so digests are comparable across both). */
uint64_t fnv1a64(const uint8_t* data, size_t size);

/** Write @p v to @p dst as sizeof(T) little-endian bytes. */
template <typename T>
void
storeLe(uint8_t* dst, T v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(dst, &v, sizeof(T));
    } else {
        for (size_t i = 0; i < sizeof(T); ++i)
            dst[i] = static_cast<uint8_t>(v >> (8 * i));
    }
}

/** The sizeof(T) little-endian bytes at @p src. */
template <typename T>
T
loadLe(const uint8_t* src)
{
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, src, sizeof(T));
    } else {
        for (size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<T>(src[i]) << (8 * i));
    }
    return v;
}

/** Append-only little-endian encoder. */
class StateWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }

    void u16(uint16_t v) { scalar(v); }

    void u32(uint32_t v) { scalar(v); }

    void u64(uint64_t v) { scalar(v); }

    /** Two's-complement encode of a signed value. */
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    /**
     * @p count little-endian u16s, no length prefix: the same bytes as
     * @p count u16() calls, in one copy on a little-endian host.
     */
    void
    u16s(const uint16_t* data, size_t count)
    {
        if constexpr (std::endian::native == std::endian::little) {
            bytes(reinterpret_cast<const uint8_t*>(data), 2 * count);
        } else {
            for (size_t i = 0; i < count; ++i)
                u16(data[i]);
        }
    }

    /** Raw bytes, no length prefix (caller knows the count). */
    void
    bytes(const uint8_t* data, size_t size)
    {
        buf_.insert(buf_.end(), data, data + size);
    }

    /** u64 length prefix + raw bytes. */
    void
    lengthPrefixedBytes(const uint8_t* data, size_t size)
    {
        u64(size);
        bytes(data, size);
    }

    /** u64 length prefix + UTF-8 bytes. */
    void
    str(const std::string& s)
    {
        lengthPrefixedBytes(reinterpret_cast<const uint8_t*>(s.data()),
                            s.size());
    }

    /**
     * Append @p size zero bytes and return where they start, for an
     * encoder that fills them in place. The pointer is valid until the
     * next write.
     */
    uint8_t*
    grow(size_t size)
    {
        const size_t at = buf_.size();
        buf_.resize(at + size);
        return buf_.data() + at;
    }

    /**
     * Make room for @p total bytes, so a writer of known size grows
     * once and take() hands out an exact-size buffer.
     */
    void reserve(size_t total) { buf_.reserve(total); }

    /** The encoded bytes so far. */
    const std::vector<uint8_t>& data() const { return buf_; }

    /** Move the encoded bytes out (leaves the writer empty). */
    std::vector<uint8_t> take() { return std::move(buf_); }

    size_t size() const { return buf_.size(); }

  private:
    /** @p v as sizeof(T) little-endian bytes, appended in one insert. */
    template <typename T>
    void
    scalar(T v)
    {
        uint8_t le[sizeof(T)];
        storeLe(le, v);
        buf_.insert(buf_.end(), le, le + sizeof(T));
    }

    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked decoder over a byte range it does not own. The first
 * out-of-bounds read latches ok() to false and every later read
 * returns zeros, so decode code can run straight through and check
 * once.
 */
class StateReader
{
  public:
    StateReader(const uint8_t* data, size_t size)
        : data_(data), size_(size)
    {
    }

    explicit StateReader(const std::vector<uint8_t>& buf)
        : StateReader(buf.data(), buf.size())
    {
    }

    uint8_t u8() { return scalar<uint8_t>(); }

    uint16_t u16() { return scalar<uint16_t>(); }

    uint32_t u32() { return scalar<uint32_t>(); }

    uint64_t u64() { return scalar<uint64_t>(); }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    /**
     * @p count little-endian u16s written by StateWriter::u16s, with
     * one bounds check; zero-fills @p out on underrun.
     */
    bool
    u16s(uint16_t* out, size_t count)
    {
        if (!ok_ || count > remaining() / 2) {
            ok_ = false;
            std::fill_n(out, count, uint16_t{0});
            return false;
        }
        if constexpr (std::endian::native == std::endian::little) {
            if (count != 0)
                std::memcpy(out, data_ + pos_, 2 * count);
        } else {
            for (size_t i = 0; i < count; ++i)
                out[i] = loadLe<uint16_t>(data_ + pos_ + 2 * i);
        }
        pos_ += 2 * count;
        return true;
    }

    /** Copy @p size raw bytes into @p out; zero-fills on underrun. */
    bool
    bytes(uint8_t* out, size_t size)
    {
        const uint8_t* src = next(size);
        if (src == nullptr) {
            std::fill_n(out, size, uint8_t{0});
            return false;
        }
        if (size != 0)
            std::memcpy(out, src, size);
        return true;
    }

    /**
     * Consume @p size bytes with one bounds check and return where
     * they start, for a decoder that reads them in place; nullptr
     * (latching the error) on underrun.
     */
    const uint8_t*
    next(size_t size)
    {
        if (!take(size))
            return nullptr;
        const uint8_t* at = data_ + pos_;
        pos_ += size;
        return at;
    }

    /**
     * u64 length prefix + bytes into @p out. Lengths above @p max_size
     * are treated as corruption (latches the error) rather than
     * attempted, so a flipped length byte cannot trigger a huge
     * allocation.
     */
    bool
    lengthPrefixedBytes(std::vector<uint8_t>& out,
                        size_t max_size = size_t{1} << 32)
    {
        const uint64_t n = u64();
        if (!ok_ || n > max_size || n > remaining()) {
            ok_ = false;
            out.clear();
            return false;
        }
        out.assign(data_ + pos_, data_ + pos_ + n);
        pos_ += static_cast<size_t>(n);
        return true;
    }

    /** u64 length prefix + UTF-8 bytes. */
    std::string
    str(size_t max_size = size_t{1} << 20)
    {
        std::vector<uint8_t> raw;
        if (!lengthPrefixedBytes(raw, max_size))
            return {};
        return std::string(raw.begin(), raw.end());
    }

    /** True while every read so far stayed in bounds. */
    bool ok() const { return ok_; }

    /** Bytes not yet consumed. */
    size_t remaining() const { return size_ - pos_; }

    /** True when every byte was consumed and no read failed. */
    bool exhausted() const { return ok_ && pos_ == size_; }

  private:
    /** A little-endian T, or 0 (latching the error) on underrun. */
    template <typename T>
    T
    scalar()
    {
        const uint8_t* src = next(sizeof(T));
        return src == nullptr ? T{0} : loadLe<T>(src);
    }

    /** Check @p n more bytes are available; latch the error if not. */
    bool
    take(size_t n)
    {
        if (!ok_ || n > size_ - pos_) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const uint8_t* data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace tagecon

#endif // TAGECON_UTIL_STATE_IO_HPP
