/**
 * @file
 * Byte-exact little-endian state serialization, the substrate of
 * predictor checkpoint/restore (serve/checkpoint.hpp): StateWriter
 * appends fixed-width scalars, bulk u16 arrays, packed bit vectors and
 * length-prefixed byte ranges into a growing buffer; StateReader
 * replays them with bounds checking, latching the first failure so
 * callers can decode a whole record and test ok() once at the end.
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

/** Append-only little-endian encoder. */
class StateWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }

    void
    u16(uint16_t v)
    {
        buf_.push_back(static_cast<uint8_t>(v));
        buf_.push_back(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

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
     * Pack @p count booleans (given as a callable index -> bool) into
     * ceil(count / 8) bytes, LSB first — the history ring compressor.
     */
    template <typename BitAt>
    void
    packedBits(size_t count, BitAt bit_at)
    {
        uint8_t acc = 0;
        for (size_t i = 0; i < count; ++i) {
            if (bit_at(i))
                acc |= static_cast<uint8_t>(1u << (i & 7));
            if ((i & 7) == 7) {
                buf_.push_back(acc);
                acc = 0;
            }
        }
        if ((count & 7) != 0)
            buf_.push_back(acc);
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

    uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return data_[pos_++];
    }

    uint16_t
    u16()
    {
        const uint16_t lo = u8();
        const uint16_t hi = u8();
        return static_cast<uint16_t>(lo | (hi << 8));
    }

    uint32_t
    u32()
    {
        const uint32_t lo = u16();
        const uint32_t hi = u16();
        return lo | (hi << 16);
    }

    uint64_t
    u64()
    {
        const uint64_t lo = u32();
        const uint64_t hi = u32();
        return lo | (hi << 32);
    }

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
                out[i] = static_cast<uint16_t>(
                    data_[pos_ + 2 * i] | (data_[pos_ + 2 * i + 1] << 8));
        }
        pos_ += 2 * count;
        return true;
    }

    /** Copy @p size raw bytes into @p out; zero-fills on underrun. */
    bool
    bytes(uint8_t* out, size_t size)
    {
        if (!take(size)) {
            std::fill_n(out, size, uint8_t{0});
            return false;
        }
        if (size != 0)
            std::memcpy(out, data_ + pos_, size);
        pos_ += size;
        return true;
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

    /** Unpack @p count booleans written by StateWriter::packedBits. */
    template <typename SetBit>
    bool
    packedBits(size_t count, SetBit set_bit)
    {
        const size_t nbytes = (count + 7) / 8;
        if (!take(nbytes)) {
            for (size_t i = 0; i < count; ++i)
                set_bit(i, false);
            return false;
        }
        for (size_t i = 0; i < count; ++i) {
            const uint8_t byte = data_[pos_ + (i >> 3)];
            set_bit(i, ((byte >> (i & 7)) & 1u) != 0);
        }
        pos_ += nbytes;
        return true;
    }

    /** True while every read so far stayed in bounds. */
    bool ok() const { return ok_; }

    /** Bytes not yet consumed. */
    size_t remaining() const { return size_ - pos_; }

    /** True when every byte was consumed and no read failed. */
    bool exhausted() const { return ok_ && pos_ == size_; }

  private:
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
