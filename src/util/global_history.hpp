/**
 * @file
 * Global branch-outcome history, stored in a ring buffer so that very
 * long histories (the large TAGE configuration folds 300 bits) cost O(1)
 * per update.
 */

#ifndef TAGECON_UTIL_GLOBAL_HISTORY_HPP
#define TAGECON_UTIL_GLOBAL_HISTORY_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/logging.hpp"
#include "util/state_io.hpp"

namespace tagecon {

/**
 * Ring buffer of branch outcomes. Index 0 is the most recent outcome,
 * index i the outcome i branches ago. The capacity is rounded up to a
 * power of two so indexing is a mask.
 */
class GlobalHistory
{
  public:
    /**
     * @param capacity Minimum number of past outcomes that must remain
     *                 addressable (the predictor needs maxHist + 1).
     */
    explicit GlobalHistory(size_t capacity)
    {
        size_t cap = 1;
        while (cap < capacity + 1)
            cap <<= 1;
        buf_.assign(cap, 0);
        mask_ = cap - 1;
        head_ = 0;
    }

    /** Record a new outcome; it becomes index 0. */
    void
    push(bool taken)
    {
        head_ = (head_ + 1) & mask_;
        buf_[head_] = taken ? 1 : 0;
    }

    /** Outcome @p i branches ago (0 == most recent). */
    uint8_t
    operator[](size_t i) const
    {
        TAGECON_ASSERT(i <= mask_, "history index exceeds capacity");
        return buf_[(head_ - i) & mask_];
    }

    /** Number of addressable past outcomes. */
    size_t capacity() const { return mask_; }

    /**
     * True when both rings hold the same outcome at every distance;
     * where each head sits is not architectural.
     */
    bool
    operator==(const GlobalHistory& other) const
    {
        if (mask_ != other.mask_)
            return false;
        for (size_t i = 0; i <= mask_; ++i)
            if ((*this)[i] != other[i])
                return false;
        return true;
    }

    /**
     * Copy the @p count most recent outcomes to @p dst, oldest first:
     * dst[count - 1 - i] = (*this)[i]. The ring wraps at most once
     * inside the copied range, so this is at most two memcpy()s.
     */
    void
    copyNewest(uint8_t* dst, size_t count) const
    {
        TAGECON_ASSERT(count <= mask_ + 1, "history copy exceeds capacity");
        const size_t oldest = (head_ + 1 - count) & mask_;
        const size_t first = std::min(count, mask_ + 1 - oldest);
        std::memcpy(dst, buf_.data() + oldest, first);
        std::memcpy(dst + first, buf_.data(), count - first);
    }

    /** Clear all history to not-taken. */
    void
    clear()
    {
        std::fill(buf_.begin(), buf_.end(), 0);
        head_ = 0;
    }

    /**
     * Checkpoint encoding of the ring: a u32 outcome count
     * (capacity() + 1), then every outcome oldest first, packed eight
     * to a byte, LSB first. Only head-relative positions are written:
     * where the head sits is not architectural, every read is relative
     * to it.
     */
    void
    saveState(StateWriter& out) const
    {
        const size_t n = buf_.size();
        out.u32(static_cast<uint32_t>(n));
        uint8_t* packed = out.grow((n + 7) / 8);
        // Outcome i, oldest first, sits in slot (head_ + 1 + i) & mask_.
        const size_t oldest = (head_ + 1) & mask_;
        for (size_t i = 0; i < n; i += 8) {
            const size_t at = (oldest + i) & mask_;
            uint64_t slots = 0;
            if (at + 8 <= n) {
                slots = loadLe<uint64_t>(buf_.data() + at);
            } else {
                for (size_t k = 0; k < std::min<size_t>(8, n - i); ++k)
                    slots |= uint64_t{buf_[(at + k) & mask_]} << (8 * k);
            }
            // Slot k holds 0 or 1 in byte k; the multiply gathers byte
            // k's low bit into bit 56 + k without carries.
            packed[i / 8] =
                static_cast<uint8_t>((slots * 0x0102040810204080ULL) >> 56);
        }
    }

    /**
     * Replace the ring with one written by saveState(). False, with
     * the ring cleared, when the stored count is not capacity() + 1 or
     * the bytes run out; @p in's ok() then tells the two apart.
     */
    bool
    loadState(StateReader& in)
    {
        const size_t n = buf_.size();
        const uint8_t* packed =
            in.u32() == n ? in.next((n + 7) / 8) : nullptr;
        if (packed == nullptr) {
            clear();
            return false;
        }
        // Outcome i goes to slot i, so the newest lands in slot mask_.
        for (size_t i = 0; i < n; i += 8) {
            // Spread the byte's bit k into byte k, then turn each
            // nonzero byte into 1; no byte carries into the next.
            uint64_t slots = (packed[i / 8] * 0x0101010101010101ULL) &
                             0x8040201008040201ULL;
            slots = ((slots + 0x7F7F7F7F7F7F7F7FULL) >> 7) &
                    0x0101010101010101ULL;
            uint8_t bytes[8];
            storeLe(bytes, slots);
            std::memcpy(buf_.data() + i, bytes, std::min<size_t>(8, n - i));
        }
        head_ = mask_;
        return true;
    }

  private:
    std::vector<uint8_t> buf_;
    size_t mask_;
    size_t head_;
};

/**
 * Incrementally folded view of the most recent @c origLength bits of a
 * GlobalHistory, compressed by XOR into @c compLength bits. This is the
 * classic TAGE/OGEHL circular-shift-register trick: each branch updates
 * the fold in O(1) instead of re-XOR-ing origLength bits.
 *
 * Usage: after every GlobalHistory::push(), call update() exactly once.
 */
class FoldedHistory
{
  public:
    FoldedHistory() = default;

    /**
     * @param orig_length Number of history bits folded (the component's
     *                    geometric history length L(i)).
     * @param comp_length Width of the folded result in bits (the table's
     *                    log2(#entries) for indices, tag width for tags).
     */
    FoldedHistory(int orig_length, int comp_length)
        : origLength_(orig_length), compLength_(comp_length),
          outPoint_(orig_length % comp_length)
    {
        TAGECON_ASSERT(comp_length > 0 && comp_length < 32,
                       "folded width out of range");
        TAGECON_ASSERT(orig_length >= 0, "negative history length");
    }

    /**
     * Fold in the newest bit and fold out the bit that just left the
     * window. Must be called once per GlobalHistory::push(), after it.
     */
    void
    update(const GlobalHistory& h)
    {
        comp_ = (comp_ << 1) | h[0];
        // The bit that was at position origLength-1 before the push is
        // now at origLength; remove its contribution.
        comp_ ^= static_cast<uint32_t>(
            h[static_cast<size_t>(origLength_)]) << outPoint_;
        comp_ ^= comp_ >> compLength_;
        comp_ &= (1u << compLength_) - 1u;
    }

    /** Current folded value (compLength bits). */
    uint32_t value() const { return comp_; }

    /** Folded width in bits. */
    int compLength() const { return compLength_; }

    /** History length being folded. */
    int origLength() const { return origLength_; }

    /** Reset the fold (history cleared). */
    void clear() { comp_ = 0; }

    /**
     * Overwrite the fold register with a checkpointed value (masked).
     * Only meaningful together with restoring the GlobalHistory the
     * fold views.
     */
    void
    restore(uint32_t comp)
    {
        comp_ = comp & ((1u << compLength_) - 1u);
    }

    /**
     * Recompute the fold from scratch; O(origLength). Used by tests to
     * validate the incremental update and after GlobalHistory::clear().
     */
    void
    recompute(const GlobalHistory& h)
    {
        comp_ = 0;
        for (int i = origLength_ - 1; i >= 0; --i) {
            comp_ = (comp_ << 1) | h[static_cast<size_t>(i)];
            comp_ ^= comp_ >> compLength_;
            comp_ &= (1u << compLength_) - 1u;
        }
    }

  private:
    uint32_t comp_ = 0;
    int origLength_ = 0;
    int compLength_ = 1;
    int outPoint_ = 0;
};

/**
 * Three folded views of the same history window, fused into one
 * cache-line-friendly struct. A TAGE component needs exactly this
 * triple — an index fold (logEntries bits) plus two tag folds
 * (tagBits and tagBits-1) — all over the component's history length
 * L(i). Fusing them means one pair of ring-buffer reads per component
 * per branch instead of three, and one contiguous array for all
 * per-table fold state instead of three parallel vectors.
 *
 * Each component's fold step is bit-identical to FoldedHistory::update.
 */
class FoldedHistoryTriple
{
  public:
    FoldedHistoryTriple() = default;

    /**
     * @param orig_length History window folded by all three components.
     * @param len_a Folded width of component a (table index fold).
     * @param len_b Folded width of component b (tag fold).
     * @param len_c Folded width of component c (tag - 1 fold).
     */
    FoldedHistoryTriple(int orig_length, int len_a, int len_b, int len_c)
        : origLength_(orig_length), lenA_(static_cast<uint8_t>(len_a)),
          lenB_(static_cast<uint8_t>(len_b)),
          lenC_(static_cast<uint8_t>(len_c)),
          outA_(static_cast<uint8_t>(orig_length % len_a)),
          outB_(static_cast<uint8_t>(orig_length % len_b)),
          outC_(static_cast<uint8_t>(orig_length % len_c))
    {
        TAGECON_ASSERT(len_a > 0 && len_a < 32, "folded width out of range");
        TAGECON_ASSERT(len_b > 0 && len_b < 32, "folded width out of range");
        TAGECON_ASSERT(len_c > 0 && len_c < 32, "folded width out of range");
        TAGECON_ASSERT(orig_length >= 0, "negative history length");
    }

    /**
     * Fold the newest bit in and the bit leaving the window out of all
     * three components. Must be called once per GlobalHistory::push(),
     * after it. The two history reads are shared by the components.
     */
    void
    update(const GlobalHistory& h)
    {
        updateWithBits(h[0],
                       h[static_cast<size_t>(origLength_)]);
    }

    /**
     * One update step with the window bits supplied by the caller —
     * the batched TAGE path reads them from a block-local outcome
     * window instead of the GlobalHistory ring. Must see exactly the
     * bits update() would read: @p in_bit == h[0] and @p out_bit ==
     * h[origLength] after the corresponding push.
     */
    void
    updateWithBits(uint32_t in_bit, uint32_t out_bit)
    {
        a_ = foldStep(a_, in_bit, out_bit, lenA_, outA_);
        b_ = foldStep(b_, in_bit, out_bit, lenB_, outB_);
        c_ = foldStep(c_, in_bit, out_bit, lenC_, outC_);
    }

    /** Current index-fold value (len_a bits). */
    uint32_t a() const { return a_; }

    /** Current tag-fold value (len_b bits). */
    uint32_t b() const { return b_; }

    /** Current tag-1-fold value (len_c bits). */
    uint32_t c() const { return c_; }

    bool operator==(const FoldedHistoryTriple&) const = default;

    /** History length being folded. */
    int origLength() const { return origLength_; }

    /** Reset all three folds (history cleared). */
    void clear() { a_ = b_ = c_ = 0; }

    /**
     * Overwrite the three fold registers with checkpointed values
     * (masked to each component's width). Only meaningful together
     * with restoring the GlobalHistory the folds view.
     */
    void
    restore(uint32_t a, uint32_t b, uint32_t c)
    {
        a_ = a & ((1u << lenA_) - 1u);
        b_ = b & ((1u << lenB_) - 1u);
        c_ = c & ((1u << lenC_) - 1u);
    }

  private:
    /** One FoldedHistory::update step on a raw comp value. */
    static uint32_t
    foldStep(uint32_t comp, uint32_t in, uint32_t out, int len,
             int out_point)
    {
        comp = (comp << 1) | in;
        comp ^= out << out_point;
        comp ^= comp >> len;
        comp &= (1u << len) - 1u;
        return comp;
    }

    uint32_t a_ = 0;
    uint32_t b_ = 0;
    uint32_t c_ = 0;
    int32_t origLength_ = 0;
    uint8_t lenA_ = 1;
    uint8_t lenB_ = 1;
    uint8_t lenC_ = 1;
    uint8_t outA_ = 0;
    uint8_t outB_ = 0;
    uint8_t outC_ = 0;
};

/**
 * Path history: low-order PC bits of recent branches, as used by the
 * TAGE index hash to decorrelate branches that share global outcome
 * history.
 */
class PathHistory
{
  public:
    /** @param bits Width of the kept path history (<= 32). */
    explicit PathHistory(int bits = 16)
        : bits_(bits)
    {
        TAGECON_ASSERT(bits > 0 && bits <= 32, "path history width");
    }

    /** Shift in one PC bit (conventionally pc bit 0 after alignment). */
    void
    push(uint64_t pc)
    {
        path_ = ((path_ << 1) | (static_cast<uint32_t>(pc) & 1u)) &
                ((bits_ >= 32) ? ~0u : ((1u << bits_) - 1u));
    }

    /** Current path register value. */
    uint32_t value() const { return path_; }

    /** Overwrite the register with a checkpointed value (masked). */
    void
    restore(uint32_t v)
    {
        path_ = v & ((bits_ >= 32) ? ~0u : ((1u << bits_) - 1u));
    }

    /** Clear the register. */
    void clear() { path_ = 0; }

  private:
    uint32_t path_ = 0;
    int bits_;
};

} // namespace tagecon

#endif // TAGECON_UTIL_GLOBAL_HISTORY_HPP
