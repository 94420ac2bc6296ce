#include "tage/tage_predictor.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/bit_utils.hpp"
#include "util/logging.hpp"
#include "util/simd.hpp"

namespace tagecon {

namespace {

/** Initial bimodal counter value: weakly taken. */
unsigned
bimodalInit(int bits)
{
    return 1u << (bits - 1); // e.g. 2 for a 2-bit counter
}

// The SIMD fold and hash steps take four elements at a time; a block
// shorter than kBatchBlock then still has the rows and window words it
// runs into.
static_assert(TagePredictor::kBatchBlock % 4 == 0,
              "fold steps come in fours");

// The block's hash pass runs on four-lane vectors where the vector
// extensions are in, so it is vector code at any optimization level,
// and one element at a time in the TAGECON_NO_SIMD build. Every
// operation the hash uses means the same on a lane as on a uint32_t,
// so one source serves both, and predict() runs it on one uint32_t.
#if defined(TAGECON_SIMD_LANES)
using HashLanes = simd::U32x4;
#else
using HashLanes = uint32_t;
#endif
constexpr size_t kHashLanes = sizeof(HashLanes) / sizeof(uint32_t);

/** Load the lanes of a @p V from @p p (no alignment required). */
template <typename V>
inline V
loadLanes(const uint32_t* p)
{
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** Store the lanes of @p v to @p p (no alignment required). */
template <typename V>
inline void
storeLanes(uint32_t* p, V v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * Rotate the @p width-bit value @p v left by @p rot < @p width. A zero
 * @p rot needs no branch: v < 2^width makes v >> width zero.
 */
template <typename V>
inline V
rotlMasked(V v, unsigned rot, unsigned width, uint32_t mask)
{
    return ((v << rot) | (v >> (width - rot))) & mask;
}

} // namespace

TagePredictor::TagePredictor(TageConfig config, uint16_t lfsr_seed)
    : config_(std::move(config)),
      history_(static_cast<size_t>(config_.maxHistoryLength()) + 2),
      pathHistory_(config_.pathHistoryBits),
      useAltOnNa_(config_.useAltOnNaBits, 0),
      lfsr_(lfsr_seed), lfsrSeed_(lfsr_seed)
{
    const Err invalid = config_.validate();
    TAGECON_ASSERT(invalid.ok(), invalid.message());

    bimodal_.resize(size_t{1} << config_.logBimodalEntries);

    const int m = config_.numTaggedTables();
    meta_.resize(static_cast<size_t>(m) + 1);
    folds_.resize(static_cast<size_t>(m) + 1);
    uint32_t offset = 0;
    for (int i = 1; i <= m; ++i) {
        const auto& tc = config_.tagged[static_cast<size_t>(i - 1)];
        TableMeta& t = meta_[static_cast<size_t>(i)];
        t.offset = offset;
        t.indexMask = static_cast<uint32_t>(maskBits(tc.logEntries));
        t.tagMask = static_cast<uint32_t>(maskBits(tc.tagBits));
        t.pathMask = static_cast<uint32_t>(maskBits(
            std::min(tc.historyLength, config_.pathHistoryBits)));
        t.logEntries = static_cast<uint8_t>(tc.logEntries);
        t.rot = static_cast<uint8_t>(i % tc.logEntries);
        t.idxShift = static_cast<uint8_t>(tc.logEntries - t.rot);
        t.historyLength = static_cast<uint32_t>(tc.historyLength);
        const int widths[4] = {tc.logEntries, tc.tagBits, tc.tagBits - 1,
                               tc.logEntries};
        for (int lane = 0; lane < 4; ++lane) {
            const int w = widths[lane];
            t.foldHalf[lane] = (1u << (w - 1)) - 1u;
            t.foldWrap[lane] = (1u << w) | 1u;
            t.foldOutBit[lane] = 1u << (tc.historyLength % w);
        }
        offset += uint32_t{1} << tc.logEntries;

        folds_[static_cast<size_t>(i)] = FoldedHistoryTriple(
            tc.historyLength, tc.logEntries, tc.tagBits, tc.tagBits - 1);
    }
    tag_.resize(offset);
    ctru_.resize(offset);
    lookupAt_.resize((static_cast<size_t>(m) + 1) * kBatchBlock);
    lookupTag_.resize(lookupAt_.size());
    reset();
}

void
TagePredictor::reset()
{
    // Refill in place: the arenas keep their allocations.
    std::fill(bimodal_.begin(), bimodal_.end(),
              static_cast<uint8_t>(bimodalInit(config_.bimodalCtrBits)));
    std::fill(tag_.begin(), tag_.end(), uint16_t{0});
    std::fill(ctru_.begin(), ctru_.end(), uint8_t{0}); // ctr 0, u 0
    history_.clear();
    pathHistory_.clear();
    for (FoldedHistoryTriple& f : folds_)
        f.clear();
    useAltOnNa_.set(0);
    lfsr_ = Lfsr16(lfsrSeed_);
    updates_ = 0;
    allocations_ = 0;
    uResetCountdown_ = config_.uResetPeriod;
    pendingPc_.reset();
}

uint32_t
TagePredictor::bimodalIndex(uint64_t pc) const
{
    const uint64_t shifted = pc >> config_.instShift;
    return static_cast<uint32_t>(shifted &
                                 maskBits(config_.logBimodalEntries));
}

template <typename Lanes>
void
TagePredictor::hashRow(int table, size_t rows, const uint32_t* fa,
                       const uint32_t* fb, const uint32_t* fc,
                       const uint32_t* path, const uint32_t* pc_lo,
                       const uint32_t* pc_hi)
{
    constexpr size_t kLanes = sizeof(Lanes) / sizeof(uint32_t);
    const TableMeta& t = meta_[static_cast<size_t>(table)];
    const unsigned logg = t.logEntries;
    const unsigned rot = t.rot;
    // 1 <= idxShift <= 24, so the low word of the 64-bit pc >> idxShift
    // takes bits from both halves.
    const unsigned shift = t.idxShift;
    uint32_t* const at_row =
        lookupAt_.data() + static_cast<size_t>(table) * kBatchBlock;
    uint32_t* const tag_row =
        lookupTag_.data() + static_cast<size_t>(table) * kBatchBlock;
    for (size_t k = 0; k < rows; k += kLanes) {
        // Classic TAGE "F" function: fold the path history register
        // into logEntries bits with a table-dependent rotation so
        // components do not alias the same way.
        const Lanes a = loadLanes<Lanes>(path + k) & t.pathMask;
        const Lanes a2 =
            rotlMasked((a >> logg) & t.indexMask, rot, logg, t.indexMask);
        const Lanes path_hash =
            rotlMasked((a & t.indexMask) ^ a2, rot, logg, t.indexMask);
        const Lanes lo = loadLanes<Lanes>(pc_lo + k);
        const Lanes sheared =
            (lo >> shift) | (loadLanes<Lanes>(pc_hi + k) << (32 - shift));
        storeLanes(at_row + k,
                   ((lo ^ sheared ^ loadLanes<Lanes>(fa + k) ^ path_hash) &
                    t.indexMask) +
                       t.offset);
        storeLanes(tag_row + k, (lo ^ loadLanes<Lanes>(fb + k) ^
                                 (loadLanes<Lanes>(fc + k) << 1)) &
                                    t.tagMask);
    }
}

TagePrediction
TagePredictor::predict(uint64_t pc)
{
    // A block of one: element 0 of every row, hashed one lane wide
    // from the live fold registers.
    const uint64_t shifted = pc >> config_.instShift;
    const uint32_t path = pathHistory_.value();
    const uint32_t lo = static_cast<uint32_t>(shifted);
    const uint32_t hi = static_cast<uint32_t>(shifted >> 32);
    lookupAt_[0] = bimodalIndex(pc);
    const int m = config_.numTaggedTables();
    for (int i = 1; i <= m; ++i) {
        const FoldedHistoryTriple& f = folds_[static_cast<size_t>(i)];
        const uint32_t fa = f.a();
        const uint32_t fb = f.b();
        const uint32_t fc = f.c();
        hashRow<uint32_t>(i, 1, &fa, &fb, &fc, &path, &lo, &hi);
    }
    pendingPc_ = pc;

    TagePrediction p;
    fillFromTables(p, 0);
    return p;
}

TagePredictor::Lookup
TagePredictor::lastLookup(int table) const
{
    TAGECON_ASSERT(table >= 0 && table <= config_.numTaggedTables(),
                   "lookup table id out of range");
    const size_t row = static_cast<size_t>(table) * kBatchBlock;
    if (table == 0)
        return Lookup{lookupAt_[0], 0};
    return Lookup{lookupAt_[row] - meta_[static_cast<size_t>(table)].offset,
                  static_cast<uint16_t>(lookupTag_[row])};
}

inline void
TagePredictor::fillFromTables(TagePrediction& p, size_t k) const
{
    const int m = config_.numTaggedTables();
    // Element k's column of the rows: table i's entry at [i * kBatchBlock].
    const uint32_t* const at = lookupAt_.data() + k;
    const uint32_t* const tag = lookupTag_.data() + k;

    const uint8_t bim = bimodal_[at[0]];
    const int bim_bits = config_.bimodalCtrBits;
    p.bimodalTaken = packed::unsignedTaken(bim, bim_bits);
    p.bimodalWeak = packed::unsignedWeak(bim, bim_bits);

    // Find provider (longest matching history) and the alternate: bit
    // i-1 of the mask = "table i's entry holds the wanted tag", so the
    // provider is the highest set bit and the alternate the next one
    // down. The compares run branch-free off the rows; gathering the
    // tags into a vector for one compare stalls on store forwarding.
    uint32_t mask = 0;
    for (int i = 1; i <= m; ++i) {
        const size_t row = static_cast<size_t>(i) * kBatchBlock;
        mask |= static_cast<uint32_t>(tag_[at[row]] == tag[row]) << (i - 1);
    }
    int provider = 0;
    int alt = 0;
    if (mask != 0) {
        provider = std::bit_width(mask);
        mask ^= 1u << (provider - 1);
        if (mask != 0)
            alt = std::bit_width(mask);
    }

    const int ctr_bits = config_.taggedCtrBits;
    if (alt != 0) {
        p.altTaken = packed::signedTaken(packed::ctruCtr(
            ctru_[at[static_cast<size_t>(alt) * kBatchBlock]], ctr_bits));
        p.altIsTagged = true;
        p.altTable = alt;
    } else {
        p.altTaken = p.bimodalTaken;
        p.altIsTagged = false;
        p.altTable = 0;
    }

    if (provider != 0) {
        const int ctr = packed::ctruCtr(
            ctru_[at[static_cast<size_t>(provider) * kBatchBlock]],
            ctr_bits);
        p.providerIsTagged = true;
        p.providerTable = provider;
        p.providerCtr = ctr;
        p.providerStrength = packed::signedStrength(ctr);
        p.providerSaturated = packed::signedSaturated(ctr, ctr_bits);
        p.providerWeak = packed::signedWeak(ctr);
        p.providerPredTaken = packed::signedTaken(ctr);

        // Sec. 3.1: when the provider entry is weak and USE_ALT_ON_NA
        // is non-negative, the alternate prediction is used instead.
        p.usedAlt = config_.useAltOnNa && p.providerWeak &&
                    useAltOnNa_.value() >= 0;
        p.taken = p.usedAlt ? p.altTaken : p.providerPredTaken;
    } else {
        // predictMany() hands in unzeroed structs, so every field is
        // written on this path too.
        p.providerIsTagged = false;
        p.providerTable = 0;
        p.providerCtr = 0;
        p.providerStrength = 0;
        p.providerSaturated = false;
        p.providerWeak = false;
        p.providerPredTaken = p.bimodalTaken;
        p.taken = p.bimodalTaken;
        p.usedAlt = false;
    }
}

inline void
TagePredictor::updateTaggedCtr(uint32_t at, bool taken)
{
    const int bits = config_.taggedCtrBits;
    const uint8_t packed_entry = ctru_[at];
    const int ctr = packed::ctruCtr(packed_entry, bits);
    if (config_.probabilisticSaturation &&
        packed::signedUpdateWouldSaturate(ctr, bits, taken)) {
        // Sec. 6: the transition into the saturated state only happens
        // with probability 1/2^satLog2Prob. All other transitions are
        // unchanged, so the accuracy impact is marginal while a
        // saturated counter now implies a long recent mistake-free run.
        if (!lfsr_.oneIn(config_.satLog2Prob))
            return;
    }
    ctru_[at] = packed::ctruWithCtr(
        packed_entry, packed::signedUpdate(ctr, bits, taken), bits);
}

void
TagePredictor::allocate(const TagePrediction& p, size_t k, bool taken)
{
    const int m = config_.numTaggedTables();
    const int start = p.providerTable + 1;
    if (start > m)
        return;

    // Element k's column of the rows, from table start up.
    const auto at = [&](int table) {
        return lookupAt_[static_cast<size_t>(table) * kBatchBlock + k];
    };
    const int cb = config_.taggedCtrBits;
    bool any_useless = false;
    for (int t = start; t <= m && !any_useless; ++t)
        any_useless = packed::ctruU(ctru_[at(t)], cb) == 0;

    if (!any_useless) {
        // No free entry: gracefully decay the contenders so an
        // allocation will succeed soon (anti-ping-pong).
        for (int t = start; t <= m; ++t) {
            uint8_t& v = ctru_[at(t)];
            v = packed::ctruWithU(
                v, packed::unsignedDec(packed::ctruU(v, cb)), cb);
        }
        return;
    }

    // Choose among useless entries with geometrically decreasing
    // probability from the shortest history up, as in the reference
    // TAGE implementations: each candidate is taken with probability
    // 1/2, falling through to longer histories otherwise.
    int chosen = 0;
    for (int t = start; t <= m; ++t) {
        if (packed::ctruU(ctru_[at(t)], cb) != 0)
            continue;
        chosen = t;
        if (lfsr_.oneIn(1))
            break;
    }

    const uint32_t entry = at(chosen);
    tag_[entry] = static_cast<uint16_t>(
        lookupTag_[static_cast<size_t>(chosen) * kBatchBlock + k]);
    // Weak correct ctr, strong not-useful u.
    ctru_[entry] = packed::ctruPack(taken ? 0 : -1, 0, cb);
    ++allocations_;
}

void
TagePredictor::ageUsefulCounters()
{
    // One-bit right shift of every packed entry's useful field; the
    // ctr field is untouched. Constant masks, so the loop vectorizes.
    const int cb = config_.taggedCtrBits;
    for (uint8_t& v : ctru_)
        v = packed::ctruAgeU(v, cb);
}

inline void
TagePredictor::train(const TagePrediction& p, size_t k, bool taken)
{
    const bool mispredicted = p.taken != taken;

    if (p.providerIsTagged) {
        const uint32_t at =
            lookupAt_[static_cast<size_t>(p.providerTable) * kBatchBlock + k];

        // Manage USE_ALT_ON_NA: on a weak ("pseudo newly allocated")
        // provider whose direction differs from the alternate, learn
        // which of the two tends to be right (Sec. 3.1).
        if (p.providerWeak && p.providerPredTaken != p.altTaken)
            useAltOnNa_.update(p.altTaken == taken);

        updateTaggedCtr(at, taken);

        // Sec. 3.2: u is updated when the alternate prediction differs
        // from the provider prediction.
        if (p.providerPredTaken != p.altTaken) {
            const int cb = config_.taggedCtrBits;
            const uint8_t v = ctru_[at];
            ctru_[at] = packed::ctruWithU(
                v,
                packed::unsignedUpdate(packed::ctruU(v, cb),
                                       config_.usefulBits,
                                       p.providerPredTaken == taken),
                cb);
        }
    } else {
        uint8_t& bim = bimodal_[lookupAt_[k]];
        bim = static_cast<uint8_t>(
            packed::unsignedUpdate(bim, config_.bimodalCtrBits, taken));
    }

    // Sec. 3.3: allocate on mispredictions — but when a weak provider
    // entry was itself correct, it only needs training, not backup.
    bool alloc = mispredicted && p.providerTable < config_.numTaggedTables();
    if (p.providerIsTagged && p.providerWeak &&
        p.providerPredTaken == taken) {
        alloc = false;
    }
    if (alloc)
        allocate(p, k, taken);

    ++updates_;
    if (uResetCountdown_ != 0 && --uResetCountdown_ == 0) {
        ageUsefulCounters();
        uResetCountdown_ = config_.uResetPeriod;
    }
}

void
TagePredictor::advanceHistories(uint64_t pc, bool taken)
{
    // Advance speculative state with the resolved outcome. The fused
    // fold triple updates index and both tag folds with one pair of
    // history reads per table.
    history_.push(taken);
    pathHistory_.push(pc >> config_.instShift);
    const int m = config_.numTaggedTables();
    for (int i = 1; i <= m; ++i)
        folds_[static_cast<size_t>(i)].update(history_);
}

void
TagePredictor::update(uint64_t pc, const TagePrediction& p, bool taken)
{
    TAGECON_ASSERT(pendingPc_ == pc,
                   "TagePredictor::update: pc is not the pc of the "
                   "immediately preceding predict()");
    pendingPc_.reset();
    train(p, 0, taken);
    advanceHistories(pc, taken);
}

void
TagePredictor::advanceAndIndexBlock(std::span<const uint64_t> pcs,
                                    std::span<const uint8_t> taken)
{
    const int m = config_.numTaggedTables();
    const size_t n = pcs.size();
    const size_t lmax =
        static_cast<size_t>(config_.maxHistoryLength());
    TAGECON_ASSERT(n <= kBatchBlock, "index block too large");

    // Lay the block's outcome bits behind the pre-block history
    // window: window[lmax - 1 - j] = h[j] for the lmax newest
    // pre-block outcomes, then window[lmax + k] = outcome k. A fold
    // update for element k then reads its in-bit at lmax + k and its
    // out-bit (the bit leaving the L-wide window) at lmax + k - L, for
    // any L <= lmax — no ring wrap-around to chase.
    if (batchWindow_.size() < lmax + kBatchBlock)
        batchWindow_.resize(lmax + kBatchBlock);
    uint8_t* const window = batchWindow_.data();
    history_.copyNewest(window, lmax);

    // Per-element prep: the bimodal row, each element's shifted PC
    // words and pre-push path register value, and the path register
    // advance. The hash runs in whole lane groups, so the inputs are
    // padded to rows elements.
    const size_t rows = (n + kHashLanes - 1) / kHashLanes * kHashLanes;
    alignas(16) uint32_t pc_lo[kBatchBlock];
    alignas(16) uint32_t pc_hi[kBatchBlock];
    alignas(16) uint32_t path[kBatchBlock];
    for (size_t k = 0; k < n; ++k) {
        const uint64_t shifted = pcs[k] >> config_.instShift;
        lookupAt_[k] = bimodalIndex(pcs[k]);
        pc_lo[k] = static_cast<uint32_t>(shifted);
        pc_hi[k] = static_cast<uint32_t>(shifted >> 32);
        path[k] = pathHistory_.value();
        pathHistory_.push(shifted);
        window[lmax + k] = taken[k] != 0 ? 1 : 0;
    }
    for (size_t k = n; k < rows; ++k)
        pc_lo[k] = pc_hi[k] = path[k] = 0;

    // The fold-value streams — the only serial dependency in the hash:
    // foldA/B/C[i - 1][k] hold table i's index, tag and tag-1 folds as
    // element k reads them, before its own outcome enters.
    alignas(16) uint32_t foldA[kMaxTaggedTables][kBatchBlock];
    alignas(16) uint32_t foldB[kMaxTaggedTables][kBatchBlock];
    alignas(16) uint32_t foldC[kMaxTaggedTables][kBatchBlock];
#if defined(TAGECON_SIMD_LANES)
    // Step all tables together, one four-lane group per table per
    // element, so the tables' chains overlap; four elements at a time,
    // so each table's four fold vectors transpose into the rows above.
    // The window is expanded to all-ones/zero words first: a lane
    // group's out-bit is then a splat and a mask. When n is not a
    // multiple of four the last steps run on past the block (on stale
    // window words), and row n holds the folds after the whole block.
    if (batchWords_.size() < lmax + kBatchBlock)
        batchWords_.resize(lmax + kBatchBlock);
    uint32_t* const words = batchWords_.data();
    for (size_t j = 0; j < lmax + n; ++j)
        words[j] = 0u - window[j];
    simd::U32x4 comp[kMaxTaggedTables];
    for (int i = 1; i <= m; ++i) {
        const FoldedHistoryTriple& f = folds_[static_cast<size_t>(i)];
        comp[i - 1] = simd::U32x4{f.a(), f.b(), f.c(), f.a()};
    }
    for (size_t k = 0; k < rows; k += 4) {
        simd::U32x4 in[4];
        for (size_t j = 0; j < 4; ++j)
            in[j] = simd::splat4(words[lmax + k + j] & 1u);
        for (int i = 1; i <= m; ++i) {
            const TableMeta& t = meta_[static_cast<size_t>(i)];
            const simd::U32x4 out_bit = simd::load4(t.foldOutBit);
            const simd::U32x4 half = simd::load4(t.foldHalf);
            const simd::U32x4 wrap = simd::load4(t.foldWrap);
            const uint32_t* const out_words =
                words + lmax + k - t.historyLength;
            simd::U32x4 v[4];
            simd::U32x4 x = comp[i - 1];
            for (size_t j = 0; j < 4; ++j) {
                v[j] = x;
                x = simd::foldStep4(
                    x, in[j] ^ (simd::splat4(out_words[j]) & out_bit),
                    half, wrap);
            }
            comp[i - 1] = x;
            simd::transpose4x3(v[0], v[1], v[2], v[3]);
            simd::store4(&foldA[i - 1][k], v[0]);
            simd::store4(&foldB[i - 1][k], v[1]);
            simd::store4(&foldC[i - 1][k], v[2]);
        }
    }
    for (int i = 1; i <= m; ++i) {
        FoldedHistoryTriple& f = folds_[static_cast<size_t>(i)];
        if (rows == n)
            f.restore(comp[i - 1][0], comp[i - 1][1], comp[i - 1][2]);
        else
            f.restore(foldA[i - 1][n], foldB[i - 1][n], foldC[i - 1][n]);
    }
#else
    // Table after table, with the fold triple in registers.
    for (int i = 1; i <= m; ++i) {
        FoldedHistoryTriple f = folds_[static_cast<size_t>(i)];
        const size_t L = static_cast<size_t>(f.origLength());
        for (size_t k = 0; k < n; ++k) {
            foldA[i - 1][k] = f.a();
            foldB[i - 1][k] = f.b();
            foldC[i - 1][k] = f.c();
            f.updateWithBits(window[lmax + k], window[lmax + k - L]);
        }
        folds_[static_cast<size_t>(i)] = f;
    }
#endif

    // The hashes, table-major: uniform lane-group passes over the fold
    // and path streams, straight into the table's rows.
    for (int i = 1; i <= m; ++i)
        hashRow<HashLanes>(i, rows, foldA[i - 1], foldB[i - 1],
                           foldC[i - 1], path, pc_lo, pc_hi);

    // The outcomes enter the ring last: the folds already consumed
    // them from the block window, and nothing else reads the ring
    // mid-block.
    for (size_t k = 0; k < n; ++k)
        history_.push(taken[k] != 0);
}

void
TagePredictor::predictMany(std::span<const uint64_t> pcs,
                           std::span<const uint8_t> taken,
                           std::span<TagePrediction> out)
{
    TAGECON_ASSERT(taken.size() >= pcs.size() &&
                       out.size() >= pcs.size(),
                   "predictMany spans disagree on the batch size");
    const size_t n = pcs.size();
    pendingPc_.reset();

    for (size_t at = 0; at < n; at += kBatchBlock) {
        const size_t len = std::min(kBatchBlock, n - at);

        // Pass 1: every table's lookup row, table-major. Lookups
        // depend only on the PCs and the outcome-driven history state
        // — never on table contents — so the histories can be
        // advanced through the whole block up front, leaving each
        // element exactly the lookup its scalar predict() would make.
        advanceAndIndexBlock(pcs.subspan(at, len), taken.subspan(at, len));

        // Pass 2: resolve in input order — read each element's
        // entries as they stand after elements [0, k) trained, then
        // train with its outcome. Training consumes the LFSR and
        // updates USE_ALT_ON_NA and the aging countdown in exactly
        // the scalar order, so both the prediction stream and the
        // final state are bit-identical to the scalar predict/update
        // loop. (Training touches no history state; that already
        // advanced in pass 1.)
        for (size_t k = 0; k < len; ++k) {
            fillFromTables(out[at + k], k);
            train(out[at + k], k, taken[at + k] != 0);
        }
    }
}

void
TagePredictor::setSatLog2Prob(unsigned log2_prob)
{
    TAGECON_ASSERT(log2_prob <= 15, "saturation probability too small");
    config_.satLog2Prob = log2_prob;
}

TagePredictor::TaggedEntry
TagePredictor::taggedEntry(int table, uint32_t index) const
{
    TAGECON_ASSERT(table >= 1 && table <= config_.numTaggedTables(),
                   "tagged table id out of range");
    const TableMeta& t = meta_[static_cast<size_t>(table)];
    TAGECON_ASSERT(index <= t.indexMask, "tagged index out of range");
    const uint32_t at = t.offset + index;
    const int cb = config_.taggedCtrBits;
    return TaggedEntry{
        SignedSatCounter(cb, packed::ctruCtr(ctru_[at], cb)), tag_[at],
        UnsignedSatCounter(config_.usefulBits,
                           packed::ctruU(ctru_[at], cb))};
}

UnsignedSatCounter
TagePredictor::bimodalEntry(uint32_t index) const
{
    TAGECON_ASSERT(index < bimodal_.size(), "bimodal index out of range");
    return UnsignedSatCounter(config_.bimodalCtrBits, bimodal_[index]);
}

void
TagePredictor::saveState(StateWriter& out) const
{
    // Geometry fingerprint: everything loadState() must agree on for
    // the arena sizes and hash functions to line up. The checkpoint
    // layer above additionally matches the canonical spec string; this
    // guards direct saveState()/loadState() use and custom configs.
    const int m = config_.numTaggedTables();
    out.u32(static_cast<uint32_t>(m));
    for (const auto& tc : config_.tagged) {
        out.u8(static_cast<uint8_t>(tc.logEntries));
        out.u8(static_cast<uint8_t>(tc.tagBits));
        out.u32(static_cast<uint32_t>(tc.historyLength));
    }
    out.u8(static_cast<uint8_t>(config_.logBimodalEntries));
    out.u8(static_cast<uint8_t>(config_.bimodalCtrBits));
    out.u8(static_cast<uint8_t>(config_.taggedCtrBits));
    out.u8(static_cast<uint8_t>(config_.usefulBits));
    out.u8(static_cast<uint8_t>(config_.pathHistoryBits));
    out.u8(static_cast<uint8_t>(config_.useAltOnNaBits));
    out.u8(static_cast<uint8_t>(config_.instShift));
    out.u8(config_.useAltOnNa ? 1 : 0);
    out.u8(config_.probabilisticSaturation ? 1 : 0);
    out.u64(config_.uResetPeriod);

    // Dynamic state. satLog2Prob is config-carried but runtime-mutable
    // (the adaptive controller drives it), so it checkpoints as state.
    out.u32(config_.satLog2Prob);
    out.bytes(bimodal_.data(), bimodal_.size());
    out.u16s(tag_.data(), tag_.size());
    out.bytes(ctru_.data(), ctru_.size());

    history_.saveState(out);
    out.u32(pathHistory_.value());
    for (int i = 1; i <= m; ++i) {
        const FoldedHistoryTriple& f = folds_[static_cast<size_t>(i)];
        out.u32(f.a());
        out.u32(f.b());
        out.u32(f.c());
    }

    out.i64(useAltOnNa_.value());
    out.u16(lfsr_.value());
    out.u16(lfsrSeed_);
    out.u64(updates_);
    out.u64(allocations_);
    out.u64(uResetCountdown_);
}

bool
TagePredictor::loadState(StateReader& in, std::string& error)
{
    // The lookup rows are not state: a predict() made before the
    // restore has nothing to pair with after it.
    pendingPc_.reset();
    const int m = config_.numTaggedTables();
    bool geometry_ok = in.u32() == static_cast<uint32_t>(m);
    for (int i = 0; i < m && geometry_ok; ++i) {
        const auto& tc = config_.tagged[static_cast<size_t>(i)];
        geometry_ok =
            in.u8() == static_cast<uint8_t>(tc.logEntries) &&
            in.u8() == static_cast<uint8_t>(tc.tagBits) &&
            in.u32() == static_cast<uint32_t>(tc.historyLength);
    }
    geometry_ok =
        geometry_ok &&
        in.u8() == static_cast<uint8_t>(config_.logBimodalEntries) &&
        in.u8() == static_cast<uint8_t>(config_.bimodalCtrBits) &&
        in.u8() == static_cast<uint8_t>(config_.taggedCtrBits) &&
        in.u8() == static_cast<uint8_t>(config_.usefulBits) &&
        in.u8() == static_cast<uint8_t>(config_.pathHistoryBits) &&
        in.u8() == static_cast<uint8_t>(config_.useAltOnNaBits) &&
        in.u8() == static_cast<uint8_t>(config_.instShift) &&
        in.u8() == (config_.useAltOnNa ? 1 : 0) &&
        in.u8() == (config_.probabilisticSaturation ? 1 : 0) &&
        in.u64() == config_.uResetPeriod;
    if (!in.ok() || !geometry_ok) {
        reset();
        error = in.ok() ? "TAGE state was written by a predictor with "
                          "a different geometry"
                        : "TAGE state is truncated";
        return false;
    }

    // The arenas, ring and fold registers are read straight into the
    // live predictor: every failure below reset()s it anyway, so no
    // staging copy (and no heap allocation) is needed.
    const uint32_t sat_log2 = in.u32();
    in.bytes(bimodal_.data(), bimodal_.size());
    in.u16s(tag_.data(), tag_.size());
    in.bytes(ctru_.data(), ctru_.size());

    if (!history_.loadState(in)) {
        reset();
        error = in.ok() ? "TAGE state carries a history ring of a "
                          "different capacity"
                        : "TAGE state is truncated";
        return false;
    }
    pathHistory_.restore(in.u32());
    for (int i = 1; i <= m; ++i) {
        const uint32_t a = in.u32();
        const uint32_t b = in.u32();
        const uint32_t c = in.u32();
        folds_[static_cast<size_t>(i)].restore(a, b, c);
    }
    const int64_t use_alt = in.i64();
    const uint16_t lfsr = in.u16();
    const uint16_t lfsr_seed = in.u16();
    const uint64_t updates = in.u64();
    const uint64_t allocations = in.u64();
    const uint64_t u_reset_countdown = in.u64();
    if (!in.ok()) {
        reset();
        error = "TAGE state is truncated";
        return false;
    }

    if (sat_log2 > 15) {
        reset();
        error = "TAGE state carries an out-of-range saturation "
                "probability";
        return false;
    }
    // update() keeps the countdown in [1, period] between branches, or
    // at 0 when aging is off; any other value would stall aging.
    const uint64_t period = config_.uResetPeriod;
    if (period == 0 ? u_reset_countdown != 0
                    : u_reset_countdown == 0 || u_reset_countdown > period) {
        reset();
        error = "TAGE state carries a useful-bit aging countdown outside "
                "[1, period]";
        return false;
    }
    config_.satLog2Prob = sat_log2;
    useAltOnNa_.set(static_cast<int>(use_alt));
    lfsr_.setState(lfsr);
    lfsrSeed_ = lfsr_seed;
    updates_ = updates;
    allocations_ = allocations;
    uResetCountdown_ = u_reset_countdown;
    return true;
}

} // namespace tagecon
