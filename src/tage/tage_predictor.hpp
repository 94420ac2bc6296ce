/**
 * @file
 * The TAGE conditional branch predictor (Seznec & Michaud, JILP 2006),
 * as described in Sec. 3 of the paper: a bimodal base predictor backed
 * by M partially-tagged components indexed with geometrically
 * increasing global history lengths, with USE_ALT_ON_NA alternate
 * prediction, useful-counter driven allocation and graceful aging.
 *
 * The Sec. 6 modification — probabilistic transition into the
 * saturated counter state — is implemented behind
 * TageConfig::probabilisticSaturation, with a predictor-owned LFSR as
 * the randomness source (as cheap hardware would use).
 */

#ifndef TAGECON_TAGE_TAGE_PREDICTOR_HPP
#define TAGECON_TAGE_TAGE_PREDICTOR_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "tage/tage_config.hpp"
#include "tage/tage_prediction.hpp"
#include "util/global_history.hpp"
#include "util/random.hpp"
#include "util/saturating_counter.hpp"
#include "util/state_io.hpp"

namespace tagecon {

/**
 * TAGE predictor. Usage per branch:
 *
 *   TagePrediction p = predictor.predict(pc);
 *   ... grade p with a ConfidenceObserver, consume p.taken ...
 *   predictor.update(pc, p, actual_taken);
 *
 * predict()/update() must alternate for the history folding to stay
 * consistent; update() trains the provider, manages allocation, and
 * advances all speculative histories with the resolved outcome.
 *
 * A lookup (each table's index and partial tag) lives in the
 * predictor's lookup rows, not in the TagePrediction: one row per
 * table, kBatchBlock elements wide, holding arena offsets and tags.
 * predictMany() fills the rows for a whole block in one table-major
 * pass and resolves each element from them; predict() is a block of
 * one that fills element 0, which the paired update() trains from.
 *
 * A lookup depends only on the PCs, the outcomes and the lookup
 * geometry (TageConfig::sameLookupGeometry()), so predictors of one
 * geometry stepping one stream fill identical rows. A follower
 * (follow()) fills none: it resolves and trains each block from its
 * leader's rows, right after the leader indexed it, and takes the
 * leader's histories when it stops following.
 */
class TagePredictor
{
  public:
    /** Build a predictor; panics when TageConfig::validate() fails. */
    explicit TagePredictor(TageConfig config, uint16_t lfsr_seed = 0x1d4e);

    /**
     * Compute the prediction and its observable internals for @p pc.
     * The lookup goes to element 0 of the lookup rows, with the same
     * hash code a predictMany() block runs.
     */
    TagePrediction predict(uint64_t pc);

    /**
     * Train with the resolved outcome and advance the histories. @p p
     * must be the object returned by the immediately preceding
     * predict(pc): update() trains from that lookup, and panics when
     * no predict() is pending or @p pc is not its pc.
     */
    void update(uint64_t pc, const TagePrediction& p, bool taken);

    /**
     * Fused batched step: for each element k, produce in out[k] the
     * prediction the scalar predict(pcs[k]) would have returned and
     * train with taken[k], bit-identical to the scalar
     * predict/update loop over the batch (predictions inside the
     * batch observe the earlier elements' updates). Every field of
     * out[k] is written. A predict() left pending is dropped: the
     * next update() must follow a new predict().
     *
     * The batch is processed in blocks of kBatchBlock, each in two
     * passes. First every table's lookup row is filled for the whole
     * block: lookups depend only on the PCs and the outcome stream,
     * never on table contents, so every table's fold registers step
     * together through the block (one SIMD lane group per table per
     * element) and the hashes then run as uniform vector passes, table
     * by table. Then each element is resolved from its column of the
     * rows and trained, in input order: lookupBlock(), then
     * resolveBlock() over the whole block.
     */
    void predictMany(std::span<const uint64_t> pcs,
                     std::span<const uint8_t> taken,
                     std::span<TagePrediction> out);

    /**
     * The index pass of one block of at most kBatchBlock elements:
     * fill every lookup row for @p pcs and advance the histories
     * through the outcomes @p taken. On a follower nothing is indexed:
     * the block must be the one its leader indexed last (the same
     * spans), and it panics otherwise. Elements [0, pcs.size()) are
     * then resolved, in order, by resolveBlock() or by fillElement()
     * and trainElement(). A pending predict() is dropped.
     */
    void lookupBlock(std::span<const uint64_t> pcs,
                     std::span<const uint8_t> taken);

    /**
     * Resolve elements [@p from, @p to) of the block lookupBlock()
     * last took, in order: fill out[k] from the tables as they stand
     * after element k - 1 trained, then train it with taken[k].
     * @p taken and @p out are indexed like the block.
     */
    void resolveBlock(size_t from, size_t to,
                      std::span<const uint8_t> taken,
                      std::span<TagePrediction> out);

    /**
     * resolveBlock() of element @p k in two halves, for a caller that
     * acts between them (the adaptive controller sets the saturation
     * probability the element trains with): fill @p p, then train.
     */
    void fillElement(size_t k, TagePrediction& p) const;
    void trainElement(size_t k, const TagePrediction& p, bool taken);

    /**
     * True when @p leader can lead this predictor (follow()): another
     * predictor of this lookup geometry, neither of them following,
     * that stands where this one does in its stream (the same history
     * ring, path register and folds), so that its lookups are the ones
     * this predictor would make.
     */
    bool canFollow(const TagePredictor& leader) const;

    /**
     * Resolve from @p leader's lookup rows instead of indexing (see
     * lookupBlock()); both then step one stream block by block, the
     * leader first. Panics unless canFollow(@p leader), naming a
     * leader of another lookup geometry apart. predict() panics while
     * following, as do saveState() and a lookupBlock() that names any
     * block but the one the leader indexed last, or misses one.
     */
    void follow(const TagePredictor& leader);

    /**
     * Stop following: take the leader's history ring, path register,
     * folds and lookup rows, so that from here on this predictor,
     * saveState() included, equals one that ran the stream alone.
     * Panics unless it follows a leader that indexed no block it has
     * not resolved.
     */
    void stopFollowing();

    /**
     * predictMany() processing-block size, and the width of the lookup
     * rows. One block's rows (an arena offset and a tag per table and
     * element, ~8.5 KB at 16 tables) and the caller's TagePrediction
     * scratch stay L1-resident between the index pass and the resolve
     * pass.
     */
    static constexpr size_t kBatchBlock = 64;

    /** One table's part of a lookup (tests / introspection). */
    struct Lookup {
        /** Index into the table; table 0 is the bimodal table. */
        uint32_t index = 0;

        /** Partial tag; 0 for the bimodal table. */
        uint16_t tag = 0;
    };

    /**
     * Table @p table's part of the lookup the last predict() made (or
     * of the first element of the last predictMany() block). On a
     * follower, the lookup of the leader's rows it resolved from.
     */
    Lookup lastLookup(int table) const;

    /** The configuration this predictor was built with. */
    const TageConfig& config() const { return config_; }

    /** Total storage in bits (prediction state only). */
    uint64_t storageBits() const { return config_.storageBits(); }

    /**
     * Change the saturation probability at run time (used by the
     * adaptive controller of Sec. 6.2). Only meaningful when the
     * config enables probabilisticSaturation.
     */
    void setSatLog2Prob(unsigned log2_prob);

    /** Current log2 of the inverse saturation probability. */
    unsigned satLog2Prob() const { return config_.satLog2Prob; }

    /** Value of the USE_ALT_ON_NA counter (introspection/tests). */
    int useAltOnNa() const { return useAltOnNa_.value(); }

    /** Number of tagged-entry allocations performed so far. */
    uint64_t allocations() const { return allocations_; }

    /** Number of update() calls so far. */
    uint64_t updates() const { return updates_; }

    /**
     * Reset all tables, counters and histories to the initial state;
     * a follower stops following without taking its leader's state.
     */
    void reset();

    /**
     * Value snapshot of one tagged-component entry (tests /
     * introspection). The live storage is packed (see the SoA arenas
     * below); this view materializes full counter objects on demand.
     */
    struct TaggedEntry {
        SignedSatCounter ctr{3, 0};
        uint16_t tag = 0;
        UnsignedSatCounter u{2, 0};
    };

    /** Snapshot of a tagged entry (tests / introspection). */
    TaggedEntry taggedEntry(int table, uint32_t index) const;

    /** Snapshot of a bimodal counter (tests / introspection). */
    UnsignedSatCounter bimodalEntry(uint32_t index) const;

    /**
     * Serialize the complete architectural state — packed SoA arenas
     * (ctr/tag/u/bimodal), history ring, fused fold registers, path
     * history, USE_ALT_ON_NA, the LFSR and all counters — prefixed by
     * a geometry fingerprint, so loadState() on an identical config
     * continues bit-identically to a predictor that never stopped.
     * Panics on a follower, whose histories are its leader's until
     * stopFollowing().
     */
    void saveState(StateWriter& out) const;

    /**
     * Restore state written by saveState(). Every architectural field
     * is overwritten, so restoring into a used predictor equals
     * restoring into a fresh one. Returns false (leaving the predictor
     * reset()) when the blob is truncated, was written by a
     * differently-configured predictor, or carries a value saveState()
     * never writes (a saturation probability above 15, an aging
     * countdown outside [1, uResetPeriod]), with the reason in
     * @p error. A follower stops following.
     */
    bool loadState(StateReader& in, std::string& error);

  private:
    /**
     * Per-table lookup constants, precomputed at construction into one
     * flat array so the per-branch loops never chase config_.tagged[]
     * or re-derive rotation/shift amounts.
     */
    struct TableMeta {
        /** Start of this table's entries in the SoA arenas. */
        uint32_t offset = 0;

        /** (1 << logEntries) - 1. */
        uint32_t indexMask = 0;

        /** (1 << tagBits) - 1. */
        uint32_t tagMask = 0;

        /** maskBits(min(historyLength, pathHistoryBits)). */
        uint32_t pathMask = 0;

        /** log2 of the entry count. */
        uint8_t logEntries = 0;

        /** Path-hash rotation: table % logEntries. */
        uint8_t rot = 0;

        /** PC self-shear shift in the index hash: logEntries - rot. */
        uint8_t idxShift = 0;

        /** The table's history length L(i). */
        uint32_t historyLength = 0;

        /**
         * Constants of the four-lane fold step (simd::foldStep4) in
         * advanceAndIndexBlock(). The lanes are the table's index fold,
         * tag fold, tag-1 fold and a copy of the index fold, each of
         * some width w: foldHalf holds (1 << (w - 1)) - 1, foldWrap
         * (1 << w) | 1, and foldOutBit the out-bit 1 << (L(i) % w).
         */
        uint32_t foldHalf[4] = {};
        uint32_t foldWrap[4] = {};
        uint32_t foldOutBit[4] = {};
    };

    /**
     * Fill every field of @p p from the current table state and one
     * element's column of the lookup rows: @p at and @p tag point at
     * its row-0 entries, table i's at [i * kBatchBlock]. Always
     * inlined, with train(), into the resolve loop, also at -O2.
     */
    [[gnu::always_inline]] inline void
    fillFromTables(TagePrediction& p, const uint32_t* at,
                   const uint32_t* tag) const;

    /**
     * Training half of update() for the element whose column @p at and
     * @p tag point at: everything except the history advance.
     */
    [[gnu::always_inline]] inline void
    train(const TagePrediction& p, const uint32_t* at, const uint32_t* tag,
          bool taken);

    /**
     * The lookup rows resolve and train read: a follower's leader's,
     * else this predictor's own.
     */
    const TagePredictor&
    rows() const
    {
        return leader_ != nullptr ? *leader_ : *this;
    }

    /** Advance global/path histories and all fold registers. */
    void advanceHistories(uint64_t pc, bool taken);

    /**
     * Index pass of one predictMany() block: fill elements [0, n) of
     * every lookup row with exactly the lookup its scalar predict()
     * would make after elements [0, k) resolved, advancing all
     * histories through the block as a side effect.
     */
    void advanceAndIndexBlock(std::span<const uint64_t> pcs,
                              std::span<const uint8_t> taken);

    /**
     * Hash tagged table @p table's row for elements [0, rows) from
     * the table's fold streams (@p fa, @p fb, @p fc: the index, tag
     * and tag-1 folds as each element reads them) and the per-element
     * path register values and shifted PC words, @p Lanes (a uint32_t
     * or a vector of them) at a time. @p rows is a multiple of the
     * lane count and every input holds that many values.
     */
    template <typename Lanes>
    void hashRow(int table, size_t rows, const uint32_t* fa,
                 const uint32_t* fb, const uint32_t* fc,
                 const uint32_t* path, const uint32_t* pc_lo,
                 const uint32_t* pc_hi);

    /** Bimodal table index. */
    uint32_t bimodalIndex(uint64_t pc) const;

    /**
     * Update the tagged prediction counter at arena position @p at
     * toward @p taken, applying the Sec. 6 probabilistic saturation
     * gate when enabled.
     */
    void updateTaggedCtr(uint32_t at, bool taken);

    /**
     * Allocate at most one entry above the provider on misprediction,
     * among the entries of the element whose column @p at and @p tag
     * point at.
     */
    void allocate(const TagePrediction& p, const uint32_t* at,
                  const uint32_t* tag, bool taken);

    /** Graceful periodic aging of all useful counters. */
    void ageUsefulCounters();

    TageConfig config_;

    /**
     * Packed per-table storage (structure-of-arrays). A tagged entry
     * is 3 bytes across two arenas — a uint16_t tag plus the ctr and u
     * counters packed into one byte with the packed::ctru* ops —
     * instead of a ~24-byte entry of counter objects; a bimodal
     * counter is one byte. Tables are laid out back to back; table i
     * owns [meta_[i].offset, meta_[i].offset + meta_[i].indexMask].
     */
    std::vector<uint8_t> bimodal_;
    std::vector<uint16_t> tag_;
    std::vector<uint8_t> ctru_;

    std::vector<TableMeta> meta_; // [1..M], [0] unused

    GlobalHistory history_;
    PathHistory pathHistory_;

    /** Fused index/tag/tag-1 folds, one contiguous struct per table. */
    std::vector<FoldedHistoryTriple> folds_; // [1..M], [0] unused

    SignedSatCounter useAltOnNa_;
    Lfsr16 lfsr_;
    uint16_t lfsrSeed_;

    uint64_t updates_ = 0;
    uint64_t allocations_ = 0;

    /**
     * Branches until the next graceful useful-counter reset; reloaded
     * from config_.uResetPeriod (0 disables aging). Replaces a per-
     * update 64-bit modulo on the hot path.
     */
    uint64_t uResetCountdown_ = 0;

    /**
     * The lookup rows: row i (kBatchBlock elements from i * kBatchBlock)
     * holds each element's arena offset in tagged table i, and row 0
     * its bimodal index. lookupTag_ holds the partial tags in the same
     * layout (row 0 unused). Scratch, not architectural state, so
     * excluded from saveState().
     */
    std::vector<uint32_t> lookupAt_;
    std::vector<uint32_t> lookupTag_;

    /** The pc of the predict() an update() may pair with. */
    std::optional<uint64_t> pendingPc_;

    /**
     * Elements of the block lookupBlock() last took; 0 after predict()
     * (the rows then hold a scalar lookup) and after reset().
     */
    size_t blockLen_ = 0;

    /**
     * Leader side: index passes run so far (blocks and predict()s),
     * and where the spans of the block indexed last start (null after
     * a predict()), which a follower's lookupBlock() must name. Only
     * compared, never read through.
     */
    uint64_t indexPasses_ = 0;
    const uint64_t* blockPcs_ = nullptr;
    const uint8_t* blockTaken_ = nullptr;

    /**
     * Follower side: the leader, or null, and the leader's
     * indexPasses_ at the block resolved last (or at follow()).
     */
    const TagePredictor* leader_ = nullptr;
    uint64_t leaderPasses_ = 0;

    /**
     * predictMany() scratch: one block's outcome window laid behind
     * the pre-block history bits (see advanceAndIndexBlock()), as
     * bytes and, for the SIMD fold, as all-ones/zero words; not
     * architectural state, excluded from saveState().
     */
    std::vector<uint8_t> batchWindow_;
    std::vector<uint32_t> batchWords_;
};

} // namespace tagecon

#endif // TAGECON_TAGE_TAGE_PREDICTOR_HPP
