/**
 * @file
 * Synthetic program model and trace generator.
 *
 * A workload is a set of "functions"; each function is an ordered list
 * of static branch sites with an outcome behaviour each. Execution
 * repeatedly picks a function (Zipf-skewed popularity, optionally
 * rotating a working set across phases) and runs through its sites in
 * order. This gives the global history the recurring structure that
 * real programs have — which the TAGE tagged components need — while
 * exposing the knobs that drive the paper's effects:
 *
 *  - numFunctions / zipfSkew:   branch footprint -> capacity pressure
 *    (the CBP-1 SERV traces vs. the small 16Kbit predictor);
 *  - behaviour mixture:         fraction of intrinsically unpredictable
 *    branches (twolf/gzip-like) vs. loop/always branches (FP-like);
 *  - loopPeriod range:          long loops are predictable only by the
 *    configurations whose history window covers the period, separating
 *    the 16K/64K/256K predictors exactly like the paper's Table 1;
 *  - phases:                    working-set rotation and behaviour
 *    re-randomization produce the bursty bimodal mispredictions behind
 *    the medium-conf-bim class (Sec. 5.1.2).
 */

#ifndef TAGECON_TRACE_WORKLOAD_HPP
#define TAGECON_TRACE_WORKLOAD_HPP

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "trace/behavior.hpp"
#include "trace/trace_source.hpp"
#include "util/global_history.hpp"
#include "util/random.hpp"

namespace tagecon {

/**
 * Generation parameters for one synthetic trace. The defaults describe
 * a bland mixed-integer workload; profiles.cpp derives the 40 named
 * CBP-1/CBP-2 stand-in profiles from this.
 */
struct ProfileParams {
    /** Display name of the trace (e.g. "FP-1", "300.twolf"). */
    std::string name = "synthetic";

    /** Master seed; every run with the same params is bit-identical. */
    uint64_t seed = 1;

    // --- Program shape -------------------------------------------------
    /** Number of functions (drives static branch footprint). */
    int numFunctions = 32;
    /** Minimum branch sites per function. */
    int minSitesPerFunction = 3;
    /** Maximum branch sites per function; at most 65536. */
    int maxSitesPerFunction = 12;
    /** Zipf popularity skew across functions; 0 = uniform. */
    double zipfSkew = 1.0;
    /** Fraction of functions that stay hot across all phases. */
    double hotFraction = 0.25;
    /**
     * Probability that the next function is taken from the current
     * function's successor list (call-graph locality) instead of a
     * fresh Zipf draw. Locality keeps the global history low-entropy
     * across function boundaries, which is what lets the long-history
     * TAGE components find recurring contexts — as in real programs.
     */
    double callLocality = 0.88;

    // --- Phasing --------------------------------------------------------
    /** Number of rotating working sets; 1 disables phasing. */
    int numPhases = 1;
    /** Branches per phase. */
    uint64_t phaseLength = 200000;
    /** Fraction of sites whose behaviour is redrawn at phase edges. */
    double phasedSiteFraction = 0.0;

    // --- Behaviour mixture (weights, normalized internally) -------------
    double fracAlways = 0.30;     ///< fixed-direction branches
    double fracLoop = 0.25;       ///< loop-closing branches
    double fracPattern = 0.10;    ///< short repeating patterns
    double fracBiased = 0.15;     ///< Bernoulli (unpredictable)
    double fracMarkov = 0.10;     ///< 2-state Markov
    double fracCorrelated = 0.10; ///< global-history parity

    // --- Behaviour parameter ranges --------------------------------------
    uint32_t loopPeriodMin = 3;
    uint32_t loopPeriodMax = 40;
    /** Max sites in a loop body (the sites a taken loop re-executes). */
    int loopBodyMax = 2;
    /** Probability that a loop run's trip count varies by +/-1. */
    double loopTripJitter = 0.08;
    /** Pattern lengths; patternLenMax <= BranchBehavior::kMaxPatternLen. */
    uint32_t patternLenMin = 2;
    uint32_t patternLenMax = 12;
    /** P(taken) range for biased branches (symmetrized around 0.5). */
    double biasMin = 0.55;
    double biasMax = 0.98;
    double markovStayMin = 0.60;
    double markovStayMax = 0.95;
    /** Correlation distances; corrTapMax also sizes the history ring. */
    int corrTapMin = 4;
    int corrTapMax = 60;
    /** Taps per correlated site; corrNumTapsMax <= BranchBehavior::kMaxTaps. */
    int corrNumTapsMin = 1;
    int corrNumTapsMax = 3;
    double corrNoise = 0.02;

    // --- Instruction spacing ---------------------------------------------
    uint32_t instrPerBranchMin = 4;
    uint32_t instrPerBranchMax = 8;
};

/**
 * Synthetic trace source: deterministically generates the branch stream
 * of the program described by a ProfileParams. reset() replays the
 * identical stream.
 *
 * Layout: the whole program is one flat, exact-size array of trivially
 * copyable 32-byte sites, function after function; a small per-function
 * table holds each function's slice of it and its call-graph edges. A
 * site's behaviour is a tagged value with no heap memory of its own, so
 * a trace owns a handful of vectors however large its program, and
 * fill() generates a run of records with no virtual call per branch.
 */
class SyntheticTrace final : public TraceSource
{
  public:
    /**
     * @param params Program description, built by code (the 40
     *               profiles); nonsensical values panic.
     * @param num_branches Number of records the stream will produce.
     */
    SyntheticTrace(ProfileParams params, uint64_t num_branches);

    bool next(BranchRecord& out) override;
    size_t fill(std::span<BranchRecord> out) override;
    void reset() override;
    std::string name() const override { return params_.name; }

    /** Total records this source will produce. */
    uint64_t totalRecords() const { return limit_; }

    /** Number of functions in the built program (introspection). */
    size_t numFunctions() const { return funcs_.size(); }

    /** Total static branch sites in the built program. */
    size_t numSites() const { return sites_.size(); }

    /** Count of sites using the given behaviour kind. */
    size_t countSites(BehaviorKind kind) const;

    /** The generation parameters (read-only). */
    const ProfileParams& params() const { return params_; }

    /** Behaviour kind of the most recently emitted record. */
    BehaviorKind lastKind() const { return lastKind_; }

    /** Whether the most recent record came from a loop-body site. */
    bool lastInBody() const { return lastInBody_; }

  private:
    /** One static conditional branch site: 32 bytes, two per line. */
    struct Site {
        /** Its address; the text segment ends far below 4 GiB. */
        uint32_t pc;
        /**
         * For loop-closing sites: number of following sites forming
         * the loop body, re-executed while the loop branch is taken.
         * Loops iterate *in place*, so their outcomes are adjacent in
         * global history — the structure TAGE learns from.
         */
        uint16_t loopBodyLen;
        /** True when phase edges redraw this site's behaviour. */
        bool phased;
        /** True when this site lives inside a loop body. */
        bool inBody;
        BranchBehavior behavior;
    };

    static_assert(std::is_trivially_copyable_v<Site>,
                  "the site arena is copied as plain bytes");

    /** One function: its slice of sites_ and its call-graph edges. */
    struct Function {
        /** Its sites are sites_[begin, end). */
        uint32_t begin;
        uint32_t end;
        /** Likely successors, by probability 0.7 / 0.2 / 0.1. */
        uint32_t successors[3];
        /** Whether the current phase's working set holds it. */
        bool active;
    };

    /** @p p, checked; panics on nonsensical values. */
    static ProfileParams validated(ProfileParams p);

    void build();
    void buildCallGraph(XorShift128Plus& build_rng);
    BranchBehavior drawBehavior(BehaviorKind kind, XorShift128Plus& rng,
                                bool in_body) const;
    void rebuildSelection();
    void pickNextFunction();
    void rotatePhase();

    /** Generate one record; the stream must not be exhausted. */
    void emit(BranchRecord& out);

    ProfileParams params_;
    uint64_t limit_;

    // Replay state, read on every record; site indices are into sites_.
    XorShift128Plus rng_;
    GlobalHistory history_;
    std::vector<Site> sites_;
    size_t curSite_ = 0;
    size_t funcEnd_ = 0;
    /**
     * The loop whose body is running: head site and last body site. A
     * body site is never a loop head, so loops do not nest.
     */
    size_t loopHead_ = 0;
    size_t loopEnd_ = 0;
    bool inLoop_ = false;
    bool inFunction_ = false;
    bool lastInBody_ = false;
    BehaviorKind lastKind_ = BehaviorKind::Always;
    uint32_t instrMin_ = 0;
    /** instructionsBefore is instrMin_ plus a draw below this. */
    XorShift128Plus::Bound instrSpan_;
    uint64_t emitted_ = 0;
    /** Records left before the next phase edge (phased profiles). */
    uint64_t untilPhaseEdge_ = 0;

    // Function selection, read once per function executed.
    std::vector<Function> funcs_;
    /** The current phase's working set, in Zipf rank order. */
    std::vector<uint32_t> activeFuncs_;
    std::vector<double> selectCdf_;
    size_t lastFunc_ = 0;
    bool haveLastFunc_ = false;
    int curPhase_ = 0;
};

} // namespace tagecon

#endif // TAGECON_TRACE_WORKLOAD_HPP
