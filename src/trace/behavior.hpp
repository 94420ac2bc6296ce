/**
 * @file
 * Per-static-branch outcome models for the synthetic workloads.
 *
 * The paper's evaluation rests on traces mixing branches that are
 *  (a) trivially predictable (always taken / loop exits / short
 *      patterns),
 *  (b) predictable only with global history correlation (possibly very
 *      long correlation distances),
 *  (c) intrinsically unpredictable (data-dependent, i.e. biased coin
 *      flips or Markov processes).
 * Each model here produces one of these behaviours; profiles.cpp mixes
 * them in per-trace proportions.
 */

#ifndef TAGECON_TRACE_BEHAVIOR_HPP
#define TAGECON_TRACE_BEHAVIOR_HPP

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/global_history.hpp"
#include "util/random.hpp"

namespace tagecon {

/** Inputs a behaviour may consult when producing an outcome. */
struct BehaviorContext {
    /** Workload-level RNG modelling data-dependent outcomes. */
    XorShift128Plus& rng;

    /** Global outcome history of the synthetic program (0 = newest). */
    const GlobalHistory& history;
};

/** Discriminator for the behaviour models. */
enum class BehaviorKind : uint8_t {
    Always,     ///< fixed direction
    Loop,       ///< taken (period-1) times, then not-taken once
    Pattern,    ///< repeating fixed outcome sequence
    Biased,     ///< independent Bernoulli draw (unpredictable)
    Markov,     ///< 2-state Markov chain (partially predictable)
    Correlated, ///< parity of global-history taps (history-predictable)
};

/**
 * A static branch's outcome generator. Construct through the factory
 * functions; call nextOutcome() once per dynamic execution.
 *
 * A tagged, trivially copyable value: kind() selects which fields a
 * model uses, and nothing lives on the heap. A pattern holds at most
 * kMaxPatternLen outcomes (one bit each) and a correlated branch at
 * most kMaxTaps taps, both inline.
 */
class BranchBehavior
{
  public:
    /** Longest outcome sequence pattern() accepts. */
    static constexpr uint32_t kMaxPatternLen = 64;

    /** Most history taps correlated() accepts. */
    static constexpr uint32_t kMaxTaps = 4;

    /** Branch with a fixed direction. */
    static BranchBehavior always(bool taken);

    /**
     * Loop-closing branch with trip count @p period: taken period-1
     * consecutive times, then not-taken once. period == 1 degenerates to
     * always-not-taken. With probability @p trip_jitter a run uses
     * period +/- 1 instead (data-dependent trip counts), which makes
     * the loop exit only statistically predictable.
     */
    static BranchBehavior loop(uint32_t period, double trip_jitter = 0.0);

    /**
     * Branch repeating @p pattern forever; pattern must be non-empty
     * and at most kMaxPatternLen long.
     */
    static BranchBehavior pattern(const std::vector<bool>& pattern);

    /**
     * Branch repeating its first @p len outcomes forever, outcome i
     * being bit i of @p outcomes; 1 <= len <= kMaxPatternLen.
     */
    static BranchBehavior pattern(uint64_t outcomes, uint32_t len);

    /**
     * Data-dependent branch: independent Bernoulli with P(taken) =
     * @p p_taken. No predictor can beat max(p, 1-p) on it.
     */
    static BranchBehavior biased(double p_taken);

    /**
     * Two-state Markov chain: P(taken | last was taken) =
     * @p p_stay_taken, P(not-taken | last was not-taken) =
     * @p p_stay_not_taken.
     */
    static BranchBehavior markov(double p_stay_taken,
                                 double p_stay_not_taken);

    /**
     * History-correlated branch: outcome is the XOR parity of the global
     * outcomes at distances @p taps (1 to kMaxTaps of them, each >= 1),
     * inverted when @p invert, and flipped with probability @p noise. A
     * predictor can capture it only if its history window spans
     * max(taps).
     */
    static BranchBehavior correlated(std::span<const uint16_t> taps,
                                     bool invert, double noise);

    /** correlated() over a tap list. */
    static BranchBehavior
    correlated(const std::vector<uint16_t>& taps, bool invert, double noise)
    {
        return correlated(std::span<const uint16_t>(taps), invert, noise);
    }

    /** Produce the outcome for the next dynamic execution. */
    bool nextOutcome(BehaviorContext& ctx);

    /** Which model this is. */
    BehaviorKind kind() const { return kind_; }

    /**
     * Reset mutable state (loop position, pattern position, Markov
     * state) without changing parameters.
     */
    void
    reset()
    {
        pos_ = 0;
        if (kind_ == BehaviorKind::Loop)
            loop_.curPeriod = loop_.period;
        else if (kind_ == BehaviorKind::Markov)
            flag_ = false;
    }

    /**
     * Largest history distance this behaviour reads; 0 for models that
     * ignore history. Introspection only: the workload sizes its
     * history ring from ProfileParams::corrTapMax, which bounds every
     * tap it draws.
     */
    uint16_t maxHistoryTap() const;

  private:
    explicit BranchBehavior(BehaviorKind kind) : kind_(kind) {}

    BehaviorKind kind_;
    /** Always: the direction. Markov: the last outcome. Correlated: invert. */
    bool flag_ = false;
    /** Pattern: its length. Correlated: the number of taps. */
    uint8_t count_ = 0;
    /** Loop: iterations into the current run. Pattern: next outcome. */
    uint32_t pos_ = 0;
    /**
     * Loop: trip jitter. Biased: P(taken). Markov: P(stay taken).
     * Correlated: noise.
     */
    double p_ = 0.0;
    /** The kind's second parameter; only kind_'s member is ever read. */
    union {
        /** Pattern: outcome i is bit i. */
        uint64_t outcomes_ = 0;
        /** Loop: nominal trip count and the current run's. */
        struct {
            uint32_t period;
            uint32_t curPeriod;
        } loop_;
        /** Markov: P(stay not-taken). */
        double q_;
        /** Correlated: the history distances read. */
        uint16_t taps_[kMaxTaps];
    };
};

static_assert(std::is_trivially_copyable_v<BranchBehavior>,
              "a site's behaviour is copied as plain bytes");

inline bool
BranchBehavior::nextOutcome(BehaviorContext& ctx)
{
    switch (kind_) {
      case BehaviorKind::Always:
        return flag_;
      case BehaviorKind::Loop: {
        if (pos_ == 0) {
            const uint32_t period = loop_.period;
            if (p_ > 0.0 && ctx.rng.nextBool(p_)) {
                // Data-dependent trip count: this run is one iteration
                // shorter or longer than nominal.
                const bool up = ctx.rng.nextBool(0.5);
                loop_.curPeriod =
                    up ? period + 1 : (period > 1 ? period - 1 : 1);
            } else {
                loop_.curPeriod = period;
            }
        }
        // pos_ < curPeriod always, so wrapping to 0 is the modulo.
        const bool taken = pos_ + 1 < loop_.curPeriod;
        pos_ = taken ? pos_ + 1 : 0;
        return taken;
      }
      case BehaviorKind::Pattern: {
        const bool taken = ((outcomes_ >> pos_) & 1u) != 0;
        pos_ = pos_ + 1 < count_ ? pos_ + 1 : 0;
        return taken;
      }
      case BehaviorKind::Biased:
        return ctx.rng.nextBool(p_);
      case BehaviorKind::Markov: {
        const double stay = flag_ ? p_ : q_;
        if (!ctx.rng.nextBool(stay))
            flag_ = !flag_;
        return flag_;
      }
      case BehaviorKind::Correlated: {
        unsigned parity = flag_ ? 1u : 0u;
        for (uint32_t i = 0; i < count_; ++i)
            parity ^= ctx.history[taps_[i]];
        bool taken = (parity & 1u) != 0;
        if (p_ > 0.0 && ctx.rng.nextBool(p_))
            taken = !taken;
        return taken;
      }
    }
    return false;
}

} // namespace tagecon

#endif // TAGECON_TRACE_BEHAVIOR_HPP
