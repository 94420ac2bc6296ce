#include "trace/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace tagecon {

namespace {

/** Largest correlation distance a profile may ask for. */
constexpr int kMaxCorrTap = 1023;

/**
 * Most sites a function may have: a loop body length then fits a site's
 * 16 bits, and every pc stays below 4 GiB.
 */
constexpr int kMaxSitesPerFunction = 65536;

/** Base text address of the synthetic program. */
constexpr uint64_t kTextBase = 0x400000;

/** Address stride between consecutive sites of a function. */
constexpr uint64_t kSiteStride = 0x4;

/** Span of the synthetic text segment functions are placed in. */
constexpr uint64_t kTextSpan = uint64_t{1} << 24;

} // namespace

SyntheticTrace::SyntheticTrace(ProfileParams params, uint64_t num_branches)
    : params_(validated(std::move(params))), limit_(num_branches),
      rng_(params_.seed),
      history_(static_cast<size_t>(params_.corrTapMax))
{
    build();
}

ProfileParams
SyntheticTrace::validated(ProfileParams p)
{
    const std::string& n = p.name;
    TAGECON_ASSERT(p.numFunctions >= 1,
                   "profile '" + n + "': numFunctions must be >= 1");
    TAGECON_ASSERT(p.minSitesPerFunction >= 1 &&
                       p.maxSitesPerFunction >= p.minSitesPerFunction &&
                       p.maxSitesPerFunction <= kMaxSitesPerFunction,
                   "profile '" + n + "': bad sitesPerFunction range");
    TAGECON_ASSERT(p.loopPeriodMin >= 1 &&
                       p.loopPeriodMax >= p.loopPeriodMin,
                   "profile '" + n + "': bad loopPeriod range");
    TAGECON_ASSERT(p.patternLenMin >= 1 &&
                       p.patternLenMax >= p.patternLenMin,
                   "profile '" + n + "': bad patternLen range");
    TAGECON_ASSERT(p.patternLenMax <= BranchBehavior::kMaxPatternLen,
                   "profile '" + n + "': patternLenMax must be <= " +
                       std::to_string(BranchBehavior::kMaxPatternLen));
    TAGECON_ASSERT(p.corrTapMin >= 1 && p.corrTapMax >= p.corrTapMin &&
                       p.corrTapMax <= kMaxCorrTap,
                   "profile '" + n + "': bad correlation tap range");
    TAGECON_ASSERT(p.corrNumTapsMin >= 1 &&
                       p.corrNumTapsMax >= p.corrNumTapsMin,
                   "profile '" + n + "': bad correlation tap count");
    TAGECON_ASSERT(
        p.corrNumTapsMax <= static_cast<int>(BranchBehavior::kMaxTaps),
        "profile '" + n + "': corrNumTapsMax must be <= " +
            std::to_string(BranchBehavior::kMaxTaps));
    TAGECON_ASSERT(p.instrPerBranchMax >= p.instrPerBranchMin,
                   "profile '" + n + "': bad instrPerBranch range");
    TAGECON_ASSERT(p.numPhases >= 1,
                   "profile '" + n + "': numPhases must be >= 1");
    TAGECON_ASSERT(p.numPhases == 1 || p.phaseLength > 0,
                   "profile '" + n + "': phaseLength must be > 0");
    const double mix = p.fracAlways + p.fracLoop + p.fracPattern +
                       p.fracBiased + p.fracMarkov + p.fracCorrelated;
    TAGECON_ASSERT(mix > 0.0,
                   "profile '" + n + "': behaviour mixture is empty");
    return p;
}

namespace {

/** A behaviour mixture: one weight per BehaviorKind, and their sum. */
struct KindMix {
    double weights[6];
    double total;
};

KindMix
kindMix(const double (&weights)[6])
{
    KindMix mix{};
    for (int i = 0; i < 6; ++i) {
        mix.weights[i] = weights[i];
        mix.total += weights[i];
    }
    return mix;
}

BehaviorKind
drawKind(XorShift128Plus& rng, const KindMix& mix)
{
    double draw = rng.nextDouble() * mix.total;
    for (int i = 0; i < 6; ++i) {
        draw -= mix.weights[i];
        if (draw < 0.0)
            return static_cast<BehaviorKind>(i);
    }
    return BehaviorKind::Correlated;
}

/**
 * Mixture of straight-line sites. They execute once per function pass
 * with variable interleaving in between, so periodic behaviours
 * (Pattern) are not learnable there; their weight folds into Always.
 * Loop placement is handled structurally by build().
 */
KindMix
plainMix(const ProfileParams& p)
{
    return kindMix({
        p.fracAlways + p.fracPattern, 0.0, 0.0,
        p.fracBiased, p.fracMarkov, p.fracCorrelated,
    });
}

/**
 * Mixture of loop-body sites. They execute in per-iteration bursts:
 * periodic and history-correlated behaviours are adjacent in global
 * history and therefore learnable — this is where real programs'
 * "pattern" branches live. A slice of biased sites models loop-carried
 * data-dependent conditions.
 */
KindMix
bodyMix(const ProfileParams& p)
{
    return kindMix({
        0.25, 0.0, 0.25 + p.fracPattern,
        0.15 * (p.fracBiased > 0.0 ? 1.0 : 0.0), 0.0, 0.25,
    });
}

} // namespace

BranchBehavior
SyntheticTrace::drawBehavior(BehaviorKind kind, XorShift128Plus& rng,
                             bool in_body) const
{
    const ProfileParams& p = params_;
    auto uniform_u32 = [&rng](uint32_t lo, uint32_t hi) {
        return lo + static_cast<uint32_t>(rng.nextBelow(hi - lo + 1));
    };
    auto uniform_d = [&rng](double lo, double hi) {
        return lo + (hi - lo) * rng.nextDouble();
    };

    switch (kind) {
      case BehaviorKind::Always:
        return BranchBehavior::always(rng.nextBool(0.6));
      case BehaviorKind::Loop:
        return BranchBehavior::loop(
            uniform_u32(p.loopPeriodMin, p.loopPeriodMax),
            p.loopTripJitter);
      case BehaviorKind::Pattern: {
        // Body patterns advance once per loop iteration; keep them
        // short so the burst exposes full periods.
        const uint32_t max_len =
            in_body ? std::min(p.patternLenMax, 6u) : p.patternLenMax;
        const uint32_t len = uniform_u32(
            std::min(p.patternLenMin, max_len), max_len);
        uint64_t outcomes = 0;
        for (uint32_t i = 0; i < len; ++i)
            outcomes |= uint64_t{rng.nextBool(0.5)} << i;
        if (outcomes == 0)
            outcomes = 1;
        return BranchBehavior::pattern(outcomes, len);
      }
      case BehaviorKind::Biased: {
        double bias = uniform_d(p.biasMin, p.biasMax);
        // Half the biased branches lean not-taken.
        if (rng.nextBool(0.5))
            bias = 1.0 - bias;
        return BranchBehavior::biased(bias);
      }
      case BehaviorKind::Markov: {
        // Named draws, not two call arguments, whose evaluation order
        // C++ leaves unspecified: the not-taken stay is drawn first, as
        // GCC builds have always evaluated the arguments.
        const double stay_not_taken =
            uniform_d(p.markovStayMin, p.markovStayMax);
        const double stay_taken = uniform_d(p.markovStayMin, p.markovStayMax);
        return BranchBehavior::markov(stay_taken, stay_not_taken);
      }
      case BehaviorKind::Correlated: {
        // Correlation distances must stay short enough that the
        // referenced bits sit inside the current burst / function run;
        // longer taps are only learnable in very low-entropy contexts
        // (profiles opt in via corrTapMax).
        const auto tap_hi = static_cast<uint32_t>(
            in_body ? std::min(p.corrTapMax, 6) : p.corrTapMax);
        const auto tap_lo = std::min(
            static_cast<uint32_t>(p.corrTapMin), tap_hi);
        const auto ntaps = static_cast<size_t>(
            rng.nextBelow(static_cast<uint64_t>(p.corrNumTapsMax -
                                                p.corrNumTapsMin + 1)) +
            static_cast<uint64_t>(p.corrNumTapsMin));
        uint16_t taps[BranchBehavior::kMaxTaps] = {};
        for (size_t i = 0; i < ntaps; ++i)
            taps[i] = static_cast<uint16_t>(uniform_u32(tap_lo, tap_hi));
        return BranchBehavior::correlated(
            std::span<const uint16_t>(taps, ntaps), rng.nextBool(0.5),
            p.corrNoise);
      }
    }
    panic("unreachable behaviour kind");
}

void
SyntheticTrace::build()
{
    rng_ = XorShift128Plus(params_.seed);
    history_.clear();
    emitted_ = 0;
    untilPhaseEdge_ = params_.phaseLength;
    curPhase_ = 0;
    curSite_ = 0;
    funcEnd_ = 0;
    inLoop_ = false;
    inFunction_ = false;
    lastFunc_ = 0;
    haveLastFunc_ = false;
    instrMin_ = params_.instrPerBranchMin;
    instrSpan_ = XorShift128Plus::Bound(
        params_.instrPerBranchMax - params_.instrPerBranchMin + 1);

    const auto num_funcs = static_cast<size_t>(params_.numFunctions);
    funcs_.resize(num_funcs);
    // The site count is known only once every function is drawn: reserve
    // the most a program can have, and return the slack after drawing.
    sites_.clear();
    sites_.reserve(num_funcs *
                   static_cast<size_t>(params_.maxSitesPerFunction));

    // Dedicated RNG for program construction so the *structure* of the
    // program does not depend on how many branches have been drawn.
    XorShift128Plus build_rng(params_.seed ^ 0xC0FFEE);

    // Structural placement: a slot is either a loop head (whose body
    // consumes the following slots) or a straight-line site. Loop-body
    // sites draw from the burst-friendly behaviour mix.
    const double mix_total = params_.fracAlways + params_.fracLoop +
                             params_.fracPattern + params_.fracBiased +
                             params_.fracMarkov + params_.fracCorrelated;
    const double loop_share = params_.fracLoop / mix_total;
    const KindMix plain = plainMix(params_);
    const KindMix body = bodyMix(params_);

    for (Function& func : funcs_) {
        func.begin = static_cast<uint32_t>(sites_.size());
        // Scatter function bases across the text segment so branch
        // sites alias in the predictor tables the way real code does
        // (a fixed stride would fold every function onto the same
        // bimodal entries).
        const uint64_t func_base =
            kTextBase + (build_rng.next() & (kTextSpan - 1) & ~uint64_t{3});
        const auto nsites = static_cast<size_t>(
            params_.minSitesPerFunction +
            static_cast<int>(build_rng.nextBelow(static_cast<uint64_t>(
                params_.maxSitesPerFunction -
                params_.minSitesPerFunction + 1))));

        auto add_site = [&](size_t slot, BehaviorKind kind, bool in_body,
                            uint32_t body_len) {
            const BranchBehavior behavior =
                drawBehavior(kind, build_rng, in_body);
            const bool phased =
                build_rng.nextBool(params_.phasedSiteFraction);
            sites_.push_back(Site{
                static_cast<uint32_t>(func_base + slot * kSiteStride),
                static_cast<uint16_t>(body_len), phased, in_body,
                behavior});
        };

        size_t s = 0;
        while (s < nsites) {
            if (build_rng.nextBool(loop_share)) {
                const auto remaining = nsites - s - 1;
                const auto body_len =
                    static_cast<uint32_t>(std::min<uint64_t>(
                        build_rng.nextBelow(
                            static_cast<uint64_t>(params_.loopBodyMax) + 1),
                        remaining));
                add_site(s, BehaviorKind::Loop, false, body_len);
                ++s;
                for (uint32_t b = 0; b < body_len; ++b, ++s)
                    add_site(s, drawKind(build_rng, body), true, 0);
            } else {
                add_site(s, drawKind(build_rng, plain), false, 0);
                ++s;
            }
        }
        func.end = static_cast<uint32_t>(sites_.size());
    }
    sites_.shrink_to_fit();

    buildCallGraph(build_rng);
    rebuildSelection();
}

void
SyntheticTrace::buildCallGraph(XorShift128Plus& build_rng)
{
    // Successors are drawn with regional locality so that phase
    // rotation keeps most call edges inside the active working set:
    // a cold function's successors live in its own phase region (or
    // the always-hot set); a hot function's successors stay hot.
    const size_t total = numFunctions();
    const size_t hot = std::max<size_t>(
        1, static_cast<size_t>(params_.hotFraction *
                               static_cast<double>(total)));
    const auto num_phases = static_cast<size_t>(params_.numPhases);

    // Function f's successor pool is the hot set [0, nhot) followed by
    // one contiguous range [lo, hi): every cold function when there is
    // a single phase, f's own phase region for a cold f, nothing for a
    // hot f. Drawing an index into that concatenation needs neither a
    // materialized pool nor an O(F) rebuild per function.
    const size_t nhot = std::min(hot, total);
    for (size_t f = 0; f < total; ++f) {
        size_t lo = nhot;
        size_t hi = nhot;
        if (num_phases <= 1) {
            hi = total;
        } else if (f >= hot) {
            const size_t per_phase =
                std::max<size_t>(1, (total - nhot) / num_phases);
            const size_t region =
                std::min((f - hot) / per_phase, num_phases - 1);
            lo = hot + region * per_phase;
            hi = std::min(lo + per_phase, total);
        }
        const size_t pool_size = nhot + (hi - lo);
        for (uint32_t& s : funcs_[f].successors) {
            const size_t k = build_rng.nextBelow(pool_size);
            s = static_cast<uint32_t>(k < nhot ? k : lo + (k - nhot));
        }
    }
}

void
SyntheticTrace::rebuildSelection()
{
    const size_t total = numFunctions();
    activeFuncs_.clear();
    activeFuncs_.reserve(total);

    const auto hot = std::max<size_t>(
        1, static_cast<size_t>(params_.hotFraction *
                               static_cast<double>(total)));

    // Hot functions are active in every phase.
    for (size_t i = 0; i < hot && i < total; ++i)
        activeFuncs_.push_back(static_cast<uint32_t>(i));

    // The cold remainder is partitioned across phases.
    if (params_.numPhases <= 1) {
        for (size_t i = hot; i < total; ++i)
            activeFuncs_.push_back(static_cast<uint32_t>(i));
    } else {
        const size_t cold = total - std::min(hot, total);
        const size_t per_phase = std::max<size_t>(
            1, cold / static_cast<size_t>(params_.numPhases));
        const size_t begin =
            hot + static_cast<size_t>(curPhase_) * per_phase;
        for (size_t i = begin; i < std::min(begin + per_phase, total); ++i)
            activeFuncs_.push_back(static_cast<uint32_t>(i));
    }

    for (Function& func : funcs_)
        func.active = false;
    for (const uint32_t f : activeFuncs_)
        funcs_[f].active = true;

    // Zipf-skewed popularity over the active set.
    selectCdf_.clear();
    selectCdf_.reserve(activeFuncs_.size());
    double acc = 0.0;
    for (size_t rank = 0; rank < activeFuncs_.size(); ++rank) {
        acc += 1.0 / std::pow(static_cast<double>(rank + 1),
                              params_.zipfSkew);
        selectCdf_.push_back(acc);
    }
}

void
SyntheticTrace::pickNextFunction()
{
    const size_t none = numFunctions();
    size_t choice = none;

    // Call-graph locality: usually continue along a successor edge.
    if (haveLastFunc_ && rng_.nextBool(params_.callLocality)) {
        const uint32_t* succ = funcs_[lastFunc_].successors;
        const double u = rng_.nextDouble();
        const size_t cand = u < 0.7 ? succ[0]
                                    : (u < 0.9 ? succ[1] : succ[2]);
        if (funcs_[cand].active)
            choice = cand;
    }

    if (choice == none) {
        // Fresh Zipf draw over the active working set.
        const double draw = rng_.nextDouble() * selectCdf_.back();
        const auto it =
            std::lower_bound(selectCdf_.begin(), selectCdf_.end(), draw);
        const auto idx = static_cast<size_t>(
            std::distance(selectCdf_.begin(), it));
        choice = activeFuncs_[std::min(idx, activeFuncs_.size() - 1)];
    }

    lastFunc_ = choice;
    haveLastFunc_ = true;
    curSite_ = funcs_[choice].begin;
    funcEnd_ = funcs_[choice].end;
    inFunction_ = true;
    inLoop_ = false;
}

void
SyntheticTrace::rotatePhase()
{
    curPhase_ = (curPhase_ + 1) % params_.numPhases;
    rebuildSelection();

    // Redraw the behaviour of phased sites: the program "moved on" and
    // these branches now behave differently, forcing the predictor to
    // re-learn them (warming bursts, Sec. 5.1.2 of the paper).
    XorShift128Plus phase_rng(params_.seed ^
                              (0xFACEu + static_cast<uint64_t>(curPhase_) +
                               emitted_));
    for (Site& site : sites_) {
        if (site.phased) {
            site.behavior =
                drawBehavior(site.behavior.kind(), phase_rng, site.inBody);
        }
    }
    inFunction_ = false;
    inLoop_ = false;
}

inline void
SyntheticTrace::emit(BranchRecord& out)
{
    if (untilPhaseEdge_ == 0 && params_.numPhases > 1) {
        rotatePhase();
        untilPhaseEdge_ = params_.phaseLength;
    }
    --untilPhaseEdge_;

    if (!inFunction_)
        pickNextFunction();

    Site& site = sites_[curSite_];

    BehaviorContext ctx{rng_, history_};
    const bool taken = site.behavior.nextOutcome(ctx);
    history_.push(taken);
    const BehaviorKind kind = site.behavior.kind();
    lastKind_ = kind;
    lastInBody_ = site.inBody;

    out.pc = site.pc;
    out.taken = taken;
    out.instructionsBefore =
        instrMin_ + static_cast<uint32_t>(rng_.nextBelow(instrSpan_));
    ++emitted_;

    // --- Control flow: loops iterate in place -------------------------
    size_t next_site;
    if (kind == BehaviorKind::Loop) {
        if (taken) {
            if (site.loopBodyLen == 0) {
                next_site = curSite_; // self-loop: re-execute the head
            } else {
                // Enter (or stay in) the loop body.
                if (!inLoop_ || loopHead_ != curSite_) {
                    inLoop_ = true;
                    loopHead_ = curSite_;
                    loopEnd_ = curSite_ + site.loopBodyLen;
                    // Fresh loop entry: body behaviours restart, so
                    // every run replays the same within-run sequence
                    // (e.g. re-scanning the same data) — which is what
                    // makes body patterns learnable from history.
                    for (size_t b = curSite_ + 1;
                         b <= curSite_ + site.loopBodyLen; ++b) {
                        sites_[b].behavior.reset();
                    }
                }
                next_site = curSite_ + 1;
            }
        } else {
            // Loop exit: fall through past the body.
            if (inLoop_ && loopHead_ == curSite_)
                inLoop_ = false;
            next_site = curSite_ + site.loopBodyLen + 1;
        }
    } else {
        next_site = curSite_ + 1;
    }

    // Reaching the end of the loop body returns to its head.
    if (inLoop_ && next_site > loopEnd_)
        next_site = loopHead_;

    curSite_ = next_site;
    if (curSite_ >= funcEnd_) {
        inFunction_ = false;
        inLoop_ = false;
    }
}

bool
SyntheticTrace::next(BranchRecord& out)
{
    return SyntheticTrace::fill(std::span<BranchRecord>(&out, 1)) == 1;
}

size_t
SyntheticTrace::fill(std::span<BranchRecord> out)
{
    const auto n = static_cast<size_t>(
        std::min<uint64_t>(out.size(), limit_ - emitted_));
    for (size_t i = 0; i < n; ++i)
        emit(out[i]);
    return n;
}

void
SyntheticTrace::reset()
{
    build();
}

size_t
SyntheticTrace::countSites(BehaviorKind kind) const
{
    return static_cast<size_t>(
        std::count_if(sites_.begin(), sites_.end(), [kind](const Site& s) {
            return s.behavior.kind() == kind;
        }));
}

} // namespace tagecon
