#include "trace/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace tagecon {

namespace {

/** History capacity: must cover the largest correlation tap. */
constexpr size_t kHistoryCapacity = 1024;

/** Base text address of the synthetic program. */
constexpr uint64_t kTextBase = 0x400000;

/** Address stride between consecutive sites of a function. */
constexpr uint64_t kSiteStride = 0x4;

/** Span of the synthetic text segment functions are placed in. */
constexpr uint64_t kTextSpan = uint64_t{1} << 24;

} // namespace

SyntheticTrace::SyntheticTrace(ProfileParams params, uint64_t num_branches)
    : params_(std::move(params)), limit_(num_branches),
      rng_(params_.seed), history_(kHistoryCapacity)
{
    validate();
    build();
}

void
SyntheticTrace::validate() const
{
    const ProfileParams& p = params_;
    if (p.numFunctions < 1)
        fatal("profile '" + p.name + "': numFunctions must be >= 1");
    if (p.minSitesPerFunction < 1 ||
        p.maxSitesPerFunction < p.minSitesPerFunction)
        fatal("profile '" + p.name + "': bad sitesPerFunction range");
    if (p.loopPeriodMin < 1 || p.loopPeriodMax < p.loopPeriodMin)
        fatal("profile '" + p.name + "': bad loopPeriod range");
    if (p.patternLenMin < 1 || p.patternLenMax < p.patternLenMin)
        fatal("profile '" + p.name + "': bad patternLen range");
    if (p.corrTapMin < 1 || p.corrTapMax < p.corrTapMin ||
        static_cast<size_t>(p.corrTapMax) >= kHistoryCapacity)
        fatal("profile '" + p.name + "': bad correlation tap range");
    if (p.corrNumTapsMin < 1 || p.corrNumTapsMax < p.corrNumTapsMin)
        fatal("profile '" + p.name + "': bad correlation tap count");
    if (p.instrPerBranchMax < p.instrPerBranchMin)
        fatal("profile '" + p.name + "': bad instrPerBranch range");
    if (p.numPhases < 1)
        fatal("profile '" + p.name + "': numPhases must be >= 1");
    if (p.numPhases > 1 && p.phaseLength == 0)
        fatal("profile '" + p.name + "': phaseLength must be > 0");
    const double mix = p.fracAlways + p.fracLoop + p.fracPattern +
                       p.fracBiased + p.fracMarkov + p.fracCorrelated;
    if (mix <= 0.0)
        fatal("profile '" + p.name + "': behaviour mixture is empty");
}

namespace {

BehaviorKind
drawWeighted(XorShift128Plus& rng, const double (&weights)[6])
{
    double total = 0.0;
    for (const double w : weights)
        total += w;
    double draw = rng.nextDouble() * total;
    for (int i = 0; i < 6; ++i) {
        draw -= weights[i];
        if (draw < 0.0)
            return static_cast<BehaviorKind>(i);
    }
    return BehaviorKind::Correlated;
}

} // namespace

BehaviorKind
SyntheticTrace::drawPlainKind(XorShift128Plus& rng) const
{
    // Straight-line sites execute once per function pass with variable
    // interleaving in between, so periodic behaviours (Pattern) are not
    // learnable there; their weight folds into Always. Loop placement
    // is handled structurally by build().
    const ProfileParams& p = params_;
    const double weights[6] = {
        p.fracAlways + p.fracPattern, 0.0, 0.0,
        p.fracBiased, p.fracMarkov, p.fracCorrelated,
    };
    return drawWeighted(rng, weights);
}

BehaviorKind
SyntheticTrace::drawBodyKind(XorShift128Plus& rng) const
{
    // Loop-body sites execute in per-iteration bursts: periodic and
    // history-correlated behaviours are adjacent in global history and
    // therefore learnable — this is where real programs' "pattern"
    // branches live. A slice of biased sites models loop-carried
    // data-dependent conditions.
    const ProfileParams& p = params_;
    const double weights[6] = {
        0.25, 0.0, 0.25 + p.fracPattern,
        0.15 * (p.fracBiased > 0.0 ? 1.0 : 0.0), 0.0, 0.25,
    };
    return drawWeighted(rng, weights);
}

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
        std::vector<bool> pat(len);
        bool any_taken = false;
        for (uint32_t i = 0; i < len; ++i) {
            pat[i] = rng.nextBool(0.5);
            any_taken = any_taken || pat[i];
        }
        if (!any_taken)
            pat[0] = true;
        return BranchBehavior::pattern(std::move(pat));
      }
      case BehaviorKind::Biased: {
        double bias = uniform_d(p.biasMin, p.biasMax);
        // Half the biased branches lean not-taken.
        if (rng.nextBool(0.5))
            bias = 1.0 - bias;
        return BranchBehavior::biased(bias);
      }
      case BehaviorKind::Markov:
        return BranchBehavior::markov(
            uniform_d(p.markovStayMin, p.markovStayMax),
            uniform_d(p.markovStayMin, p.markovStayMax));
      case BehaviorKind::Correlated: {
        // Correlation distances must stay short enough that the
        // referenced bits sit inside the current burst / function run;
        // longer taps are only learnable in very low-entropy contexts
        // (profiles opt in via corrTapMax).
        const auto tap_hi = static_cast<uint32_t>(
            in_body ? std::min(p.corrTapMax, 6) : p.corrTapMax);
        const auto tap_lo = std::min(
            static_cast<uint32_t>(p.corrTapMin), tap_hi);
        const int ntaps = static_cast<int>(rng.nextBelow(
            static_cast<uint64_t>(p.corrNumTapsMax - p.corrNumTapsMin +
                                  1))) + p.corrNumTapsMin;
        std::vector<uint16_t> taps;
        taps.reserve(static_cast<size_t>(ntaps));
        for (int i = 0; i < ntaps; ++i) {
            taps.push_back(
                static_cast<uint16_t>(uniform_u32(tap_lo, tap_hi)));
        }
        return BranchBehavior::correlated(std::move(taps),
                                          rng.nextBool(0.5), p.corrNoise);
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
    curPhase_ = 0;
    curFunc_ = 0;
    curSite_ = 0;
    inFunction_ = false;
    loopStack_.clear();
    lastFunc_ = 0;
    haveLastFunc_ = false;

    functions_.clear();
    functions_.resize(static_cast<size_t>(params_.numFunctions));

    // Dedicated RNG for program construction so the *structure* of the
    // program does not depend on how many branches have been drawn.
    XorShift128Plus build_rng(params_.seed ^ 0xC0FFEE);

    for (auto& func : functions_) {
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
        // Structural placement: a slot is either a loop head (whose
        // body consumes the following slots) or a straight-line site.
        // Loop-body sites draw from the burst-friendly behaviour mix.
        const double mix_total = params_.fracAlways + params_.fracLoop +
                                 params_.fracPattern + params_.fracBiased +
                                 params_.fracMarkov +
                                 params_.fracCorrelated;
        const double loop_share = params_.fracLoop / mix_total;

        func.sites.reserve(nsites);
        auto make_site = [&](size_t slot, BehaviorKind kind,
                             bool in_body) {
            return Site{
                func_base + static_cast<uint64_t>(slot) * kSiteStride,
                drawBehavior(kind, build_rng, in_body),
                params_.instrPerBranchMin,
                params_.instrPerBranchMax,
                build_rng.nextBool(params_.phasedSiteFraction),
                0,
                in_body,
            };
        };

        size_t s = 0;
        while (s < nsites) {
            if (build_rng.nextBool(loop_share)) {
                const auto remaining = nsites - s - 1;
                const auto body = static_cast<uint32_t>(std::min<uint64_t>(
                    build_rng.nextBelow(
                        static_cast<uint64_t>(params_.loopBodyMax) + 1),
                    remaining));
                Site head = make_site(s, BehaviorKind::Loop, false);
                head.loopBodyLen = body;
                func.sites.push_back(std::move(head));
                ++s;
                for (uint32_t b = 0; b < body; ++b, ++s) {
                    func.sites.push_back(
                        make_site(s, drawBodyKind(build_rng), true));
                }
            } else {
                func.sites.push_back(
                    make_site(s, drawPlainKind(build_rng), false));
                ++s;
            }
        }
    }

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
    const size_t total = functions_.size();
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
    successors_.resize(total);
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
        for (auto& s : successors_[f]) {
            const size_t k = build_rng.nextBelow(pool_size);
            s = k < nhot ? k : lo + (k - nhot);
        }
    }
}

void
SyntheticTrace::rebuildSelection()
{
    activeFuncs_.clear();
    isActive_.assign(functions_.size(), 0);

    const auto total = functions_.size();
    const auto hot = std::max<size_t>(
        1, static_cast<size_t>(params_.hotFraction *
                               static_cast<double>(total)));

    // Hot functions are active in every phase.
    for (size_t i = 0; i < hot && i < total; ++i)
        activeFuncs_.push_back(i);

    // The cold remainder is partitioned across phases.
    if (params_.numPhases <= 1) {
        for (size_t i = hot; i < total; ++i)
            activeFuncs_.push_back(i);
    } else {
        const size_t cold = total - std::min(hot, total);
        const size_t per_phase = std::max<size_t>(
            1, cold / static_cast<size_t>(params_.numPhases));
        const size_t begin =
            hot + static_cast<size_t>(curPhase_) * per_phase;
        for (size_t i = begin; i < std::min(begin + per_phase, total); ++i)
            activeFuncs_.push_back(i);
    }

    for (const size_t f : activeFuncs_)
        isActive_[f] = 1;

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
    size_t choice = functions_.size(); // sentinel: no choice yet

    // Call-graph locality: usually continue along a successor edge.
    if (haveLastFunc_ && rng_.nextBool(params_.callLocality)) {
        const auto& succ = successors_[lastFunc_];
        const double u = rng_.nextDouble();
        const size_t cand = u < 0.7 ? succ[0]
                                    : (u < 0.9 ? succ[1] : succ[2]);
        if (isActive_[cand])
            choice = cand;
    }

    if (choice == functions_.size()) {
        // Fresh Zipf draw over the active working set.
        const double draw = rng_.nextDouble() * selectCdf_.back();
        const auto it =
            std::lower_bound(selectCdf_.begin(), selectCdf_.end(), draw);
        const auto idx = static_cast<size_t>(
            std::distance(selectCdf_.begin(), it));
        choice = activeFuncs_[std::min(idx, activeFuncs_.size() - 1)];
    }

    curFunc_ = choice;
    lastFunc_ = choice;
    haveLastFunc_ = true;
    curSite_ = 0;
    inFunction_ = true;
    loopStack_.clear();
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
    for (auto& func : functions_) {
        for (auto& site : func.sites) {
            if (site.phased) {
                site.behavior = drawBehavior(site.behavior.kind(),
                                             phase_rng, site.inBody);
            }
        }
    }
    inFunction_ = false;
    loopStack_.clear();
}

bool
SyntheticTrace::next(BranchRecord& out)
{
    if (emitted_ >= limit_)
        return false;

    if (params_.numPhases > 1 && emitted_ > 0 &&
        emitted_ % params_.phaseLength == 0) {
        rotatePhase();
    }

    if (!inFunction_ || curSite_ >= functions_[curFunc_].sites.size())
        pickNextFunction();

    Site& site = functions_[curFunc_].sites[curSite_];

    BehaviorContext ctx{rng_, history_};
    const bool taken = site.behavior.nextOutcome(ctx);
    history_.push(taken);
    lastKind_ = site.behavior.kind();
    lastInBody_ = site.inBody;

    out.pc = site.pc;
    out.taken = taken;
    out.instructionsBefore =
        site.instrMin +
        static_cast<uint32_t>(rng_.nextBelow(site.instrMax -
                                             site.instrMin + 1));
    ++emitted_;

    // --- Control flow: loops iterate in place -------------------------
    size_t next_site;
    if (site.behavior.kind() == BehaviorKind::Loop) {
        if (taken) {
            if (site.loopBodyLen == 0) {
                next_site = curSite_; // self-loop: re-execute the head
            } else {
                // Enter (or stay in) the loop body.
                if (loopStack_.empty() ||
                    loopStack_.back().headIdx != curSite_) {
                    loopStack_.push_back(
                        LoopFrame{curSite_,
                                  curSite_ + site.loopBodyLen});
                    // Fresh loop entry: body behaviours restart, so
                    // every run replays the same within-run sequence
                    // (e.g. re-scanning the same data) — which is what
                    // makes body patterns learnable from history.
                    auto& sites = functions_[curFunc_].sites;
                    for (size_t b = curSite_ + 1;
                         b <= curSite_ + site.loopBodyLen; ++b) {
                        sites[b].behavior.reset();
                    }
                }
                next_site = curSite_ + 1;
            }
        } else {
            // Loop exit: fall through past the body.
            if (!loopStack_.empty() &&
                loopStack_.back().headIdx == curSite_) {
                loopStack_.pop_back();
            }
            next_site = curSite_ + site.loopBodyLen + 1;
        }
    } else {
        next_site = curSite_ + 1;
    }

    // Reaching the end of the innermost loop body returns to its head.
    if (!loopStack_.empty() && next_site > loopStack_.back().bodyEnd)
        next_site = loopStack_.back().headIdx;

    curSite_ = next_site;
    if (curSite_ >= functions_[curFunc_].sites.size()) {
        inFunction_ = false;
        loopStack_.clear();
    }
    return true;
}

void
SyntheticTrace::reset()
{
    build();
}

size_t
SyntheticTrace::numSites() const
{
    size_t n = 0;
    for (const auto& f : functions_)
        n += f.sites.size();
    return n;
}

size_t
SyntheticTrace::countSites(BehaviorKind kind) const
{
    size_t n = 0;
    for (const auto& f : functions_) {
        for (const auto& s : f.sites) {
            if (s.behavior.kind() == kind)
                ++n;
        }
    }
    return n;
}

} // namespace tagecon
