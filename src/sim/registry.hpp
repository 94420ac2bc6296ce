/**
 * @file
 * String-keyed factory for graded predictors: one spec string names a
 * (predictor base x modifiers x confidence estimator) combination, so
 * drivers, benches and the CLI can construct any supported pipeline
 * without bespoke wiring:
 *
 *   auto p = makePredictor("tage64k+prob7+sfc");   // the paper
 *   auto q = makePredictor("gshare+jrs");          // JRS baseline
 *
 * Spec grammar (case-insensitive):
 *
 *   spec      := base [':' params] ( '+' token )*
 *   base      := tage16k | tage64k | tage256k
 *              | ltage16k | ltage64k | ltage256k
 *              | gshare | bimodal | perceptron | ogehl
 *              | any name added via registerPredictorBase()
 *   params    := key '=' value ( ',' key '=' value )*
 *                geometry overrides of the base, e.g.
 *                "gshare:hist=17,entries=16" or
 *                "tage64k:tables=8,ctr=2,maxhist=300"; unknown keys
 *                and malformed values are rejected (see each base's
 *                factory for its keys, or README "spec grammar")
 *   token     := modifier | estimator
 *   modifier  := "prob" [digits]   probabilistic saturation automaton
 *                                  (Sec. 6), log2(1/p), default 7
 *              | "adaptive"        Sec. 6.2 controller; requires prob
 *   estimator := "sfc" | "self"    intrinsic storage-free / self
 *                                  confidence (host must provide it)
 *              | "jrs" | "jrsg"    JRS resetting counters, plain /
 *                                  prediction-indexed (Grunwald)
 *              | "blind"           grade everything high confidence
 *
 * At most one estimator per spec; modifiers apply to the TAGE family
 * only. makePredictor() stamps the canonical spec as the predictor's
 * name(), so specs round-trip: makePredictor(s)->name() parses back to
 * the same pipeline.
 */

#ifndef TAGECON_SIM_REGISTRY_HPP
#define TAGECON_SIM_REGISTRY_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/graded_predictor.hpp"
#include "sim/spec_params.hpp"

namespace tagecon {

/** Parsed spec modifiers handed to predictor base factories. */
struct SpecModifiers {
    /** Enable the probabilistic saturation automaton (Sec. 6). */
    bool prob = false;

    /** log2(1/p) when prob is set. */
    unsigned probLog2 = 7;

    /** Drive p with the adaptive controller (Sec. 6.2). */
    bool adaptive = false;
};

/**
 * Factory for one predictor base. Returns the predictor, or nullptr
 * after filling @p error (e.g. when a modifier does not apply).
 *
 * @p params is the spec's "key=value,..." list; read every supported
 * key through the typed getters (with the base's default as the
 * fallback). The registry rejects the spec after the factory returns
 * if any supplied key was never read or any value was malformed, so
 * factories need no unknown-key handling of their own.
 */
using PredictorBaseFactory =
    std::function<std::unique_ptr<GradedPredictor>(
        const SpecParams& params, const SpecModifiers& mods,
        std::string& error)>;

/**
 * Register (or replace) a predictor base under @p name, making
 * "<name>[+...]" specs constructible. The built-in bases are
 * pre-registered; this is the extension point for new families.
 */
void registerPredictorBase(const std::string& name,
                           PredictorBaseFactory factory);

/** Registered base names, sorted. */
std::vector<std::string> registeredBases();

/** Recognized estimator tokens, sorted. */
std::vector<std::string> registeredEstimators();

/**
 * A representative runnable spec for every registered base (with the
 * estimator that suits it), for listings and round-trip tests.
 */
std::vector<std::string> exampleSpecs();

/**
 * Repair a comma-split spec list: canonical multi-parameter specs
 * contain ',' ("gshare:entries=16,hist=17+jrs"), so a generic
 * comma-split cuts them apart. A segment whose base part (text before
 * the first ':' or '+') contains '=' cannot start a spec — base names
 * never contain '=' — so it is provably a parameter continuation of
 * the previous segment and is rejoined with ','. Lets the output of
 * name() / exampleSpecs() be pasted into --predictors lists verbatim.
 */
std::vector<std::string>
regroupSpecList(const std::vector<std::string>& items);

/**
 * Canonical form of @p spec (lowercase, tokens in base / prob /
 * adaptive / estimator order, base parameters sorted by key, aliases
 * resolved). Empty string on a malformed spec, with the reason in
 * @p error when given. Syntactic only: parameter keys are checked
 * against the base's supported set at construction time
 * (tryMakePredictor), not here.
 */
std::string canonicalizeSpec(const std::string& spec,
                             std::string* error = nullptr);

/**
 * Construct the pipeline named by @p spec. Returns nullptr after
 * filling @p error on an unknown name or invalid combination.
 */
std::unique_ptr<GradedPredictor>
tryMakePredictor(const std::string& spec, std::string* error = nullptr);

/** Like tryMakePredictor() but fatal()s on a bad spec. */
std::unique_ptr<GradedPredictor> makePredictor(const std::string& spec);

} // namespace tagecon

#endif // TAGECON_SIM_REGISTRY_HPP
