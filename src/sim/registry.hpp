/**
 * @file
 * String-keyed factory for graded predictors: one spec string names a
 * (predictor base x modifiers x confidence estimator) combination, so
 * drivers, benches and the CLI can construct any supported pipeline
 * without bespoke wiring. The bases are one constant table in
 * registry.cpp; a new family is a new row there.
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
 *                                  confidence: the host itself, which
 *                                  must provide it
 *              | "jrs" | "jrsg"    JRS resetting counters, plain /
 *                                  prediction-indexed (Grunwald)
 *              | "blind"           grade everything high confidence
 *
 * A spec names each modifier at most once and at most one estimator;
 * modifiers apply to the TAGE family only. makePredictor() stamps the
 * canonical spec as the predictor's name(), so specs round-trip:
 * makePredictor(s)->name() parses back to the same pipeline.
 */

#ifndef TAGECON_SIM_REGISTRY_HPP
#define TAGECON_SIM_REGISTRY_HPP

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/graded_predictor.hpp"

namespace tagecon {

/** The base names, sorted. */
std::vector<std::string> registeredBases();

/**
 * A representative runnable spec for every base (with the estimator
 * that suits it), then a few stacks and parameterized specs, for
 * listings and round-trip tests.
 */
std::vector<std::string> exampleSpecs();

/**
 * Write the --list-predictors catalog to @p out: the bases, the
 * estimator tokens and exampleSpecs(), one per line.
 */
void printPredictorCatalog(std::ostream& out);

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

/**
 * Like tryMakePredictor() for a spec the program itself supplies (a
 * literal, or one already accepted): panics on a bad spec.
 */
std::unique_ptr<GradedPredictor> makePredictor(const std::string& spec);

} // namespace tagecon

#endif // TAGECON_SIM_REGISTRY_HPP
