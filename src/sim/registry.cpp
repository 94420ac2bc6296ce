#include "sim/registry.hpp"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>

#include "baseline/bimodal_predictor.hpp"
#include "baseline/gshare_predictor.hpp"
#include "baseline/jrs_estimator.hpp"
#include "baseline/ogehl_predictor.hpp"
#include "baseline/perceptron_predictor.hpp"
#include "core/estimators.hpp"
#include "sim/spec_params.hpp"
#include "tage/graded_tage.hpp"
#include "util/logging.hpp"
#include "util/text.hpp"

namespace tagecon {

namespace {

/** Parsed spec modifiers handed to predictor base factories. */
struct SpecModifiers {
    /** Enable the probabilistic saturation automaton (Sec. 6). */
    bool prob = false;

    /** log2(1/p) when prob is set. */
    unsigned probLog2 = 7;

    /** Drive p with the adaptive controller (Sec. 6.2). */
    bool adaptive = false;
};

/** Split @p spec on '+'; empty tokens are malformed. */
bool
splitSpec(const std::string& spec, std::vector<std::string>& tokens,
          std::string& error)
{
    std::stringstream ss(toLower(spec));
    std::string tok;
    while (std::getline(ss, tok, '+')) {
        if (tok.empty()) {
            error = "malformed spec '" + spec + "': empty token";
            return false;
        }
        tokens.push_back(tok);
    }
    if (tokens.empty()) {
        error = "empty predictor spec";
        return false;
    }
    return true;
}

/** Reject the TAGE-only modifiers on a non-TAGE base. */
bool
rejectModifiers(const std::string& name, const SpecModifiers& mods,
                std::string& error)
{
    if (mods.prob || mods.adaptive) {
        error = "modifiers prob/adaptive only apply to the tage "
                "family, not to '" +
                name + "'";
        return false;
    }
    return true;
}

/**
 * Apply the TAGE-family parameter keys to a named budget's geometry
 * and build the config, for the tage* and ltage* bases alike.
 *
 * Keys: tables, logent, tag, minhist, maxhist, logbim, bimctr, ctr
 * (tagged counter bits), ubits (useful counter bits), ualt
 * (USE_ALT_ON_NA on/off).
 */
bool
buildTageConfig(const TageGeometry& base_geometry, const SpecParams& p,
                TageConfig& out, std::string& error)
{
    TageGeometry g = base_geometry;
    g.numTables = static_cast<int>(
        p.getInt("tables", g.numTables, 1, kMaxTaggedTables));
    g.logEntries =
        static_cast<int>(p.getInt("logent", g.logEntries, 1, 24));
    g.tagBits = static_cast<int>(p.getInt("tag", g.tagBits, 2, 16));
    g.minHistory =
        static_cast<int>(p.getInt("minhist", g.minHistory, 1, 4000));
    g.maxHistory =
        static_cast<int>(p.getInt("maxhist", g.maxHistory, 1, 4000));
    g.logBimodalEntries = static_cast<int>(
        p.getInt("logbim", g.logBimodalEntries, 1, 24));

    const int bim_ctr = static_cast<int>(p.getInt("bimctr", 2, 1, 8));
    const int ctr = static_cast<int>(p.getInt("ctr", 3, 2, 8));
    const int ubits = static_cast<int>(p.getInt("ubits", 2, 1, 8));
    const bool ualt = p.getBool("ualt", true);

    // Surface a malformed value as this factory's own error so it is
    // reported ahead of any modifier problem, and skip constructing a
    // predictor that is already disqualified.
    if (!p.error().empty()) {
        error = p.error();
        return false;
    }

    // The typed ranges above cover every single-key check; what is
    // left are the cross-key ones, owned by TageConfig.
    Err invalid = TageConfig::checkHistorySpan(g.minHistory, g.maxHistory,
                                               g.numTables);
    if (invalid.ok()) {
        out = TageConfig::fromGeometry("custom", g);
        out.bimodalCtrBits = bim_ctr;
        out.taggedCtrBits = ctr;
        out.usefulBits = ubits;
        out.useAltOnNa = ualt;
        invalid = out.validate();
    }
    if (invalid.failed())
        error = invalid.detail;
    return invalid.ok();
}

/** The tage* base of one named budget, or with Loop its ltage* base. */
template <TageGeometry (*Geometry)(), bool Loop = false>
std::unique_ptr<GradedPredictor>
makeTage(const SpecParams& params, const SpecModifiers& mods,
         std::string& error)
{
    if (Loop && mods.adaptive) {
        error = "adaptive is not supported on ltage bases";
        return nullptr;
    }
    TageConfig cfg;
    if (!buildTageConfig(Geometry(), params, cfg, error))
        return nullptr;
    if (mods.prob)
        cfg = cfg.withProbabilisticSaturation(mods.probLog2);
    if (mods.adaptive && !cfg.probabilisticSaturation) {
        error = "adaptive requires probabilisticSaturation "
                "(add +prob to the spec)";
        return nullptr;
    }
    GradedTageOptions opt;
    opt.adaptive = mods.adaptive;
    opt.loop = Loop;
    return std::make_unique<GradedTage>(std::move(cfg), opt);
}

std::unique_ptr<GradedPredictor>
makeGshare(const SpecParams& p, const SpecModifiers& m, std::string& e)
{
    if (!rejectModifiers("gshare", m, e))
        return nullptr;
    const int entries = static_cast<int>(p.getInt("entries", 15, 1, 24));
    const int hist = static_cast<int>(p.getInt("hist", 15, 1, 64));
    const int ctr = static_cast<int>(p.getInt("ctr", 2, 1, 8));
    return std::make_unique<GsharePredictor>(entries, hist, ctr);
}

std::unique_ptr<GradedPredictor>
makeBimodal(const SpecParams& p, const SpecModifiers& m, std::string& e)
{
    if (!rejectModifiers("bimodal", m, e))
        return nullptr;
    const int entries = static_cast<int>(p.getInt("entries", 15, 1, 24));
    const int ctr = static_cast<int>(p.getInt("ctr", 2, 1, 8));
    return std::make_unique<BimodalPredictor>(entries, ctr);
}

std::unique_ptr<GradedPredictor>
makePerceptron(const SpecParams& p, const SpecModifiers& m,
               std::string& e)
{
    if (!rejectModifiers("perceptron", m, e))
        return nullptr;
    const int perceptrons =
        static_cast<int>(p.getInt("perceptrons", 9, 1, 20));
    const int hist = static_cast<int>(p.getInt("hist", 32, 1, 64));
    return std::make_unique<PerceptronPredictor>(perceptrons, hist);
}

std::unique_ptr<GradedPredictor>
makeOgehl(const SpecParams& p, const SpecModifiers& m, std::string& e)
{
    if (!rejectModifiers("ogehl", m, e))
        return nullptr;
    OgehlPredictor::Config cfg;
    cfg.numTables =
        static_cast<int>(p.getInt("tables", cfg.numTables, 2, 16));
    cfg.logEntries =
        static_cast<int>(p.getInt("entries", cfg.logEntries, 4, 20));
    cfg.ctrBits = static_cast<int>(p.getInt("ctr", cfg.ctrBits, 2, 8));
    cfg.minHistory =
        static_cast<int>(p.getInt("minhist", cfg.minHistory, 1, 4000));
    cfg.maxHistory =
        static_cast<int>(p.getInt("maxhist", cfg.maxHistory, 1, 4000));
    cfg.initialTheta =
        static_cast<int>(p.getInt("theta", cfg.initialTheta, 1, 1024));
    if (!p.error().empty()) {
        e = p.error();
        return nullptr;
    }
    // T1..T_{M-1} take a geometric series of numTables-1 lengths.
    if (Err span = TageConfig::checkHistorySpan(
            cfg.minHistory, cfg.maxHistory, cfg.numTables - 1);
        span.failed()) {
        e = span.detail;
        return nullptr;
    }
    return std::make_unique<OgehlPredictor>(cfg);
}

/**
 * One predictor base. Its factory returns nullptr after filling the
 * error (e.g. when a modifier does not apply). It reads each supported
 * parameter through the typed getters; tryMakePredictor() then rejects
 * the spec if a supplied key went unread or a value was malformed.
 */
struct PredictorBase {
    const char* name;

    /** The runnable spec listings show for this base. */
    const char* example;

    std::unique_ptr<GradedPredictor> (*make)(const SpecParams& params,
                                             const SpecModifiers& mods,
                                             std::string& error);
};

/** Every base, sorted by name (the order listings print). */
const PredictorBase kBases[] = {
    {"bimodal", "bimodal+sfc", makeBimodal},
    {"gshare", "gshare+jrs", makeGshare},
    {"ltage16k", "ltage16k+sfc", makeTage<TageConfig::geometry16K, true>},
    {"ltage256k", "ltage256k+sfc",
     makeTage<TageConfig::geometry256K, true>},
    {"ltage64k", "ltage64k+sfc", makeTage<TageConfig::geometry64K, true>},
    {"ogehl", "ogehl+sfc", makeOgehl},
    {"perceptron", "perceptron+sfc", makePerceptron},
    {"tage16k", "tage16k+prob7+sfc", makeTage<TageConfig::geometry16K>},
    {"tage256k", "tage256k+prob7+sfc",
     makeTage<TageConfig::geometry256K>},
    {"tage64k", "tage64k+prob7+sfc", makeTage<TageConfig::geometry64K>},
};

const PredictorBase*
findBase(const std::string& name)
{
    const auto it =
        std::find_if(std::begin(kBases), std::end(kBases),
                     [&](const PredictorBase& b) { return name == b.name; });
    return it == std::end(kBases) ? nullptr : it;
}

/** Estimator tokens; "self" is an alias resolved to "sfc". */
const std::vector<std::string> kEstimatorTokens = {
    "blind", "jrs", "jrsg", "self", "sfc",
};

bool
isEstimatorToken(const std::string& tok)
{
    return std::find(kEstimatorTokens.begin(), kEstimatorTokens.end(),
                     tok) != kEstimatorTokens.end();
}

/** Everything a spec string parses into. */
struct ParsedSpec {
    const PredictorBase* base = nullptr;
    SpecParams params;
    SpecModifiers mods;
    std::string estimator; // canonical token, empty = none
};

bool
parseSpec(const std::string& spec, ParsedSpec& out, std::string& error)
{
    std::vector<std::string> tokens;
    if (!splitSpec(spec, tokens, error))
        return false;

    // tokens[0] is "base" or "base:key=value,..."
    const auto colon = tokens[0].find(':');
    const std::string base = tokens[0].substr(0, colon);
    if (colon != std::string::npos) {
        std::string param_error;
        if (!SpecParams::parse(tokens[0].substr(colon + 1), out.params,
                               param_error)) {
            error = "malformed spec '" + spec + "': " + param_error;
            return false;
        }
    }
    out.base = findBase(base);
    if (out.base == nullptr) {
        std::string names;
        for (const auto& known : kBases)
            names += (names.empty() ? "" : ", ") + std::string(known.name);
        error = "unknown predictor base '" + base + "' (known: " + names +
                ")";
        return false;
    }

    const auto repeated = [&](const std::string& what) {
        error = "spec '" + spec + "' names more than one " + what;
        return false;
    };
    for (size_t i = 1; i < tokens.size(); ++i) {
        const std::string& tok = tokens[i];
        if (tok.find(':') != std::string::npos) {
            error = "parameters only attach to the base, not to '" +
                    tok + "' in spec '" + spec + "'";
            return false;
        }
        if (isEstimatorToken(tok)) {
            if (!out.estimator.empty())
                return repeated("estimator");
            out.estimator = tok == "self" ? "sfc" : tok;
        } else if (tok == "adaptive") {
            if (out.mods.adaptive)
                return repeated("adaptive modifier");
            out.mods.adaptive = true;
        } else if (tok.rfind("prob", 0) == 0) {
            if (out.mods.prob)
                return repeated("prob modifier");
            out.mods.prob = true;
            const std::string digits = tok.substr(4);
            if (!digits.empty()) {
                if (!std::all_of(digits.begin(), digits.end(),
                                 [](unsigned char c) {
                                     return std::isdigit(c);
                                 })) {
                    error = "malformed prob modifier '" + tok + "'";
                    return false;
                }
                if (digits.size() > 2 ||
                    std::stoul(digits) > 15) {
                    error = "prob log2(1/p) out of range (0..15): '" +
                            tok + "'";
                    return false;
                }
                out.mods.probLog2 =
                    static_cast<unsigned>(std::stoul(digits));
            }
        } else {
            error = "unknown token '" + tok + "' in spec '" + spec + "'";
            return false;
        }
    }
    return true;
}

std::string
canonicalName(const ParsedSpec& p)
{
    std::string s = p.base->name;
    if (!p.params.empty())
        s += ":" + p.params.canonical();
    if (p.mods.prob)
        s += "+prob" + std::to_string(p.mods.probLog2);
    if (p.mods.adaptive)
        s += "+adaptive";
    if (!p.estimator.empty())
        s += "+" + p.estimator;
    return s;
}

/** The estimator a token other than "sfc" attaches. */
std::unique_ptr<ConfidenceEstimator>
makeEstimator(const std::string& token)
{
    if (token == "jrs")
        return std::make_unique<JrsConfidenceEstimator>();
    if (token == "jrsg") {
        JrsConfidenceEstimator::Config cfg;
        cfg.indexWithPrediction = true;
        return std::make_unique<JrsConfidenceEstimator>(cfg);
    }
    if (token == "blind")
        return std::make_unique<BlindEstimator>();
    return nullptr;
}

} // namespace

std::vector<std::string>
registeredBases()
{
    std::vector<std::string> names;
    for (const auto& base : kBases)
        names.push_back(base.name);
    return names;
}

std::vector<std::string>
exampleSpecs()
{
    std::vector<std::string> specs;
    for (const auto& base : kBases)
        specs.push_back(base.example);
    specs.insert(specs.end(), {"tage64k+prob7+adaptive+sfc",
                               "gshare+jrsg", "tage64k+jrs", "gshare",
                               "gshare:entries=16,hist=17+jrs",
                               "tage64k:ctr=4,tables=8+prob7+sfc",
                               "ogehl:maxhist=120,tables=6+sfc"});
    return specs;
}

void
printPredictorCatalog(std::ostream& out)
{
    out << "registered predictor bases:\n";
    for (const auto& base : kBases)
        out << "  " << base.name << "\n";
    out << "estimator tokens:\n";
    for (const auto& token : kEstimatorTokens)
        out << "  " << token << "\n";
    out << "example specs:\n";
    for (const auto& spec : exampleSpecs())
        out << "  " << spec << "\n";
}

std::vector<std::string>
regroupSpecList(const std::vector<std::string>& items)
{
    std::vector<std::string> specs;
    for (const auto& item : items) {
        const std::string head =
            item.substr(0, item.find_first_of(":+"));
        if (!specs.empty() && head.find('=') != std::string::npos)
            specs.back() += "," + item;
        else
            specs.push_back(item);
    }
    return specs;
}

std::string
canonicalizeSpec(const std::string& spec, std::string* error)
{
    ParsedSpec parsed;
    std::string err;
    if (!parseSpec(spec, parsed, err)) {
        if (error)
            *error = err;
        return "";
    }
    return canonicalName(parsed);
}

std::unique_ptr<GradedPredictor>
tryMakePredictor(const std::string& spec, std::string* error)
{
    ParsedSpec parsed;
    std::string err;
    std::unique_ptr<GradedPredictor> predictor;
    if (parseSpec(spec, parsed, err)) {
        predictor = parsed.base->make(parsed.params, parsed.mods, err);
        // Parameter hygiene: every supplied key must have been read by
        // the factory, and every value must have parsed cleanly.
        if (predictor && !parsed.params.error().empty()) {
            err = "spec '" + spec + "': " + parsed.params.error();
            predictor.reset();
        }
        if (predictor) {
            const auto unknown = parsed.params.unrecognizedKeys();
            if (!unknown.empty()) {
                std::string names;
                for (const auto& k : unknown)
                    names += (names.empty() ? "" : ", ") + k;
                err = "unknown parameter(s) [" + names +
                      "] for base '" + parsed.base->name + "'";
                predictor.reset();
            }
        }
        // "sfc" is the host's own grade, so it names the host itself.
        if (predictor && parsed.estimator == "sfc") {
            if (!predictor->hasIntrinsicConfidence()) {
                err = "estimator 'sfc' requires a predictor with "
                      "intrinsic confidence; '" +
                      std::string(parsed.base->name) +
                      "' has none (attach +jrs instead)";
                predictor.reset();
            }
        } else if (predictor && !parsed.estimator.empty()) {
            predictor = std::make_unique<EstimatedPredictor>(
                std::move(predictor), makeEstimator(parsed.estimator));
        }
    }
    if (!predictor) {
        if (error)
            *error = err;
        return nullptr;
    }
    predictor->setName(canonicalName(parsed));
    return predictor;
}

std::unique_ptr<GradedPredictor>
makePredictor(const std::string& spec)
{
    std::string error;
    auto predictor = tryMakePredictor(spec, &error);
    if (!predictor)
        panic("makePredictor: " + error);
    return predictor;
}

} // namespace tagecon
