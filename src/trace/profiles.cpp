#include "trace/profiles.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/state_io.hpp"

namespace tagecon {

namespace {

/** FNV-1a hash of the trace name: stable per-profile seed. */
uint64_t
nameSeed(const std::string& name)
{
    return fnv1a64(name) | 1;
}

// --- Family bases --------------------------------------------------------
//
// Calibration note: the dynamic fraction of intrinsically random
// branches (biased + markov) dominates a trace's achievable accuracy;
// real programs sit between ~1% (FP) and ~20% (twolf-like). Keeping
// that fraction low also keeps the global history low-entropy, which
// is what lets the tagged components capture the predictable branches.

/** Loop-dominated, highly predictable, branch-sparse (CBP-1 FP). */
ProfileParams
fpBase()
{
    ProfileParams p;
    p.numFunctions = 12;
    p.minSitesPerFunction = 4;
    p.maxSitesPerFunction = 10;
    p.zipfSkew = 0.9;
    p.fracAlways = 0.50;
    p.fracLoop = 0.06; // loops dominate the *dynamic* stream anyway
    p.fracPattern = 0.08;
    p.fracBiased = 0.015;
    p.fracMarkov = 0.015;
    p.fracCorrelated = 0.05;
    p.loopPeriodMin = 6;
    p.loopPeriodMax = 40;
    p.loopTripJitter = 0.03;
    p.biasMin = 0.95;
    p.biasMax = 0.995;
    p.markovStayMin = 0.90;
    p.markovStayMax = 0.98;
    p.corrTapMin = 1;
    p.corrTapMax = 8;
    p.corrNoise = 0.01;
    p.instrPerBranchMin = 8;
    p.instrPerBranchMax = 14;
    return p;
}

/** Mixed integer code: moderate footprint, a few hard branches. */
ProfileParams
intBase()
{
    ProfileParams p;
    p.numFunctions = 48;
    p.minSitesPerFunction = 3;
    p.maxSitesPerFunction = 12;
    p.zipfSkew = 1.0;
    p.fracAlways = 0.46;
    p.fracLoop = 0.05;
    p.fracPattern = 0.10;
    p.fracBiased = 0.04;
    p.fracMarkov = 0.03;
    p.fracCorrelated = 0.14;
    p.loopPeriodMin = 3;
    p.loopPeriodMax = 40;
    p.loopTripJitter = 0.06;
    p.biasMin = 0.75;
    p.biasMax = 0.92;
    p.markovStayMin = 0.85;
    p.markovStayMax = 0.97;
    p.corrTapMin = 1;
    p.corrTapMax = 10;
    p.corrNoise = 0.01;
    p.instrPerBranchMin = 4;
    p.instrPerBranchMax = 7;
    p.numPhases = 2;
    p.phaseLength = 300000;
    p.phasedSiteFraction = 0.05;
    return p;
}

/** Multimedia: kernels plus data-dependent (unpredictable) branches. */
ProfileParams
mmBase()
{
    ProfileParams p;
    p.numFunctions = 32;
    p.minSitesPerFunction = 3;
    p.maxSitesPerFunction = 10;
    p.zipfSkew = 1.1;
    p.fracAlways = 0.40;
    p.fracLoop = 0.10;
    p.fracPattern = 0.12;
    p.fracBiased = 0.09;
    p.fracMarkov = 0.04;
    p.fracCorrelated = 0.08;
    p.loopPeriodMin = 4;
    p.loopPeriodMax = 24;
    p.loopTripJitter = 0.06;
    p.biasMin = 0.70;
    p.biasMax = 0.90;
    p.markovStayMin = 0.75;
    p.markovStayMax = 0.95;
    p.corrTapMin = 1;
    p.corrTapMax = 8;
    p.corrNoise = 0.01;
    p.instrPerBranchMin = 5;
    p.instrPerBranchMax = 9;
    return p;
}

/**
 * Server / OLTP: very large branch footprint of individually easy
 * branches, phased working sets — capacity pressure on small budgets.
 */
ProfileParams
servBase()
{
    ProfileParams p;
    p.numFunctions = 240;
    p.minSitesPerFunction = 3;
    p.maxSitesPerFunction = 8;
    p.zipfSkew = 0.6;
    p.hotFraction = 0.20;
    p.fracAlways = 0.52;
    p.fracLoop = 0.08;
    p.fracPattern = 0.12;
    p.fracBiased = 0.03;
    p.fracMarkov = 0.02;
    p.fracCorrelated = 0.10;
    p.loopPeriodMin = 3;
    p.loopPeriodMax = 8;
    p.loopTripJitter = 0.08;
    p.biasMin = 0.90;
    p.biasMax = 0.97;
    p.markovStayMin = 0.90;
    p.markovStayMax = 0.98;
    p.corrTapMin = 1;
    p.corrTapMax = 8;
    p.corrNoise = 0.01;
    p.instrPerBranchMin = 4;
    p.instrPerBranchMax = 6;
    p.numPhases = 3;
    p.phaseLength = 150000;
    p.phasedSiteFraction = 0.05;
    return p;
}

/** Java (JVM98): moderate-large footprint, mostly predictable. */
ProfileParams
javaBase()
{
    ProfileParams p;
    p.numFunctions = 128;
    p.minSitesPerFunction = 3;
    p.maxSitesPerFunction = 9;
    p.zipfSkew = 0.9;
    p.fracAlways = 0.46;
    p.fracLoop = 0.08;
    p.fracPattern = 0.12;
    p.fracBiased = 0.03;
    p.fracMarkov = 0.03;
    p.fracCorrelated = 0.18;
    p.loopPeriodMin = 3;
    p.loopPeriodMax = 16;
    p.loopTripJitter = 0.08;
    p.biasMin = 0.80;
    p.biasMax = 0.95;
    p.markovStayMin = 0.85;
    p.markovStayMax = 0.97;
    p.corrTapMin = 1;
    p.corrTapMax = 10;
    p.corrNoise = 0.01;
    p.instrPerBranchMin = 5;
    p.instrPerBranchMax = 8;
    p.numPhases = 2;
    p.phaseLength = 250000;
    p.phasedSiteFraction = 0.08;
    return p;
}

ProfileParams
unknownProfile(const std::string& name)
{
    panic("unknown trace profile '" + name + "'");
}

ProfileParams
cbp1Profile(const std::string& name)
{
    // ---- FP ----
    if (name == "FP-1")
        return fpBase();
    if (name == "FP-2") {
        ProfileParams p = fpBase();
        p.fracPattern = 0.16;
        p.fracLoop = 0.05;
        p.patternLenMax = 16;
        return p;
    }
    if (name == "FP-3") {
        // Long loops: predictable only when the history window covers
        // the period — separates the three predictor sizes.
        ProfileParams p = fpBase();
        p.loopPeriodMin = 40;
        p.loopPeriodMax = 250;
        p.fracLoop = 0.05;
        p.fracAlways = 0.48;
        p.loopTripJitter = 0.02;
        return p;
    }
    if (name == "FP-4") {
        ProfileParams p = fpBase();
        p.fracBiased = 0.01;
        p.fracMarkov = 0.01;
        p.biasMin = 0.97;
        p.biasMax = 0.997;
        return p;
    }
    if (name == "FP-5") {
        ProfileParams p = fpBase();
        p.fracMarkov = 0.05;
        p.fracBiased = 0.04;
        p.biasMin = 0.88;
        p.biasMax = 0.97;
        return p;
    }

    // ---- INT ----
    if (name == "INT-1")
        return intBase();
    if (name == "INT-2") {
        ProfileParams p = intBase();
        p.fracBiased = 0.08;
        p.biasMin = 0.70;
        p.biasMax = 0.90;
        p.fracAlways = 0.32;
        return p;
    }
    if (name == "INT-3") {
        ProfileParams p = intBase();
        p.numFunctions = 96;
        p.fracBiased = 0.06;
        p.biasMin = 0.70;
        p.biasMax = 0.92;
        p.numPhases = 3;
        p.phasedSiteFraction = 0.06;
        return p;
    }
    if (name == "INT-4") {
        ProfileParams p = intBase();
        p.fracBiased = 0.03;
        p.fracCorrelated = 0.08;
        p.corrTapMin = 20;
        p.corrTapMax = 110;
        return p;
    }
    if (name == "INT-5") {
        // Tagged-component-dominated: small footprint of history-hungry
        // branches; the paper notes only ~6% BIM coverage here.
        ProfileParams p = intBase();
        p.numFunctions = 12;
        p.fracAlways = 0.04;
        p.fracLoop = 0.14;
        p.loopPeriodMin = 8;
        p.loopPeriodMax = 40;
        p.fracCorrelated = 0.28;
        p.fracPattern = 0.18;
        p.fracBiased = 0.06;
        p.fracMarkov = 0.06;
        p.numPhases = 1;
        return p;
    }

    // ---- MM ----
    if (name == "MM-1") {
        ProfileParams p = mmBase();
        p.fracBiased = 0.12;
        p.biasMin = 0.60;
        p.biasMax = 0.80;
        return p;
    }
    if (name == "MM-2") {
        ProfileParams p = mmBase();
        p.fracBiased = 0.10;
        p.fracMarkov = 0.08;
        p.markovStayMin = 0.60;
        p.markovStayMax = 0.85;
        return p;
    }
    if (name == "MM-3")
        return mmBase();
    if (name == "MM-4") {
        ProfileParams p = mmBase();
        p.fracBiased = 0.03;
        p.fracLoop = 0.12;
        p.biasMin = 0.90;
        p.biasMax = 0.98;
        return p;
    }
    if (name == "MM-5") {
        ProfileParams p = mmBase();
        p.numFunctions = 64;
        p.fracBiased = 0.13;
        p.biasMin = 0.60;
        p.biasMax = 0.80;
        p.numPhases = 3;
        p.phaseLength = 200000;
        p.phasedSiteFraction = 0.10;
        return p;
    }

    // ---- SERV ----
    if (name == "SERV-1")
        return servBase();
    if (name == "SERV-2") {
        ProfileParams p = servBase();
        p.numFunctions = 320;
        p.phasedSiteFraction = 0.08;
        return p;
    }
    if (name == "SERV-3") {
        ProfileParams p = servBase();
        p.numFunctions = 200;
        p.fracBiased = 0.05;
        p.biasMin = 0.85;
        p.biasMax = 0.95;
        return p;
    }
    if (name == "SERV-4") {
        ProfileParams p = servBase();
        p.numFunctions = 288;
        p.zipfSkew = 0.5;
        return p;
    }
    if (name == "SERV-5") {
        ProfileParams p = servBase();
        p.numPhases = 5;
        p.phaseLength = 120000;
        p.phasedSiteFraction = 0.06;
        return p;
    }

    return unknownProfile(name);
}

ProfileParams
cbp2Profile(const std::string& name)
{
    if (name == "164.gzip") {
        ProfileParams p = mmBase();
        p.numFunctions = 24;
        p.fracBiased = 0.12;
        p.biasMin = 0.68;
        p.biasMax = 0.88;
        p.fracLoop = 0.10;
        p.loopPeriodMin = 6;
        p.loopPeriodMax = 30;
        p.instrPerBranchMin = 4;
        p.instrPerBranchMax = 7;
        return p;
    }
    if (name == "175.vpr") {
        ProfileParams p = intBase();
        p.fracBiased = 0.09;
        p.biasMin = 0.68;
        p.biasMax = 0.85;
        p.fracMarkov = 0.06;
        p.markovStayMin = 0.70;
        p.markovStayMax = 0.90;
        return p;
    }
    if (name == "176.gcc") {
        ProfileParams p = servBase();
        p.numFunctions = 288;
        p.minSitesPerFunction = 3;
        p.maxSitesPerFunction = 8;
        p.numPhases = 4;
        p.phaseLength = 150000;
        p.phasedSiteFraction = 0.08;
        p.fracBiased = 0.04;
        p.biasMin = 0.80;
        p.biasMax = 0.95;
        p.instrPerBranchMin = 4;
        p.instrPerBranchMax = 6;
        return p;
    }
    if (name == "181.mcf") {
        ProfileParams p = intBase();
        p.fracBiased = 0.08;
        p.biasMin = 0.70;
        p.biasMax = 0.85;
        p.fracCorrelated = 0.14;
        p.numFunctions = 24;
        return p;
    }
    if (name == "186.crafty") {
        ProfileParams p = intBase();
        p.numFunctions = 128;
        p.fracBiased = 0.06;
        p.biasMin = 0.72;
        p.biasMax = 0.90;
        p.fracCorrelated = 0.08;
        p.corrTapMin = 16;
        p.corrTapMax = 120;
        return p;
    }
    if (name == "197.parser") {
        ProfileParams p = intBase();
        p.numFunctions = 96;
        p.fracBiased = 0.06;
        p.biasMin = 0.70;
        p.biasMax = 0.90;
        return p;
    }
    if (name == "201.compress") {
        ProfileParams p = intBase();
        p.numFunctions = 20;
        p.fracBiased = 0.06;
        p.biasMin = 0.75;
        p.biasMax = 0.90;
        p.fracMarkov = 0.06;
        return p;
    }
    if (name == "202.jess") {
        ProfileParams p = javaBase();
        p.numFunctions = 160;
        return p;
    }
    if (name == "205.raytrace") {
        ProfileParams p = javaBase();
        p.fracBiased = 0.02;
        p.fracLoop = 0.10;
        p.numFunctions = 96;
        return p;
    }
    if (name == "209.db") {
        ProfileParams p = javaBase();
        p.fracMarkov = 0.06;
        p.fracBiased = 0.05;
        p.biasMin = 0.72;
        p.biasMax = 0.90;
        return p;
    }
    if (name == "213.javac") {
        ProfileParams p = javaBase();
        p.numFunctions = 224;
        p.numPhases = 3;
        p.phasedSiteFraction = 0.06;
        return p;
    }
    if (name == "222.mpegaudio") {
        ProfileParams p = fpBase();
        p.numFunctions = 20;
        p.fracPattern = 0.16;
        p.fracLoop = 0.08;
        p.instrPerBranchMin = 6;
        p.instrPerBranchMax = 10;
        return p;
    }
    if (name == "227.mtrt") {
        ProfileParams p = javaBase();
        p.fracBiased = 0.03;
        p.fracLoop = 0.09;
        p.numFunctions = 96;
        return p;
    }
    if (name == "228.jack") {
        ProfileParams p = javaBase();
        p.numFunctions = 192;
        p.fracBiased = 0.05;
        return p;
    }
    if (name == "252.eon") {
        ProfileParams p = fpBase();
        p.numFunctions = 32;
        p.fracAlways = 0.42;
        p.fracBiased = 0.015;
        p.instrPerBranchMin = 6;
        p.instrPerBranchMax = 10;
        return p;
    }
    if (name == "253.perlbmk") {
        ProfileParams p = javaBase();
        p.numFunctions = 224;
        p.numPhases = 3;
        p.phasedSiteFraction = 0.08;
        p.fracBiased = 0.04;
        return p;
    }
    if (name == "254.gap") {
        ProfileParams p = intBase();
        p.fracBiased = 0.04;
        p.fracLoop = 0.10;
        p.numFunctions = 64;
        return p;
    }
    if (name == "255.vortex") {
        ProfileParams p = javaBase();
        p.numFunctions = 160;
        p.fracBiased = 0.025;
        p.fracAlways = 0.44;
        return p;
    }
    if (name == "256.bzip2") {
        ProfileParams p = intBase();
        p.numFunctions = 24;
        p.fracBiased = 0.09;
        p.biasMin = 0.70;
        p.biasMax = 0.90;
        return p;
    }
    if (name == "300.twolf") {
        // The paper's canonical hard trace: Stag at ~90 MKP with the
        // baseline automaton.
        ProfileParams p = mmBase();
        p.numFunctions = 40;
        p.fracBiased = 0.16;
        p.biasMin = 0.62;
        p.biasMax = 0.82;
        p.fracMarkov = 0.08;
        p.markovStayMin = 0.60;
        p.markovStayMax = 0.85;
        p.instrPerBranchMin = 4;
        p.instrPerBranchMax = 7;
        return p;
    }

    return unknownProfile(name);
}

} // namespace

std::string
benchmarkSetName(BenchmarkSet set)
{
    return set == BenchmarkSet::Cbp1 ? "CBP1" : "CBP2";
}

const std::vector<std::string>&
traceNames(BenchmarkSet set)
{
    static const std::vector<std::string> cbp1 = {
        "FP-1", "FP-2", "FP-3", "FP-4", "FP-5",
        "INT-1", "INT-2", "INT-3", "INT-4", "INT-5",
        "MM-1", "MM-2", "MM-3", "MM-4", "MM-5",
        "SERV-1", "SERV-2", "SERV-3", "SERV-4", "SERV-5",
    };
    static const std::vector<std::string> cbp2 = {
        "164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty",
        "197.parser", "201.compress", "202.jess", "205.raytrace",
        "209.db", "213.javac", "222.mpegaudio", "227.mtrt", "228.jack",
        "252.eon", "253.perlbmk", "254.gap", "255.vortex", "256.bzip2",
        "300.twolf",
    };
    return set == BenchmarkSet::Cbp1 ? cbp1 : cbp2;
}

std::vector<std::string>
allTraceNames()
{
    std::vector<std::string> names = traceNames(BenchmarkSet::Cbp1);
    const auto& cbp2 = traceNames(BenchmarkSet::Cbp2);
    names.insert(names.end(), cbp2.begin(), cbp2.end());
    return names;
}

bool
isKnownProfile(const std::string& name)
{
    for (const BenchmarkSet set : {BenchmarkSet::Cbp1, BenchmarkSet::Cbp2}) {
        const auto& names = traceNames(set);
        if (std::find(names.begin(), names.end(), name) != names.end())
            return true;
    }
    return false;
}

ProfileParams
profileByName(const std::string& name)
{
    const auto& cbp1 = traceNames(BenchmarkSet::Cbp1);
    ProfileParams p;
    if (std::find(cbp1.begin(), cbp1.end(), name) != cbp1.end())
        p = cbp1Profile(name);
    else
        p = cbp2Profile(name);
    p.name = name;
    p.seed = nameSeed(name);
    return p;
}

SyntheticTrace
makeTrace(const std::string& name, uint64_t num_branches,
          uint64_t seed_salt)
{
    ProfileParams p = profileByName(name);
    p.seed ^= seed_salt;
    if (p.seed == 0)
        p.seed = 1;
    return SyntheticTrace(std::move(p), num_branches);
}

} // namespace tagecon
