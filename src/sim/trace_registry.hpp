/**
 * @file
 * String-keyed factory for trace sources, mirroring the predictor
 * registry (sim/registry.hpp): one spec string names where a sweep
 * cell's branches come from, so drivers, benches and the CLI can point
 * any grid at synthetic profiles and real trace files alike without
 * bespoke wiring:
 *
 *   auto t = openTraceSource("164.gzip", 1000000);      // synthetic
 *   auto u = openTraceSource("file:traces/gcc.tcbt", 0); // recorded
 *
 * Trace spec grammar:
 *
 *   spec := "file:" PATH   a trace file: binary .tcbt (trace_io.hpp)
 *                          or CBP-style ASCII, optionally
 *                          gzip-compressed (cbp_ascii.hpp); the format
 *                          is sniffed from the file contents
 *         | NAME           a named synthetic profile ("FP-1",
 *                          "300.twolf"; see trace/profiles.hpp)
 *
 * Set aliases, expanded by resolveTraceSpecs(): "cbp1", "cbp2" and
 * "all" (case-insensitive), one constant table in trace_registry.cpp.
 *
 * Semantics shared by every consumer (runSweep, tagecon_sweep,
 * benches):
 *  - synthetic specs generate exactly @c branches records, salted by
 *    @c seed_salt;
 *  - file specs replay the recorded stream, capped at @c branches
 *    records (files shorter than the cap replay fully); @c seed_salt
 *    does not apply — a recorded stream has no seed;
 *  - every openTraceSource() call returns an independent source with
 *    its own file handle, so parallel sweep cells never share reader
 *    state and grids stay bit-identical to serial runs.
 */

#ifndef TAGECON_SIM_TRACE_REGISTRY_HPP
#define TAGECON_SIM_TRACE_REGISTRY_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_source.hpp"
#include "util/errors.hpp"

namespace tagecon {

/** Parsed form of one trace spec string. */
struct TraceSpec {
    /** Where the records come from. */
    enum class Kind {
        Synthetic, ///< named profile, generated on the fly
        File,      ///< recorded trace file (.tcbt or ASCII[.gz])
    };

    Kind kind = Kind::Synthetic;

    /** Profile name (Synthetic) or file path (File). */
    std::string key;

    /** The canonical spec string ("file:PATH" or the profile name). */
    std::string spec() const;
};

/**
 * Parse @p text into @p out. Purely syntactic — existence of the
 * profile or file is checked by validateTraceSpec(). Returns false
 * with the reason in @p error (when non-null) on e.g. "file:" with an
 * empty path.
 */
[[nodiscard]] bool parseTraceSpec(const std::string& text, TraceSpec& out,
                    std::string* error = nullptr);

/**
 * Check that @p spec is usable: a Synthetic spec must name a known
 * profile; a File spec must open and carry a well-formed header /
 * first record (probed without reading the whole file). Returns false
 * with the reason in @p error (when non-null). This is what
 * SweepPlan::validate() calls so workers can't hit a bad trace
 * mid-sweep.
 */
[[nodiscard]] bool validateTraceSpec(const TraceSpec& spec,
                       std::string* error = nullptr);

/**
 * Expand user trace arguments into individual trace specs: each item
 * is a trace spec, or a set alias ("cbp1" / "cbp2" / "all",
 * case-insensitive). Every resulting spec is validated. Returns false
 * with the reason in @p error.
 */
[[nodiscard]] bool resolveTraceSpecs(const std::vector<std::string>& args,
                       std::vector<std::string>& out,
                       std::string& error);

/**
 * Construct an independent TraceSource for @p spec — the trace-side
 * mirror of tryMakePredictor(), with typed errors. This is how a
 * trace spec from outside the program is opened: an unknown name or
 * an unusable file comes back as an Err (makeTrace() is for names the
 * program itself supplies, and panics). @p branches caps the stream
 * (generated length for synthetic specs, replay cap for files; files
 * shorter than the cap replay fully). @p seed_salt perturbs synthetic
 * generation and is ignored by file specs.
 *
 * This is the "trace.open" failpoint site: an armed fault fires here
 * for synthetic and file specs alike, so tests can quarantine any
 * stream without staging a broken file.
 */
Expected<std::unique_ptr<TraceSource>>
openTraceSource(const TraceSpec& spec, uint64_t branches,
                uint64_t seed_salt = 0);

/** Overload parsing @p spec first. */
Expected<std::unique_ptr<TraceSource>>
openTraceSource(const std::string& spec, uint64_t branches,
                uint64_t seed_salt = 0);

} // namespace tagecon

#endif // TAGECON_SIM_TRACE_REGISTRY_HPP
