/**
 * @file
 * The benchmark's metric math: medians over timed rounds, per-1000-
 * branch and share bases, and the layer split of a span trace.
 *
 * A span's layer is its name up to the first dot ("tage.snapshot" is
 * in layer "tage"). A span's self time is its duration minus the
 * durations of its direct children: the spans on the same thread that
 * it encloses with no other enclosing span in between.
 */

#ifndef PERFBENCH_LAYER_SPLIT_HPP
#define PERFBENCH_LAYER_SPLIT_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/span_trace.hpp"

namespace perfbench {

/** Median of @p values (mean of the middle two when even); 0 if empty. */
double median(std::vector<double> values);

/** 1000 x @p count / @p branches; 0 when there are no branches. */
double perKiloBranch(double count, double branches);

/** @p part / @p whole; 0 when @p whole is 0. */
double share(double part, double whole);

/** The layer of span @p name: the text before its first dot. */
std::string layerOf(const char* name);

/** Self time of each of @p events, in the same order. */
std::vector<uint64_t> selfTimes(const std::vector<tagecon::obs::SpanEvent>& events);

/** Per span name: calls and their total duration. */
struct SpanTotals {
    uint64_t calls = 0;
    uint64_t totalNs = 0;
};

/** The split of one trace: totals per span name, self time per layer. */
struct LayerSplit {
    std::map<std::string, SpanTotals> byName;
    std::map<std::string, uint64_t> selfByLayer;

    /** Total for span name @p name (zeros when absent). */
    SpanTotals name(const std::string& name) const;

    /** Self time of layer @p layer (0 when absent). */
    uint64_t layer(const std::string& layer) const;

    /** Sum of every layer's self time. */
    uint64_t selfSum() const;
};

LayerSplit splitLayers(const std::vector<tagecon::obs::SpanEvent>& events);

/**
 * Write @p events as a Chrome trace_event JSON document, shaped like
 * obs::writeChromeTrace()'s. That one drains the tracer's store, and
 * the benchmark takes the events out first to split them.
 */
void writeChromeJson(const std::vector<tagecon::obs::SpanEvent>& events,
                     std::ostream& os);

} // namespace perfbench

#endif // PERFBENCH_LAYER_SPLIT_HPP
