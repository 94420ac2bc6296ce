/**
 * @file
 * Span-based tracer: RAII scopes around the serving / sweep stages,
 * buffered per thread and exported as Chrome `trace_event` JSON so a
 * whole sharded serve opens in chrome://tracing or Perfetto
 * (https://ui.perfetto.dev — drag the file in).
 *
 *   {
 *       TAGECON_SPAN("serve.shard", shard_id);
 *       ... serve the shard ...
 *   } // span closes, duration recorded
 *
 * Collection model: spans record into an unsynchronized thread-local
 * buffer (no lock, no allocation beyond vector growth), which is
 * flushed into the global event list under the tracer mutex when the
 * thread exits or when the trace is written — so tracing adds no
 * cross-thread synchronization to the paths it observes. Timestamps
 * come from the util/wall_clock seam.
 *
 * Tracing is off by default; every disabled span costs one relaxed
 * atomic load in the constructor (BM_SpanDisabled pins it). Trace
 * output is wall-clock data and therefore lives outside every
 * byte-diff gate, like the timing half of obs/metrics.hpp.
 *
 * Span names must be string literals (the buffer stores the pointer);
 * per-span details (e.g. a sweep column's "trace x spec | spec") go through
 * SpanScope::detail(), guarded by tracingEnabled() at the call site so
 * the string is never built when tracing is off.
 */

#ifndef TAGECON_OBS_SPAN_TRACE_HPP
#define TAGECON_OBS_SPAN_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/errors.hpp"

namespace tagecon {
namespace obs {

namespace detail {
extern std::atomic<int> g_tracingEnabled;
} // namespace detail

/** True when span collection is on. One relaxed load — the gate. */
inline bool
tracingEnabled()
{
    return detail::g_tracingEnabled.load(std::memory_order_relaxed) != 0;
}

/** Drop any buffered events and start collecting spans. */
void startTracing();

/** Stop collecting (buffered events remain until taken or restarted). */
void stopTracing();

/** One completed span. */
struct SpanEvent {
    /** Static name ("serve.shard", "ckpt.write", "sweep.column"). */
    const char* name = "";

    /** Caller-supplied id (shard index, stream id, column index). */
    uint64_t id = 0;

    /** wallclock::monotonicNanos() readings. */
    uint64_t startNs = 0;
    uint64_t endNs = 0;

    /** Small dense thread number (registration order, not OS tid). */
    uint32_t tid = 0;

    /** Optional free-text annotation (empty for most spans). */
    std::string detail;
};

/**
 * RAII span: records a SpanEvent covering its lifetime into the
 * calling thread's buffer. When tracing is disabled at construction
 * the destructor does nothing (a span cannot straddle startTracing()).
 */
class SpanScope
{
  public:
    explicit SpanScope(const char* name, uint64_t id = 0);
    ~SpanScope();

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    /**
     * Attach an annotation shown in the trace viewer's args. Call
     * under `if (obs::tracingEnabled())` so the string is only built
     * when it will be kept.
     */
    void detail(std::string text);

  private:
    const char* name_; // nullptr when tracing was off at construction
    uint64_t id_ = 0;
    uint64_t startNs_ = 0;
    std::string detail_;
};

/** Convenience macro; the variable name is unique per expansion. */
#define TAGECON_SPAN_CAT2(a, b) a##b
#define TAGECON_SPAN_CAT(a, b) TAGECON_SPAN_CAT2(a, b)
#define TAGECON_SPAN(...)                                                  \
    ::tagecon::obs::SpanScope TAGECON_SPAN_CAT(tagecon_span_,              \
                                               __LINE__)(__VA_ARGS__)

/**
 * Flush every thread's buffered events (the calling thread's plus all
 * already-flushed ones) and return them, clearing the store. Events of
 * live worker threads that have not exited are flushed by their
 * thread-local buffer destructors — take the trace after joining.
 */
std::vector<SpanEvent> takeTraceEvents();

/**
 * Write the buffered events (takeTraceEvents()) as a Chrome
 * `trace_event` JSON document: one complete ("ph":"X") event per span,
 * timestamps normalized to the earliest span and converted to
 * microseconds, category = the span name's first dot component.
 */
void writeChromeTrace(std::ostream& os);

/** writeChromeTrace() into @p path ("-" = stdout). */
[[nodiscard]] Err writeChromeTraceFile(const std::string& path);

} // namespace obs
} // namespace tagecon

#endif // TAGECON_OBS_SPAN_TRACE_HPP
