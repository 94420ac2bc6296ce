/**
 * @file
 * Abstract stream of dynamic branches plus an in-memory implementation.
 * Synthetic generators (workload.hpp) and file readers (trace_io.hpp,
 * cbp_ascii.hpp) implement the same interface so the simulation driver
 * is agnostic to where branches come from.
 */

#ifndef TAGECON_TRACE_TRACE_SOURCE_HPP
#define TAGECON_TRACE_TRACE_SOURCE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/branch_record.hpp"
#include "util/errors.hpp"

namespace tagecon {

/**
 * A replayable stream of BranchRecords.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next branch.
     * @param out Filled with the next record when available.
     * @retval true A record was produced.
     * @retval false The trace is exhausted — or failed; a source that
     *         can fail mid-stream (file readers) reports the reason
     *         through lastError(), so consumers distinguish a clean
     *         end from a truncated or unreadable stream.
     */
    virtual bool next(BranchRecord& out) = 0;

    /**
     * Produce the next records into @p out, in order: exactly the
     * records, and the end, that out.size() calls of next() would give.
     * Returns how many were written. A short count means next() would
     * have returned false there — a clean end or a failure, told apart
     * by lastError(), which is then what next() would have left.
     *
     * The default calls next() once per record. A source that
     * generates records in bulk (SyntheticTrace) overrides it, so a
     * consumer pays one virtual call per chunk instead of one per
     * branch.
     */
    virtual size_t fill(std::span<BranchRecord> out);

    /**
     * The error that ended the stream, or nullptr when none: next()
     * returning false with a null lastError() is a clean exhaustion.
     * In-memory sources never fail; file readers latch truncation,
     * parse and injected-fault errors here instead of fatal()ing, so
     * the serving engine can quarantine the one affected stream.
     */
    virtual const Err* lastError() const { return nullptr; }

    /** Rewind to the beginning; the replay is bit-identical. */
    virtual void reset() = 0;

    /** Human-readable trace name (e.g. "FP-1", "164.gzip"). */
    virtual std::string name() const = 0;
};

/**
 * Trace backed by a vector of records; useful in tests and as the
 * materialized form of a synthetic trace.
 */
class VectorTrace : public TraceSource
{
  public:
    /** Wrap @p records under display name @p name. */
    VectorTrace(std::string name, std::vector<BranchRecord> records)
        : name_(std::move(name)), records_(std::move(records))
    {
    }

    bool
    next(BranchRecord& out) override
    {
        if (pos_ >= records_.size())
            return false;
        out = records_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

    std::string name() const override { return name_; }

    /** Underlying records (read-only). */
    const std::vector<BranchRecord>& records() const { return records_; }

    /** Number of records in the trace. */
    size_t size() const { return records_.size(); }

  private:
    std::string name_;
    std::vector<BranchRecord> records_;
    size_t pos_ = 0;
};

/**
 * Replays at most @p limit records of a wrapped source, then reports
 * exhaustion. reset() rewinds the inner source too, so the truncated
 * replay is repeatable. Used by the trace registry to cap file-backed
 * traces at a sweep's branches-per-cell without materializing them.
 */
class LimitedTrace : public TraceSource
{
  public:
    /** Own @p inner and replay at most @p limit of its records. */
    LimitedTrace(std::unique_ptr<TraceSource> inner, uint64_t limit)
        : inner_(std::move(inner)), limit_(limit)
    {
    }

    bool
    next(BranchRecord& out) override
    {
        if (emitted_ >= limit_ || !inner_->next(out))
            return false;
        ++emitted_;
        return true;
    }

    void
    reset() override
    {
        inner_->reset();
        emitted_ = 0;
    }

    std::string name() const override { return inner_->name(); }

    const Err* lastError() const override { return inner_->lastError(); }

  private:
    std::unique_ptr<TraceSource> inner_;
    uint64_t limit_;
    uint64_t emitted_ = 0;
};

/**
 * Drain up to @p max_records records of @p src into a VectorTrace.
 * Does not reset @p src first; drains from its current position.
 * @p max_records is a cap, not a size hint: arbitrarily large values
 * (e.g. SIZE_MAX for "everything") are safe and allocate only what the
 * source actually produces.
 */
VectorTrace materialize(TraceSource& src, size_t max_records);

} // namespace tagecon

#endif // TAGECON_TRACE_TRACE_SOURCE_HPP
