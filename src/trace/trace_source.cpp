#include "trace/trace_source.hpp"

#include <algorithm>

namespace tagecon {

size_t
TraceSource::fill(std::span<BranchRecord> out)
{
    size_t n = 0;
    while (n < out.size() && next(out[n]))
        ++n;
    return n;
}

VectorTrace
materialize(TraceSource& src, size_t max_records)
{
    std::vector<BranchRecord> records;
    // max_records is a cap, not a promise: reserving the caller's raw
    // value would bad_alloc on e.g. SIZE_MAX before reading a single
    // record. Pre-reserve a bounded amount and let push_back grow.
    constexpr size_t kMaxReserve = size_t{1} << 20;
    records.reserve(std::min(max_records, kMaxReserve));
    BranchRecord rec;
    while (records.size() < max_records && src.next(rec))
        records.push_back(rec);
    return VectorTrace(src.name(), std::move(records));
}

} // namespace tagecon
