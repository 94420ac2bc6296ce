#include "tage/loop_predictor.hpp"

#include "util/bit_utils.hpp"
#include "util/logging.hpp"
#include "util/saturating_counter.hpp"

namespace tagecon {

LoopPredictor::LoopPredictor()
    : LoopPredictor(Config{})
{
}

LoopPredictor::LoopPredictor(Config cfg)
    : cfg_(cfg),
      confMax_(packed::unsignedMax(cfg.confBits)),
      ageMax_(packed::unsignedMax(cfg.ageBits)),
      iterMax_(packed::unsignedMax(cfg.iterBits))
{
    TAGECON_ASSERT(cfg_.logEntries >= 1 && cfg_.logEntries <= 16,
                   "loop predictor: bad table size");
    TAGECON_ASSERT(cfg_.tagBits >= 2 && cfg_.tagBits <= 16,
                   "loop predictor: bad tag width");
    TAGECON_ASSERT(cfg_.iterBits >= 2 && cfg_.iterBits <= 16,
                   "loop predictor: bad iteration width");
    entries_.assign(size_t{1} << cfg_.logEntries, Entry{});
}

void
LoopPredictor::reset()
{
    entries_.assign(entries_.size(), Entry{});
}

uint32_t
LoopPredictor::indexFor(uint64_t pc) const
{
    return static_cast<uint32_t>((pc ^ (pc >> cfg_.logEntries)) &
                                 maskBits(cfg_.logEntries));
}

uint16_t
LoopPredictor::tagFor(uint64_t pc) const
{
    return static_cast<uint16_t>((pc >> cfg_.logEntries) &
                                 maskBits(cfg_.tagBits));
}

LoopPredictor::Result
LoopPredictor::lookup(uint64_t pc) const
{
    const Entry& e = entries_[indexFor(pc)];
    Result r;
    if (!e.inUse || e.tag != tagFor(pc) || e.confidence != confMax_ ||
        e.pastIter == 0) {
        return r;
    }
    r.valid = true;
    // Exit exactly at the learned trip count, continue otherwise.
    r.taken = (e.currentIter + 1 == e.pastIter) ? !e.dir : e.dir;
    return r;
}

void
LoopPredictor::update(uint64_t pc, bool taken, bool main_mispredicted)
{
    Entry& e = entries_[indexFor(pc)];
    const uint16_t tag = tagFor(pc);

    if (e.inUse && e.tag == tag) {
        e.age = static_cast<uint8_t>(
            packed::unsignedInc(e.age, cfg_.ageBits));

        if (taken == e.dir) {
            // Another iteration of the loop body.
            ++e.currentIter;
            if (e.currentIter >= iterMax_) {
                // Not a bounded loop we can track; free the entry.
                e = Entry{};
            }
            return;
        }

        // Loop exit observed.
        const uint16_t trip =
            static_cast<uint16_t>(e.currentIter + 1);
        if (e.pastIter == trip) {
            e.confidence = static_cast<uint8_t>(
                packed::unsignedInc(e.confidence, cfg_.confBits));
        } else if (e.pastIter == 0) {
            // First complete run: learn the trip count.
            e.pastIter = trip;
            e.confidence = 0;
        } else {
            // Trip count changed: this is not a constant loop.
            e.pastIter = trip;
            e.confidence = 0;
            if (e.age > 0)
                e.age = static_cast<uint8_t>(e.age >> 1);
        }
        e.currentIter = 0;
        return;
    }

    // Miss: consider allocating, but only when the main predictor got
    // this branch wrong (the entry would otherwise add no value).
    if (!main_mispredicted)
        return;
    if (e.inUse && e.age > 0) {
        e.age = static_cast<uint8_t>(packed::unsignedDec(e.age));
        return;
    }
    e = Entry{};
    e.inUse = true;
    e.tag = tag;
    // Allocation happens at a mispredicted loop *exit*, so the
    // loop-continue direction is the opposite of the outcome just
    // observed (as in the L-TAGE reference implementation).
    e.dir = !taken;
    e.currentIter = 0;
    e.pastIter = 0;
    e.confidence = 0;
    e.age = static_cast<uint8_t>(ageMax_ / 2);
}

uint64_t
LoopPredictor::storageBits() const
{
    const uint64_t per_entry =
        static_cast<uint64_t>(cfg_.tagBits) +
        2u * static_cast<uint64_t>(cfg_.iterBits) +
        static_cast<uint64_t>(cfg_.confBits) +
        static_cast<uint64_t>(cfg_.ageBits) + 2; // dir + inUse
    return (uint64_t{1} << cfg_.logEntries) * per_entry;
}

int
LoopPredictor::confidentEntries() const
{
    int n = 0;
    for (const auto& e : entries_) {
        if (e.inUse && e.confidence == confMax_)
            ++n;
    }
    return n;
}

void
LoopPredictor::saveState(StateWriter& out) const
{
    out.u8(static_cast<uint8_t>(cfg_.logEntries));
    out.u8(static_cast<uint8_t>(cfg_.tagBits));
    out.u8(static_cast<uint8_t>(cfg_.iterBits));
    out.u8(static_cast<uint8_t>(cfg_.confBits));
    out.u8(static_cast<uint8_t>(cfg_.ageBits));
    for (const Entry& e : entries_) {
        out.u16(e.tag);
        out.u16(e.pastIter);
        out.u16(e.currentIter);
        out.u8(e.confidence);
        out.u8(e.age);
        out.u8(static_cast<uint8_t>((e.dir ? 1 : 0) | (e.inUse ? 2 : 0)));
    }
}

bool
LoopPredictor::loadState(StateReader& in, std::string& error)
{
    const bool geometry_ok =
        in.u8() == static_cast<uint8_t>(cfg_.logEntries) &&
        in.u8() == static_cast<uint8_t>(cfg_.tagBits) &&
        in.u8() == static_cast<uint8_t>(cfg_.iterBits) &&
        in.u8() == static_cast<uint8_t>(cfg_.confBits) &&
        in.u8() == static_cast<uint8_t>(cfg_.ageBits);
    if (!in.ok() || !geometry_ok) {
        reset();
        error = in.ok() ? "loop predictor state was written with a "
                          "different geometry"
                        : "loop predictor state is truncated";
        return false;
    }
    for (Entry& e : entries_) {
        e.tag = in.u16();
        e.pastIter = in.u16();
        e.currentIter = in.u16();
        e.confidence = in.u8();
        e.age = in.u8();
        const uint8_t flags = in.u8();
        e.dir = (flags & 1) != 0;
        e.inUse = (flags & 2) != 0;
        // update() keeps every field inside its width, frees an entry
        // whose iteration count reaches iterMax, and frees to blank.
        const bool written =
            flags <= 3 && e.tag <= maskBits(cfg_.tagBits) &&
            e.pastIter <= iterMax_ && e.currentIter < iterMax_ &&
            e.confidence <= confMax_ && e.age <= ageMax_ &&
            (e.inUse || e == Entry{});
        if (!in.ok() || !written) {
            reset();
            error = in.ok() ? "loop predictor state carries an entry "
                              "update() never writes"
                            : "loop predictor state is truncated";
            return false;
        }
    }
    return true;
}

} // namespace tagecon
