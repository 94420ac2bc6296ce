/**
 * @file
 * Golden stream digests of the 40 synthetic profiles: every refactor of
 * the workload generator must replay exactly the records these digests
 * were harvested from.
 *
 * For each profile and each of two seed salts, one FNV-1a digest covers
 *
 *  - the built program: numSites() and countSites() of every kind, and
 *  - the first kRecords records: pc, taken, instructionsBefore, plus the
 *    lastKind() and lastInBody() the trace reports after each one.
 *
 * SERV-5 runs to kServ5Records instead, past all five of its phase
 * edges, wrap-around included, so every phase redraw is pinned too. A
 * second instance of each trace is reset() part-way through a run and
 * must then replay the same digest from the start.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "trace/profiles.hpp"

namespace tagecon {
namespace {

/** FNV-1a 64-bit step over one word. */
uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ULL;
    return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** Records hashed per profile. */
constexpr uint64_t kRecords = 20000;

/** SERV-5 has 5 phases of 120,000 branches: cross every edge. */
constexpr uint64_t kServ5Records = 620000;

constexpr uint64_t kSalts[2] = {0, 0x9E3779B97F4A7C15ULL};

constexpr BehaviorKind kKinds[] = {
    BehaviorKind::Always, BehaviorKind::Loop,   BehaviorKind::Pattern,
    BehaviorKind::Biased, BehaviorKind::Markov, BehaviorKind::Correlated,
};

uint64_t
recordsFor(const std::string& name)
{
    return name == "SERV-5" ? kServ5Records : kRecords;
}

/** Digest of the program and of every record until exhaustion. */
uint64_t
streamDigest(SyntheticTrace& t)
{
    uint64_t h = kFnvOffset;
    h = mix(h, t.numSites());
    for (const BehaviorKind k : kKinds)
        h = mix(h, t.countSites(k));
    BranchRecord rec;
    uint64_t n = 0;
    while (t.next(rec)) {
        h = mix(h, rec.pc);
        h = mix(h, rec.taken ? 1 : 0);
        h = mix(h, rec.instructionsBefore);
        h = mix(h, static_cast<uint64_t>(t.lastKind()));
        h = mix(h, t.lastInBody() ? 1 : 0);
        ++n;
    }
    return mix(h, n);
}

struct Golden {
    const char* name;
    uint64_t digest[2]; ///< per entry of kSalts
};

// Harvested from the generator these tests pin (GCC 12 build).
constexpr Golden kGolden[] = {
    {"FP-1", {0x1b2ed2c36b361058ULL, 0x407b3d468e3062a6ULL}},
    {"FP-2", {0x3678b2c4ad7b6b60ULL, 0x9ea192cebd2aa15fULL}},
    {"FP-3", {0x648ae2bff31b3877ULL, 0xd80756a56190d664ULL}},
    {"FP-4", {0x6e1660020b9f9cc0ULL, 0xe15cc1ae76617e32ULL}},
    {"FP-5", {0x14eb5d615254fd00ULL, 0x4c9602c040ce5aa4ULL}},
    {"INT-1", {0xb24806af5934cdceULL, 0x09dc3fb8f22f72f4ULL}},
    {"INT-2", {0xff8efd366342dc50ULL, 0x90f0c5933eda82a5ULL}},
    {"INT-3", {0x3294be796fb0370dULL, 0x679d16ef89b16e54ULL}},
    {"INT-4", {0xf1ce6cc45f746264ULL, 0xe70a9d44c0c3250aULL}},
    {"INT-5", {0xc7615a4a7630eebeULL, 0x9e2ab7d81f8181d3ULL}},
    {"MM-1", {0x83706479b79e5ab0ULL, 0x1b1ae5b1e491ef01ULL}},
    {"MM-2", {0xcedb8125d60608c7ULL, 0xd722b6acc5add4a9ULL}},
    {"MM-3", {0xa5a838ddf2fdbb04ULL, 0x631afa552ebf9649ULL}},
    {"MM-4", {0x51f466a291cbf01eULL, 0x198a9a0436243cebULL}},
    {"MM-5", {0xf921c6f4e64678d0ULL, 0x5e479dda25dd7652ULL}},
    {"SERV-1", {0x5bcff9fc7e8fd43aULL, 0x595ec06fd63fbbd1ULL}},
    {"SERV-2", {0x06a80aa0f360f394ULL, 0xe12e4633d6cc78cdULL}},
    {"SERV-3", {0xc277613ffe2a355bULL, 0xa62c1fc5aa128f6bULL}},
    {"SERV-4", {0xaf784466d917ebd0ULL, 0x4ba69d993aaa2027ULL}},
    {"SERV-5", {0x5b26e422de972b9eULL, 0xb8120de560186305ULL}},
    {"164.gzip", {0xa7b7985728f141a8ULL, 0xd203e429c332e0fdULL}},
    {"175.vpr", {0x57c53802ce1fc7b8ULL, 0x1e2457af9eef0cbcULL}},
    {"176.gcc", {0x7aa07b4a35bfd0d5ULL, 0x517b51ae35de5603ULL}},
    {"181.mcf", {0x36ccfc7ba4f932feULL, 0x5ded621e891277f8ULL}},
    {"186.crafty", {0xaa5896451786d0f4ULL, 0xdc7439057aa81a1dULL}},
    {"197.parser", {0x0360dfe69e90f974ULL, 0xb6d0cb690bfab394ULL}},
    {"201.compress", {0x9f7beb995814f6a5ULL, 0x0194b3c0c5080b56ULL}},
    {"202.jess", {0xc37bea2f3527a080ULL, 0xe90ae2f851bacc8fULL}},
    {"205.raytrace", {0x4fadb40497452e57ULL, 0x1122c89bb3f0b5d2ULL}},
    {"209.db", {0x864c57725a373568ULL, 0xf058010e403d68bfULL}},
    {"213.javac", {0x156b94fa6dbc17d6ULL, 0xeabbf11ab6873121ULL}},
    {"222.mpegaudio", {0x317bcc97f68bce5cULL, 0xb4ac7157d762f96aULL}},
    {"227.mtrt", {0x09978a857830de26ULL, 0x3e35d3c9a7bf1602ULL}},
    {"228.jack", {0xf044f4f4bdcab4d9ULL, 0x0047e8e713419d83ULL}},
    {"252.eon", {0xe8bfcdd3e1749d3fULL, 0xbb842e4157c8297aULL}},
    {"253.perlbmk", {0xe5ea85e94ecf43beULL, 0x7931c429b23a33afULL}},
    {"254.gap", {0x747e9a40cf438352ULL, 0x6270a34e374ccb59ULL}},
    {"255.vortex", {0x0414f8ca05a7101fULL, 0x84d033d833b6f93cULL}},
    {"256.bzip2", {0xa0d143e21203129fULL, 0xe6aa684b2c8fe6c9ULL}},
    {"300.twolf", {0xe458c26528f4c90aULL, 0x70297d098a2be417ULL}},
};

TEST(TraceGolden, EveryProfileReplaysItsPinnedStream)
{
    const std::vector<std::string> names = allTraceNames();
    ASSERT_EQ(names.size(), std::size(kGolden));
    for (size_t i = 0; i < names.size(); ++i) {
        const std::string& name = names[i];
        ASSERT_EQ(name, kGolden[i].name);
        for (size_t s = 0; s < 2; ++s) {
            SyntheticTrace t = makeTrace(name, recordsFor(name), kSalts[s]);
            EXPECT_EQ(streamDigest(t), kGolden[i].digest[s])
                << name << " salt " << s;
        }
    }
}

TEST(TraceGolden, ResetMidRunReplaysThePinnedStream)
{
    const std::vector<std::string> names = allTraceNames();
    ASSERT_EQ(names.size(), std::size(kGolden));
    for (size_t i = 0; i < names.size(); ++i) {
        const std::string& name = names[i];
        const uint64_t records = recordsFor(name);
        for (size_t s = 0; s < 2; ++s) {
            SyntheticTrace t = makeTrace(name, records, kSalts[s]);
            // Stop past a phase edge where there is one, so the reset
            // must also undo the redrawn sites.
            BranchRecord rec;
            for (uint64_t k = 0; k < records / 3 + 7; ++k)
                ASSERT_TRUE(t.next(rec));
            t.reset();
            EXPECT_EQ(streamDigest(t), kGolden[i].digest[s])
                << name << " salt " << s;
        }
    }
}

} // namespace
} // namespace tagecon
