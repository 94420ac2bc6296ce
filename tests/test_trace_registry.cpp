/**
 * @file
 * Tests for the trace registry (sim/trace_registry.hpp): spec parsing
 * and validation, set aliases, the TraceSpec -> TraceSource factory
 * over synthetic profiles, binary .tcbt files and CBP-style ASCII
 * (plain and gzipped) files, replay caps, and the materialize()
 * allocation guard.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "sim/sweep.hpp"
#include "sim/trace_registry.hpp"
#include "test_support.hpp"
#include "trace/cbp_ascii.hpp"
#include "trace/profiles.hpp"
#include "trace/trace_io.hpp"
#include "util/table_printer.hpp"

#if TAGECON_HAVE_ZLIB
#include <zlib.h>
#endif

namespace tagecon {
namespace {

class TraceRegistryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("tagecon_registry_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                "_" + std::to_string(counter_++));
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    file(const std::string& name) const
    {
        return (dir_ / name).string();
    }

    /** Write @p text to @p name inside the test dir; returns the path. */
    std::string
    writeText(const std::string& name, const std::string& text) const
    {
        const std::string path = file(name);
        std::ofstream out(path);
        out << text;
        return path;
    }

    std::filesystem::path dir_;
    static int counter_;
};

int TraceRegistryTest::counter_ = 0;

void
expectSameRecords(TraceSource& a, TraceSource& b)
{
    BranchRecord ra;
    BranchRecord rb;
    uint64_t n = 0;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb)) << "second stream short at " << n;
        ASSERT_EQ(ra.pc, rb.pc) << "at record " << n;
        ASSERT_EQ(ra.taken, rb.taken) << "at record " << n;
        ASSERT_EQ(ra.instructionsBefore, rb.instructionsBefore)
            << "at record " << n;
        ++n;
    }
    EXPECT_FALSE(b.next(rb)) << "second stream long after " << n;
}

TEST_F(TraceRegistryTest, ParseSplitsFileAndSyntheticSpecs)
{
    TraceSpec spec;
    ASSERT_TRUE(parseTraceSpec("file:/tmp/x.tcbt", spec));
    EXPECT_EQ(spec.kind, TraceSpec::Kind::File);
    EXPECT_EQ(spec.key, "/tmp/x.tcbt");
    EXPECT_EQ(spec.spec(), "file:/tmp/x.tcbt");

    ASSERT_TRUE(parseTraceSpec("FILE:/tmp/y.gz", spec));
    EXPECT_EQ(spec.kind, TraceSpec::Kind::File);
    EXPECT_EQ(spec.key, "/tmp/y.gz");

    ASSERT_TRUE(parseTraceSpec("MM-3", spec));
    EXPECT_EQ(spec.kind, TraceSpec::Kind::Synthetic);
    EXPECT_EQ(spec.spec(), "MM-3");

    std::string error;
    EXPECT_FALSE(parseTraceSpec("file:", spec, &error));
    EXPECT_NE(error.find("no file path"), std::string::npos);
    EXPECT_FALSE(parseTraceSpec("", spec, &error));
}

TEST_F(TraceRegistryTest, ValidateRejectsUnknownProfilesAndBadFiles)
{
    TraceSpec spec;
    std::string error;

    ASSERT_TRUE(parseTraceSpec("NOT-A-TRACE", spec));
    EXPECT_FALSE(validateTraceSpec(spec, &error));
    EXPECT_NE(error.find("unknown trace"), std::string::npos);

    ASSERT_TRUE(parseTraceSpec("file:" + file("missing.tcbt"), spec));
    EXPECT_FALSE(validateTraceSpec(spec, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);

    // Binary junk that is neither TCBT nor parseable ASCII.
    const std::string junk =
        writeText("junk.trace", "\x01\x02 binary junk \xff\n");
    ASSERT_TRUE(parseTraceSpec("file:" + junk, spec));
    EXPECT_FALSE(validateTraceSpec(spec, &error));
    EXPECT_NE(error.find("not an ASCII trace record"),
              std::string::npos);

    ASSERT_TRUE(parseTraceSpec("MM-3", spec));
    EXPECT_TRUE(validateTraceSpec(spec, &error)) << error;
}

TEST_F(TraceRegistryTest, ResolveExpandsAliasesSetsAndFileSpecs)
{
    SyntheticTrace src = makeTrace("FP-1", 50);
    const std::string path = file("fp1.tcbt");
    ASSERT_TRUE(writeTraceFile(path, src).ok());

    std::vector<std::string> out;
    std::string error;
    ASSERT_TRUE(resolveTraceSpecs({"cbp1", "file:" + path, "MM-3"},
                                  out, error))
        << error;
    EXPECT_EQ(out.size(), traceNames(BenchmarkSet::Cbp1).size() + 2);
    EXPECT_EQ(out[out.size() - 2], "file:" + path);
    EXPECT_EQ(out.back(), "MM-3");

    EXPECT_FALSE(resolveTraceSpecs({"no-such-thing"}, out, error));
    EXPECT_FALSE(resolveTraceSpecs({}, out, error));
    EXPECT_NE(error.find("no traces"), std::string::npos);
}

TEST_F(TraceRegistryTest, SyntheticSourceMatchesMakeTrace)
{
    auto via_registry = openOk("SERV-2", 3000, 7);
    SyntheticTrace direct = makeTrace("SERV-2", 3000, 7);
    EXPECT_EQ(via_registry->name(), "SERV-2");
    expectSameRecords(direct, *via_registry);
}

TEST_F(TraceRegistryTest, TcbtSourceMatchesInMemoryVectorTrace)
{
    SyntheticTrace src = makeTrace("300.twolf", 4000);
    const std::string path = file("twolf.tcbt");
    ASSERT_TRUE(writeTraceFile(path, src).ok());

    // The acceptance property: a file-backed source replays exactly
    // the records an in-memory VectorTrace of the same stream holds.
    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.ok()) << reader.error().message();
    VectorTrace in_memory = materialize(*reader.value(), 4000);
    auto via_registry = openOk("file:" + path, 4000);
    EXPECT_EQ(via_registry->name(), "300.twolf");
    expectSameRecords(in_memory, *via_registry);
}

TEST_F(TraceRegistryTest, BranchCountCapsFileReplay)
{
    SyntheticTrace src = makeTrace("FP-3", 1000);
    const std::string path = file("fp3.tcbt");
    ASSERT_TRUE(writeTraceFile(path, src).ok());

    auto capped = openOk("file:" + path, 100);
    BranchRecord rec;
    uint64_t n = 0;
    while (capped->next(rec))
        ++n;
    EXPECT_EQ(n, 100u);

    // A file shorter than the cap replays fully.
    auto uncapped = openOk("file:" + path, 999999);
    n = 0;
    while (uncapped->next(rec))
        ++n;
    EXPECT_EQ(n, 1000u);
}

TEST_F(TraceRegistryTest, AsciiReaderParsesTheInterchangeFormat)
{
    const std::string path = writeText("mini.trace",
                                       "# a comment\n"
                                       "\n"
                                       "0x400a10 T 5\n"
                                       "0x400a14 N\n"
                                       "4197912 1 3\n"
                                       "  # indented comment\n"
                                       "0x400a1c 0 2\n");
    auto src = openOk("file:" + path, 0);
    EXPECT_EQ(src->name(), "mini");

    BranchRecord rec;
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.pc, 0x400a10u);
    EXPECT_TRUE(rec.taken);
    EXPECT_EQ(rec.instructionsBefore, 5u);
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.pc, 0x400a14u);
    EXPECT_FALSE(rec.taken);
    EXPECT_EQ(rec.instructionsBefore, 0u);
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.pc, 4197912u);
    EXPECT_TRUE(rec.taken);
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.pc, 0x400a1cu);
    EXPECT_FALSE(src->next(rec));

    // reset() replays the identical stream.
    src->reset();
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.pc, 0x400a10u);
}

TEST_F(TraceRegistryTest, AsciiMalformedLineLatchesLastError)
{
    const std::string path = writeText("bad.trace",
                                       "0x10 T\n"
                                       "0x14 maybe\n");
    auto src = openOk("file:" + path, 0);
    BranchRecord rec;
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(src->lastError(), nullptr);

    // A malformed line ends the stream with a typed Parse error naming
    // path and line number instead of killing the process, so a
    // serving engine can quarantine just this stream.
    EXPECT_FALSE(src->next(rec));
    const Err* err = src->lastError();
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrCode::Parse);
    EXPECT_NE(err->detail.find("line 2"), std::string::npos);
    EXPECT_NE(err->detail.find(path), std::string::npos);

    // The error is sticky until reset(), which replays cleanly up to
    // the same latch point.
    EXPECT_FALSE(src->next(rec));
    src->reset();
    EXPECT_EQ(src->lastError(), nullptr);
    ASSERT_TRUE(src->next(rec));
    EXPECT_FALSE(src->next(rec));
    ASSERT_NE(src->lastError(), nullptr);
}

TEST_F(TraceRegistryTest, AsciiLineParserRejectsGarbage)
{
    BranchRecord rec;
    std::string why;
    EXPECT_TRUE(parseCbpAsciiLine("0x10 T 4", rec, why));
    EXPECT_FALSE(parseCbpAsciiLine("0x10", rec, why));
    EXPECT_FALSE(parseCbpAsciiLine("zzz T", rec, why));
    EXPECT_FALSE(parseCbpAsciiLine("0x10 2", rec, why));
    EXPECT_FALSE(parseCbpAsciiLine("0x10 T 4 junk", rec, why));
    EXPECT_FALSE(parseCbpAsciiLine("0x10 T 99999999999", rec, why));
    EXPECT_FALSE(parseCbpAsciiLine("-1 T", rec, why));
    // A sign after the hex prefix would wrap to a huge PC.
    EXPECT_FALSE(parseCbpAsciiLine("0x-5 T", rec, why));
}

TEST_F(TraceRegistryTest, AsciiZeroPaddedDecimalIsNotOctal)
{
    // strtoull's base-0 would read "0123" as octal 83, silently
    // remapping branch PCs from zero-padding tools.
    BranchRecord rec;
    std::string why;
    ASSERT_TRUE(parseCbpAsciiLine("0123 T 089", rec, why)) << why;
    EXPECT_EQ(rec.pc, 123u);
    EXPECT_EQ(rec.instructionsBefore, 89u);
    ASSERT_TRUE(parseCbpAsciiLine("0x0123 N", rec, why)) << why;
    EXPECT_EQ(rec.pc, 0x123u);
}

#if TAGECON_HAVE_ZLIB
TEST_F(TraceRegistryTest, GzippedAsciiTraceReadsTransparently)
{
    const std::string path = file("gz.trace.gz");
    gzFile gz = gzopen(path.c_str(), "wb");
    ASSERT_NE(gz, nullptr);
    const std::string body = "# gz trace\n0x100 T 4\n0x104 N 2\n";
    gzwrite(gz, body.data(), static_cast<unsigned>(body.size()));
    gzclose(gz);

    EXPECT_TRUE(isGzipFile(path));
    auto src = openOk("file:" + path, 0);
    EXPECT_EQ(src->name(), "gz");
    BranchRecord rec;
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.pc, 0x100u);
    EXPECT_TRUE(rec.taken);
    EXPECT_EQ(rec.instructionsBefore, 4u);
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.pc, 0x104u);
    EXPECT_FALSE(src->next(rec));

    src->reset();
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.pc, 0x100u);
}
#endif

TEST_F(TraceRegistryTest, MaterializeSurvivesHugeRecordCaps)
{
    // The cap is a limit, not a size hint: SIZE_MAX must not
    // pre-reserve (bad_alloc) before a single record is read.
    SyntheticTrace src = makeTrace("FP-1", 500);
    VectorTrace all =
        materialize(src, std::numeric_limits<size_t>::max());
    EXPECT_EQ(all.size(), 500u);

    src.reset();
    VectorTrace some = materialize(src, 100);
    EXPECT_EQ(some.size(), 100u);
}

TEST_F(TraceRegistryTest, LimitedTraceCapsAndResets)
{
    auto inner = std::make_unique<SyntheticTrace>(makeTrace("FP-1", 50));
    LimitedTrace limited(std::move(inner), 20);
    BranchRecord rec;
    uint64_t n = 0;
    while (limited.next(rec))
        ++n;
    EXPECT_EQ(n, 20u);
    limited.reset();
    n = 0;
    while (limited.next(rec))
        ++n;
    EXPECT_EQ(n, 20u);
}

TEST_F(TraceRegistryTest, CommaInFileTraceNameSurvivesToQuotedCsv)
{
    // Trace names are user-controlled now (filenames, embedded header
    // names) — a comma must not shift CSV columns.
    const std::string path = file("odd.tcbt");
    VectorTrace odd("mm,3 (variant)", {{0x100, true, 4}, {0x104, false, 2}});
    ASSERT_TRUE(writeTraceFile(path, odd).ok());
    auto src = openOk("file:" + path, 0);
    EXPECT_EQ(src->name(), "mm,3 (variant)");

    TextTable t;
    t.addColumn("trace", TextTable::Align::Left);
    t.addColumn("records");
    t.addRow({src->name(), "2"});
    std::ostringstream os;
    t.renderCsv(os);
    EXPECT_EQ(os.str(), "trace,records\n\"mm,3 (variant)\",2\n");
}

} // namespace
} // namespace tagecon
