/**
 * @file
 * Tests for the binary trace file format.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "trace/cbp_ascii.hpp"
#include "trace/profiles.hpp"
#include "trace/trace_io.hpp"
#include "util/failpoint.hpp"

namespace tagecon {
namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = std::filesystem::temp_directory_path() /
                ("tagecon_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + std::to_string(counter_++) + ".trace");
    }

    void TearDown() override { std::filesystem::remove(path_); }

    std::filesystem::path path_;
    static int counter_;
};

int TraceIoTest::counter_ = 0;

/** Open @p path, which the test expects to be a valid trace file. */
std::unique_ptr<TraceReader>
openOk(const std::filesystem::path& path)
{
    auto opened = TraceReader::open(path.string());
    EXPECT_TRUE(opened.ok()) << opened.error().message();
    return opened.ok() ? opened.take() : nullptr;
}

/** Write @p records to @p path as trace @p name, which must succeed. */
void
writeRecords(const std::filesystem::path& path, const std::string& name,
             std::vector<BranchRecord> records)
{
    VectorTrace src(name, std::move(records));
    const auto written = writeTraceFile(path.string(), src);
    ASSERT_TRUE(written.ok()) << written.error().message();
}

/** @p n taken records at PCs 0..n-1, one instruction each. */
std::vector<BranchRecord>
takenRun(int n)
{
    std::vector<BranchRecord> records;
    for (int i = 0; i < n; ++i)
        records.push_back({static_cast<uint64_t>(i), true, 1});
    return records;
}

/** The Err open() reports for @p path, which must fail to open. */
Err
openErr(const std::filesystem::path& path)
{
    auto opened = TraceReader::open(path.string());
    EXPECT_FALSE(opened.ok());
    return opened.ok() ? Err() : opened.error();
}

TEST_F(TraceIoTest, RoundTripPreservesRecords)
{
    SyntheticTrace src = makeTrace("MM-3", 5000);
    const auto written = writeTraceFile(path_.string(), src);
    ASSERT_TRUE(written.ok()) << written.error().message();
    EXPECT_EQ(written.value(), 5000u);

    auto opened = openOk(path_);
    ASSERT_TRUE(opened);
    TraceReader& reader = *opened;
    EXPECT_EQ(reader.name(), "MM-3");
    EXPECT_EQ(reader.totalRecords(), 5000u);

    src.reset();
    BranchRecord expected;
    BranchRecord actual;
    uint64_t n = 0;
    while (src.next(expected)) {
        ASSERT_TRUE(reader.next(actual));
        ASSERT_EQ(actual.pc, expected.pc);
        ASSERT_EQ(actual.taken, expected.taken);
        ASSERT_EQ(actual.instructionsBefore, expected.instructionsBefore);
        ++n;
    }
    EXPECT_FALSE(reader.next(actual));
    EXPECT_EQ(n, 5000u);
}

TEST_F(TraceIoTest, ReaderResetRestarts)
{
    writeRecords(path_, "t", {{0x100, true, 5}, {0x200, false, 6}});
    auto r = openOk(path_);
    ASSERT_TRUE(r);
    BranchRecord rec;
    EXPECT_TRUE(r->next(rec));
    EXPECT_TRUE(r->next(rec));
    EXPECT_FALSE(r->next(rec));
    r->reset();
    EXPECT_TRUE(r->next(rec));
    EXPECT_EQ(rec.pc, 0x100u);
    EXPECT_EQ(rec.instructionsBefore, 5u);
}

TEST_F(TraceIoTest, WriterBackPatchesCount)
{
    std::vector<BranchRecord> records;
    for (int i = 0; i < 17; ++i)
        records.push_back({static_cast<uint64_t>(i), i % 2 == 0, 1});
    writeRecords(path_, "n", std::move(records));
    auto r = openOk(path_);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->totalRecords(), 17u);
}

TEST_F(TraceIoTest, EmptyTraceIsValid)
{
    writeRecords(path_, "empty", {});
    auto r = openOk(path_);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->totalRecords(), 0u);
    BranchRecord rec;
    EXPECT_FALSE(r->next(rec));
}

TEST_F(TraceIoTest, MissingFileIsNotFound)
{
    const Err e = openErr("/nonexistent/trace.bin");
    EXPECT_EQ(e.code, ErrCode::NotFound);
    EXPECT_NE(e.detail.find("cannot open"), std::string::npos);
}

TEST_F(TraceIoTest, GarbageFileIsCorrupt)
{
    {
        std::ofstream out(path_);
        out << "this is not a trace file at all";
    }
    const Err e = openErr(path_);
    EXPECT_EQ(e.code, ErrCode::Corrupt);
    EXPECT_NE(e.detail.find("not a tagecon trace"), std::string::npos);
}

TEST_F(TraceIoTest, TruncatedFileFailsFastAtOpen)
{
    writeRecords(path_, "t", takenRun(10));
    // Chop off the last few bytes. The reader must reject the file at
    // open time, not discover it mid-simulation.
    const auto size = std::filesystem::file_size(path_);
    std::filesystem::resize_file(path_, size - 5);

    const Err e = openErr(path_);
    EXPECT_EQ(e.code, ErrCode::Truncated);
    EXPECT_NE(e.detail.find("truncated"), std::string::npos);

    const auto probed = probeTrace(path_.string());
    ASSERT_FALSE(probed.ok());
    EXPECT_EQ(probed.error().code, ErrCode::Truncated);
    EXPECT_NE(probed.error().detail.find("truncated"), std::string::npos);
}

TEST_F(TraceIoTest, OverflowingRecordCountIsRejected)
{
    writeRecords(path_, "t", {{0x100, true, 1}});
    // Patch the header's record count (right after magic + version +
    // name length + 1-byte name) to a value whose byte size wraps
    // uint64 — the open-time size check must not be fooled by the
    // overflow.
    {
        std::fstream f(path_, std::ios::in | std::ios::out |
                                  std::ios::binary);
        f.seekp(4 + 4 + 4 + 1);
        const uint64_t huge = UINT64_MAX / 2;
        f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
    }
    const auto probed = probeTrace(path_.string());
    ASSERT_FALSE(probed.ok());
    EXPECT_NE(probed.error().detail.find("truncated"), std::string::npos);
    EXPECT_EQ(openErr(path_).code, ErrCode::Truncated);
}

TEST_F(TraceIoTest, BadVersionIsRejected)
{
    writeRecords(path_, "t", {{0x100, true, 1}});
    // The version field sits right after the 4-byte magic.
    {
        std::fstream f(path_, std::ios::in | std::ios::out |
                                  std::ios::binary);
        f.seekp(4);
        const uint32_t bogus = kTraceFormatVersion + 41;
        f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
    }
    const Err e = openErr(path_);
    EXPECT_EQ(e.code, ErrCode::BadVersion);
    EXPECT_NE(e.detail.find("version"), std::string::npos);

    const auto probed = probeTrace(path_.string());
    ASSERT_FALSE(probed.ok());
    EXPECT_EQ(probed.error().code, ErrCode::BadVersion);
    EXPECT_NE(probed.error().detail.find("version"), std::string::npos);
}

TEST_F(TraceIoTest, ProbeReportsHeaderOnGoodFile)
{
    writeRecords(path_, "probe-me", {{0x100, true, 5}, {0x104, false, 2}});
    auto probed = probeTrace(path_.string());
    ASSERT_TRUE(probed.ok()) << probed.error().message();
    const TraceFileInfo info = probed.take();
    EXPECT_EQ(info.name, "probe-me");
    EXPECT_EQ(info.records, 2u);
    EXPECT_EQ(info.fileBytes,
              info.dataStart + info.records * kTraceRecordBytes);

    const auto missing = probeTrace("/nonexistent/x.tcbt");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, ErrCode::NotFound);
    EXPECT_NE(missing.error().detail.find("cannot open"),
              std::string::npos);
}

TEST_F(TraceIoTest, FullDiskIsAnIoErrorNamingThePath)
{
    // /dev/full accepts the open but fails every flushed write with
    // ENOSPC: the silent-truncation scenario the writer must turn into
    // an Err naming the file. /dev/full is not a regular file, so the
    // cleanup leaves it in place.
    if (!std::filesystem::is_character_file("/dev/full"))
        GTEST_SKIP() << "/dev/full not available";

    // Enough records to overflow any stdio buffer, so the failure
    // surfaces in write() or, at the latest, in close()'s flush.
    SyntheticTrace src = makeTrace("INT-1", 200000);
    const auto written = writeTraceFile("/dev/full", src);
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().code, ErrCode::Io);
    EXPECT_EQ(written.error().site, "trace.write");
    EXPECT_NE(written.error().detail.find("'/dev/full'"), std::string::npos)
        << written.error().detail;
    EXPECT_TRUE(std::filesystem::is_character_file("/dev/full"));
}

TEST_F(TraceIoTest, FailedWriteLeavesNoFile)
{
    // A file-size limit makes writes to a regular file fail the way a
    // full disk does (EFBIG). It is set only inside the death-test
    // child, which exits 0 when the write failed with Err(Io) and no
    // file remains.
    const std::string path = path_.string();
    const auto write_capped = [&path] {
        std::signal(SIGXFSZ, SIG_IGN);
        const rlimit cap{4096, 4096};
        if (setrlimit(RLIMIT_FSIZE, &cap) != 0)
            std::exit(2);
        SyntheticTrace src = makeTrace("INT-1", 100000);
        const auto written = writeTraceFile(path, src);
        const bool io = !written.ok() && written.error().code == ErrCode::Io;
        std::exit(io && !std::filesystem::exists(path) ? 0 : 1);
    };
    EXPECT_EXIT(write_capped(), ::testing::ExitedWithCode(0), "");
}

TEST_F(TraceIoTest, FileTheWriterCannotOpenSurvives)
{
    // A read-only file the writer cannot open was never truncated, so
    // the failed write must leave it as it was.
    if (::geteuid() == 0)
        GTEST_SKIP() << "root opens a read-only file for writing";
    {
        std::ofstream out(path_);
        out << "keep me\n";
    }
    namespace fs = std::filesystem;
    fs::permissions(path_, fs::perms::owner_read | fs::perms::group_read |
                               fs::perms::others_read);
    VectorTrace src("t", takenRun(10));
    const auto written = writeTraceFile(path_.string(), src);
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().code, ErrCode::Io);
    EXPECT_NE(written.error().detail.find("cannot create trace file"),
              std::string::npos)
        << written.error().detail;
    std::ifstream in(path_);
    std::string line;
    EXPECT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "keep me");
}

TEST_F(TraceIoTest, OpenFactoryReturnsTypedErrors)
{
    // open() classifies each failure so callers can dispatch on the
    // code.
    auto missing = TraceReader::open("/nonexistent/trace.tcbt");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, ErrCode::NotFound);
    EXPECT_EQ(missing.error().site, "trace.open");

    {
        std::ofstream out(path_);
        out << "this is not a trace file at all";
    }
    auto garbage = TraceReader::open(path_.string());
    ASSERT_FALSE(garbage.ok());
    EXPECT_EQ(garbage.error().code, ErrCode::Corrupt);

    writeRecords(path_, "t", takenRun(10));
    std::filesystem::resize_file(
        path_, std::filesystem::file_size(path_) - 5);
    auto truncated = TraceReader::open(path_.string());
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.error().code, ErrCode::Truncated);

    const auto probed = probeTrace(path_.string());
    ASSERT_FALSE(probed.ok());
    EXPECT_EQ(probed.error().code, ErrCode::Truncated);
}

TEST_F(TraceIoTest, OpenFactoryYieldsAWorkingReader)
{
    writeRecords(path_, "typed", {{0x100, true, 5}, {0x104, false, 2}});
    auto opened = TraceReader::open(path_.string());
    ASSERT_TRUE(opened.ok()) << opened.error().message();
    auto reader = opened.take();
    EXPECT_EQ(reader->totalRecords(), 2u);
    BranchRecord rec;
    ASSERT_TRUE(reader->next(rec));
    EXPECT_EQ(rec.pc, 0x100u);
    ASSERT_TRUE(reader->next(rec));
    EXPECT_FALSE(reader->next(rec));
    EXPECT_EQ(reader->lastError(), nullptr); // exhaustion, not failure
}

TEST_F(TraceIoTest, InjectedReadFaultLatchesLastError)
{
    writeRecords(path_, "t", takenRun(10));
    auto opened = TraceReader::open(path_.string());
    ASSERT_TRUE(opened.ok()) << opened.error().message();
    auto reader = opened.take();

    failpoints::ScopedFaults faults("trace.read:nth=3");
    ASSERT_TRUE(faults.ok());
    BranchRecord rec;
    EXPECT_TRUE(reader->next(rec));
    EXPECT_TRUE(reader->next(rec));
    EXPECT_FALSE(reader->next(rec));
    ASSERT_NE(reader->lastError(), nullptr);
    EXPECT_EQ(reader->lastError()->code, ErrCode::Io);
    EXPECT_EQ(reader->lastError()->site, "trace.read");
    // The error is sticky: the stream stays failed until reset().
    EXPECT_FALSE(reader->next(rec));
    ASSERT_NE(reader->lastError(), nullptr);

    // reset() clears the latch; nth=3 already fired its one shot, so
    // the replay runs to clean exhaustion.
    reader->reset();
    EXPECT_EQ(reader->lastError(), nullptr);
    int read = 0;
    while (reader->next(rec))
        ++read;
    EXPECT_EQ(read, 10);
    EXPECT_EQ(reader->lastError(), nullptr);
}

TEST_F(TraceIoTest, MalformedSourceFailsTheWriteAndLeavesNoFile)
{
    // An ASCII trace whose record 1501 of 3000 is malformed must not
    // convert into a valid 1500-record file.
    const std::filesystem::path ascii = path_.string() + ".txt";
    {
        std::ofstream out(ascii);
        for (int i = 1; i <= 3000; ++i)
            out << (i == 1501 ? "0x4000 maybe 3" : "0x4000 T 3") << "\n";
    }
    auto opened = CbpAsciiReader::open(ascii.string());
    ASSERT_TRUE(opened.ok()) << opened.error().message();
    const auto written = writeTraceFile(path_.string(), *opened.value());
    std::filesystem::remove(ascii);
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().code, ErrCode::Parse);
    EXPECT_NE(written.error().detail.find("line 1501"), std::string::npos)
        << written.error().detail;
    EXPECT_FALSE(std::filesystem::exists(path_));
}

} // namespace
} // namespace tagecon
