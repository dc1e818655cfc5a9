// Tests for file_io, SimDisk time accounting, and PackedCorpus round-trips.

#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/random.h"
#include "common/retry.h"
#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "io/sim_disk.h"
#include "parallel/simulated_executor.h"

namespace hpa::io {
namespace {

class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("hpa_io_test_");
    ASSERT_TRUE(dir.ok()) << dir.status();
    dir_ = *dir;
  }
  void TearDown() override { RemoveDirRecursive(dir_); }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// file_io
// ---------------------------------------------------------------------------

using FileIoTest = TempDirTest;

TEST_F(FileIoTest, WriteThenReadRoundTrip) {
  std::string path = dir_ + "/f.txt";
  ASSERT_TRUE(WriteWholeFile(path, "hello world").ok());
  auto got = ReadWholeFile(path);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "hello world");
}

TEST_F(FileIoTest, ReadMissingFileFails) {
  auto got = ReadWholeFile(dir_ + "/missing");
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
}

TEST_F(FileIoTest, AppendAccumulates) {
  std::string path = dir_ + "/a.txt";
  ASSERT_TRUE(AppendToFile(path, "one").ok());
  ASSERT_TRUE(AppendToFile(path, "two").ok());
  EXPECT_EQ(*ReadWholeFile(path), "onetwo");
}

TEST_F(FileIoTest, ReadRangeReturnsSlice) {
  std::string path = dir_ + "/r.txt";
  ASSERT_TRUE(WriteWholeFile(path, "0123456789").ok());
  auto got = ReadFileRange(path, 3, 4);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "3456");
}

TEST_F(FileIoTest, ReadRangeBeyondEofFails) {
  std::string path = dir_ + "/r.txt";
  ASSERT_TRUE(WriteWholeFile(path, "short").ok());
  EXPECT_EQ(ReadFileRange(path, 2, 100).status().code(),
            StatusCode::kOutOfRange);
}

// The error contract of the range read: a missing file cannot be opened
// and a directory cannot be read (both IoError), a zero-length read at
// end of file is empty, and the out-parameter form resizes its buffer.
TEST_F(FileIoTest, ReadRangeErrorsAndEdges) {
  EXPECT_EQ(ReadFileRange(dir_ + "/missing", 0, 1).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadFileRange(dir_, 0, 1).status().code(), StatusCode::kIoError);

  std::string path = dir_ + "/e.txt";
  ASSERT_TRUE(WriteWholeFile(path, "abcdef").ok());
  auto empty = ReadFileRange(path, 6, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "");

  std::string buffer = "a longer previous payload";
  ASSERT_TRUE(ReadFileRange(path, 1, 3, &buffer).ok());
  EXPECT_EQ(buffer, "bcd");
  EXPECT_EQ(ReadFileRange(path, 4, 3, &buffer).code(),
            StatusCode::kOutOfRange);
}

TEST_F(FileIoTest, FileSizeAndExists) {
  std::string path = dir_ + "/s.bin";
  EXPECT_FALSE(FileExists(path));
  ASSERT_TRUE(WriteWholeFile(path, std::string(1234, 'x')).ok());
  EXPECT_TRUE(FileExists(path));
  EXPECT_EQ(*FileSize(path), 1234u);
}

TEST_F(FileIoTest, RemoveFileIsIdempotent) {
  std::string path = dir_ + "/d.txt";
  ASSERT_TRUE(WriteWholeFile(path, "x").ok());
  EXPECT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(RemoveFile(path).ok());  // missing is not an error
}

TEST_F(FileIoTest, MakeDirsCreatesNestedPath) {
  std::string nested = dir_ + "/a/b/c";
  ASSERT_TRUE(MakeDirs(nested).ok());
  ASSERT_TRUE(WriteWholeFile(nested + "/f", "x").ok());
}

TEST_F(FileIoTest, WriteWholeFileReplacesAtomically) {
  std::string path = dir_ + "/atomic.txt";
  ASSERT_TRUE(WriteWholeFile(path, "old contents").ok());
  ASSERT_TRUE(WriteWholeFile(path, "new").ok());
  EXPECT_EQ(*ReadWholeFile(path), "new");
  // The temp file used for the write+rename protocol must not survive.
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FileIoTest, RetryOverloadSucceedsFirstTryOnHealthyFile) {
  std::string path = dir_ + "/ok.txt";
  ASSERT_TRUE(WriteWholeFile(path, "content").ok());
  RetryPolicy retry;
  int attempts = 0;
  auto got = ReadWholeFile(path, retry, &attempts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "content");
  EXPECT_EQ(attempts, 1);

  auto range = ReadFileRange(path, 2, 3, retry, &attempts);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*range, "nte");
  EXPECT_EQ(attempts, 1);
}

TEST_F(FileIoTest, RetryOverloadExhaustsBudgetOnMissingFile) {
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff_sec = 0.0;  // keep the test instant
  retry.max_backoff_sec = 0.0;
  int attempts = 0;
  auto got = ReadWholeFile(dir_ + "/missing", retry, &attempts);
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
  EXPECT_EQ(attempts, 3);
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectorAndComposability) {
  // The standard IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Streaming: feeding in pieces matches one shot, so writers can checksum
  // chunk-by-chunk as they stream shards out.
  std::string a = "hello, ";
  std::string b = "world";
  EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(a + b));
  EXPECT_NE(Crc32("hello, worle"), Crc32(a + b));
}

/// The textbook bitwise CRC-32 (one polynomial step per bit): an
/// independent reference for the table-driven implementation.
uint32_t ReferenceCrc32(std::string_view data, uint32_t crc = 0) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& ch : out) ch = static_cast<char>(rng.Next() & 0xFFu);
  return out;
}

// Every length 0..64 at every start alignment 0..7 covers the 8-byte main
// loop, the bytewise tail, and unaligned starts.
TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::string buf = RandomBytes(64 + 8, 7);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      std::string_view slice(buf.data() + align, len);
      EXPECT_EQ(Crc32(slice), ReferenceCrc32(slice))
          << "align " << align << " len " << len;
      EXPECT_EQ(Crc32(slice, 0x12345678u), ReferenceCrc32(slice, 0x12345678u))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32Test, ComposesAtEverySplitPoint) {
  const std::string buf = RandomBytes(1024, 11);
  const uint32_t whole = Crc32(buf);
  EXPECT_EQ(whole, ReferenceCrc32(buf));
  std::string_view view(buf);
  for (size_t split = 0; split <= buf.size(); ++split) {
    EXPECT_EQ(Crc32(view.substr(split), Crc32(view.substr(0, split))), whole)
        << "split " << split;
  }
}

// ---------------------------------------------------------------------------
// SimDisk
// ---------------------------------------------------------------------------

using SimDiskTest = TempDirTest;

TEST_F(SimDiskTest, DataRoundTripsThroughBackingStore) {
  SimDisk disk(DiskOptions::LocalHdd(), dir_, nullptr);
  ASSERT_TRUE(disk.WriteFile("x.txt", "payload").ok());
  EXPECT_TRUE(disk.Exists("x.txt"));
  EXPECT_EQ(*disk.ReadFile("x.txt"), "payload");
  EXPECT_EQ(*disk.FileSize("x.txt"), 7u);
  EXPECT_EQ(disk.total_bytes_written(), 7u);
  EXPECT_EQ(disk.total_bytes_read(), 7u);
}

TEST_F(SimDiskTest, ChargesLatencyPlusBandwidthTime) {
  parallel::SimulatedExecutor exec(4, parallel::MachineModel::Default());
  DiskOptions opts;
  opts.bandwidth_bytes_per_sec = 1000.0;  // 1 KB/s
  opts.latency_sec = 0.5;
  SimDisk disk(opts, dir_, &exec);
  ASSERT_TRUE(disk.WriteFile("f", std::string(1000, 'x')).ok());
  // 0.5 s latency + 1000 B / 1000 B/s = 1.5 s total.
  EXPECT_NEAR(exec.Now(), 1.5, 1e-9);
}

TEST_F(SimDiskTest, NullExecutorChargesNothing) {
  SimDisk disk(DiskOptions::LocalHdd(), dir_, nullptr);
  ASSERT_TRUE(disk.WriteFile("f", "data").ok());  // must not crash
}

TEST_F(SimDiskTest, WriterStreamsAndCharges) {
  parallel::SimulatedExecutor exec(4, parallel::MachineModel::Default());
  DiskOptions opts;
  opts.bandwidth_bytes_per_sec = 1e6;
  opts.latency_sec = 0.0;
  SimDisk disk(opts, dir_, &exec);
  auto writer = disk.OpenWriter("out.txt");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("abc").ok());
  ASSERT_TRUE((*writer)->Append("def").ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(*disk.ReadFile("out.txt"), "abcdef");
  EXPECT_EQ((*writer)->bytes_written(), 6u);
  // 6 bytes at 1 MB/s charged on the virtual clock (plus the read above).
  EXPECT_GT(exec.Now(), 0.0);
}

TEST_F(SimDiskTest, WriterAppendAfterCloseFails) {
  SimDisk disk(DiskOptions::LocalHdd(), dir_, nullptr);
  auto writer = disk.OpenWriter("w.txt");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ((*writer)->Append("x").code(), StatusCode::kFailedPrecondition);
}

TEST_F(SimDiskTest, ReaderIteratesLines) {
  SimDisk disk(DiskOptions::LocalHdd(), dir_, nullptr);
  ASSERT_TRUE(disk.WriteFile("lines.txt", "a\nbb\n\nccc").ok());
  auto reader = disk.OpenReader("lines.txt");
  ASSERT_TRUE(reader.ok());
  std::string_view line;
  ASSERT_TRUE((*reader)->NextLine(&line));
  EXPECT_EQ(line, "a");
  ASSERT_TRUE((*reader)->NextLine(&line));
  EXPECT_EQ(line, "bb");
  ASSERT_TRUE((*reader)->NextLine(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE((*reader)->NextLine(&line));
  EXPECT_EQ(line, "ccc");
  EXPECT_FALSE((*reader)->NextLine(&line));
  (*reader)->Rewind();
  ASSERT_TRUE((*reader)->NextLine(&line));
  EXPECT_EQ(line, "a");
}

TEST_F(SimDiskTest, ReadMissingFileFails) {
  SimDisk disk(DiskOptions::LocalHdd(), dir_, nullptr);
  EXPECT_FALSE(disk.ReadFile("absent").ok());
  EXPECT_FALSE(disk.OpenReader("absent").ok());
}

TEST_F(SimDiskTest, SingleChannelSerializesParallelIo) {
  parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
  DiskOptions opts;
  opts.bandwidth_bytes_per_sec = 1e5;
  opts.latency_sec = 0.0;
  opts.channels = 1;
  SimDisk disk(opts, dir_, &exec);
  ASSERT_TRUE(disk.WriteFile("shared", std::string(100000, 'x')).ok());
  double after_write = exec.Now();
  // 8 workers each reading the 1-second file on a 1-channel device: the
  // region cannot finish in under 8 seconds of device time.
  exec.ParallelFor(0, 8, 1, parallel::WorkHint{},
                   [&](int, size_t, size_t) {
                     auto got = disk.ReadFile("shared");
                     ASSERT_TRUE(got.ok());
                   });
  EXPECT_GE(exec.Now() - after_write, 8.0 - 1e-6);
}

TEST_F(SimDiskTest, MultiChannelOverlapsParallelIo) {
  parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
  DiskOptions opts;
  opts.bandwidth_bytes_per_sec = 1e5;
  opts.latency_sec = 0.0;
  opts.channels = 8;
  SimDisk disk(opts, dir_, &exec);
  ASSERT_TRUE(disk.WriteFile("shared", std::string(100000, 'x')).ok());
  double after_write = exec.Now();
  exec.ParallelFor(0, 8, 1, parallel::WorkHint{},
                   [&](int, size_t, size_t) {
                     auto got = disk.ReadFile("shared");
                     ASSERT_TRUE(got.ok());
                   });
  double elapsed = exec.Now() - after_write;
  EXPECT_LT(elapsed, 2.0);  // overlapped: ~1 s, not 8 s
  EXPECT_GE(elapsed, 1.0 - 1e-6);
}

// ---------------------------------------------------------------------------
// PackedCorpus
// ---------------------------------------------------------------------------

using PackedCorpusTest = TempDirTest;

TEST_F(PackedCorpusTest, RoundTripsDocuments) {
  SimDisk disk(DiskOptions::CorpusStore(), dir_, nullptr);
  auto writer = PackedCorpusWriter::Create(&disk, "c.pack");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Add("doc_a", "alpha body").ok());
  ASSERT_TRUE(writer->Add("doc_b", "").ok());  // empty body is legal
  ASSERT_TRUE(writer->Add("doc_c", std::string(100000, 'z')).ok());
  ASSERT_TRUE(writer->Finalize().ok());

  auto reader = PackedCorpusReader::Open(&disk, "c.pack");
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->size(), 3u);
  EXPECT_EQ(reader->name(0), "doc_a");
  EXPECT_EQ(reader->name(1), "doc_b");
  EXPECT_EQ(reader->body_length(2), 100000u);
  EXPECT_EQ(*reader->ReadBody(0), "alpha body");
  EXPECT_EQ(*reader->ReadBody(1), "");
  EXPECT_EQ(reader->ReadBody(2)->size(), 100000u);
  EXPECT_EQ(reader->total_body_bytes(), 10u + 0u + 100000u);
}

TEST_F(PackedCorpusTest, EmptyCorpusRoundTrips) {
  SimDisk disk(DiskOptions::CorpusStore(), dir_, nullptr);
  auto writer = PackedCorpusWriter::Create(&disk, "empty.pack");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finalize().ok());
  auto reader = PackedCorpusReader::Open(&disk, "empty.pack");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->size(), 0u);
}

TEST_F(PackedCorpusTest, ReadBodyOutOfRangeFails) {
  SimDisk disk(DiskOptions::CorpusStore(), dir_, nullptr);
  auto writer = PackedCorpusWriter::Create(&disk, "one.pack");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Add("d", "x").ok());
  ASSERT_TRUE(writer->Finalize().ok());
  auto reader = PackedCorpusReader::Open(&disk, "one.pack");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadBody(1).status().code(), StatusCode::kOutOfRange);
}

TEST_F(PackedCorpusTest, DoubleFinalizeFails) {
  SimDisk disk(DiskOptions::CorpusStore(), dir_, nullptr);
  auto writer = PackedCorpusWriter::Create(&disk, "f.pack");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finalize().ok());
  EXPECT_EQ(writer->Finalize().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Add("d", "x").code(), StatusCode::kFailedPrecondition);
}

TEST_F(PackedCorpusTest, RejectsCorruptMagic) {
  SimDisk disk(DiskOptions::CorpusStore(), dir_, nullptr);
  ASSERT_TRUE(disk.WriteFile("bad.pack",
                             std::string(64, '\0') + "NOTMAGIC").ok());
  EXPECT_EQ(PackedCorpusReader::Open(&disk, "bad.pack").status().code(),
            StatusCode::kCorruption);
}

TEST_F(PackedCorpusTest, RejectsTruncatedFile) {
  SimDisk disk(DiskOptions::CorpusStore(), dir_, nullptr);
  ASSERT_TRUE(disk.WriteFile("tiny.pack", "abc").ok());
  EXPECT_EQ(PackedCorpusReader::Open(&disk, "tiny.pack").status().code(),
            StatusCode::kCorruption);
}

TEST_F(PackedCorpusTest, V2FormatCarriesChecksums) {
  SimDisk disk(DiskOptions::CorpusStore(), dir_, nullptr);
  auto writer = PackedCorpusWriter::Create(&disk, "v2.pack");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Add("d", "body").ok());
  ASSERT_TRUE(writer->Finalize().ok());
  auto reader = PackedCorpusReader::Open(&disk, "v2.pack");
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->has_checksums());
  EXPECT_EQ(*reader->ReadBody(0), "body");
}

TEST_F(PackedCorpusTest, BitFlipInBodyDetectedByChecksum) {
  SimDisk disk(DiskOptions::CorpusStore(), dir_, nullptr);
  auto writer = PackedCorpusWriter::Create(&disk, "flip.pack");
  ASSERT_TRUE(writer.ok());
  const std::string body = "the quick brown fox jumps over the lazy dog";
  ASSERT_TRUE(writer->Add("victim", body).ok());
  ASSERT_TRUE(writer->Finalize().ok());

  // Damage one byte of the stored body (bodies precede the index, so the
  // body bytes are findable verbatim in the container).
  auto raw = disk.ReadFile("flip.pack");
  ASSERT_TRUE(raw.ok());
  size_t pos = raw->find("quick");
  ASSERT_NE(pos, std::string::npos);
  std::string damaged = *raw;
  damaged[pos] ^= 0x20;  // 'q' -> 'Q': content differs, length intact
  ASSERT_TRUE(disk.WriteFile("flip.pack", damaged).ok());

  auto reader = PackedCorpusReader::Open(&disk, "flip.pack");
  ASSERT_TRUE(reader.ok()) << reader.status();
  // No retry budget: the single damaged read surfaces as corruption.
  auto got = reader->ReadBody(0);
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST_F(PackedCorpusTest, ParallelReadsFromSimulatedRegionWork) {
  parallel::SimulatedExecutor exec(4, parallel::MachineModel::Default());
  SimDisk disk(DiskOptions::CorpusStore(), dir_, &exec);
  auto writer = PackedCorpusWriter::Create(&disk, "p.pack");
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        writer->Add("d" + std::to_string(i), "body " + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(writer->Finalize().ok());
  auto reader = PackedCorpusReader::Open(&disk, "p.pack");
  ASSERT_TRUE(reader.ok());

  std::vector<std::string> bodies(100);
  exec.ParallelFor(0, 100, 7, parallel::WorkHint{},
                   [&](int, size_t b, size_t e) {
                     for (size_t i = b; i < e; ++i) {
                       auto body = reader->ReadBody(i);
                       ASSERT_TRUE(body.ok());
                       bodies[i] = *body;
                     }
                   });
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(bodies[i], "body " + std::to_string(i));
  }
}

}  // namespace
}  // namespace hpa::io
