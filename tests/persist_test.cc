// Durability subsystem suite (PR 8): CRC32C against its RFC 3720 check
// vector, MmapArena create/checkpoint/reopen with the wire_test-standard
// decode hardening (every truncation, per-byte header corruption — clean
// DataLoss, never UB), the Journal's torn-tail contract (any mangling of
// the LAST segment recovers a clean prefix; the same damage in a non-last
// segment is DataLoss), forged-count/forged-CRC frames, and the
// engine-level recovery paths: clean-close roundtrip, journal replay with
// checkpointing disabled, private namespaces leaving no files, geometry
// mismatch on reopen, Corrupt persisting. The SIGKILL-a-real-process arm
// lives in crash_recovery_test.cc.

#include <dirent.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/engine.h"
#include "storage/persist/journal.h"
#include "storage/persist/mmap_arena.h"
#include "storage/wire.h"
#include "util/crc32c.h"

namespace dpstore {
namespace persist {
namespace {

// --- Filesystem scaffolding --------------------------------------------------

std::string MakeTempDir() {
  char tmpl[] = "/tmp/dpstore_persist_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveTree(const std::string& dir) {
  if (dir.empty()) return;
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      std::remove((dir + "/" + name).c_str());
    }
    closedir(d);
  }
  rmdir(dir.c_str());
}

/// RAII temp data dir, one per test.
struct TempDir {
  TempDir() : path(MakeTempDir()) {}
  ~TempDir() { RemoveTree(path); }
  std::string path;
};

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    closedir(d);
  }
  return names;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// --- CRC32C ------------------------------------------------------------------

TEST(Crc32cTest, Rfc3720CheckVector) {
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32c::Crc32c(digits, sizeof(digits)), 0xE3069283u);
}

TEST(Crc32cTest, ChainingMatchesWholeBuffer) {
  std::vector<uint8_t> data(1027);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint32_t whole = crc32c::Crc32c(data.data(), data.size());
  for (const size_t split : {size_t{0}, size_t{1}, size_t{8}, size_t{63},
                             size_t{512}, data.size()}) {
    uint32_t crc = crc32c::Extend(0, data.data(), split);
    crc = crc32c::Extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, VariantNameIsKnown) {
  const std::string variant = crc32c::VariantName();
  EXPECT_TRUE(variant == "sse42" || variant == "table") << variant;
}

// --- MmapArena ---------------------------------------------------------------

TEST(MmapArenaTest, CreateCheckpointReopenRoundtrip) {
  TempDir dir;
  const std::string path = dir.path + "/" + MmapArena::FileName(7);
  {
    auto arena = MmapArena::Create(dir.path, 7, 16, 32, 5);
    ASSERT_TRUE(arena.ok()) << arena.status();
    EXPECT_EQ((*arena)->path(), path);
    EXPECT_EQ((*arena)->durable_lsn(), 5u);
    for (size_t i = 0; i < (*arena)->bytes(); ++i) {
      (*arena)->data()[i] = static_cast<uint8_t>(i * 17 + 3);
    }
    ASSERT_TRUE((*arena)->Checkpoint(9).ok());
  }
  auto arena = MmapArena::Open(path);
  ASSERT_TRUE(arena.ok()) << arena.status();
  EXPECT_EQ((*arena)->namespace_id(), 7u);
  EXPECT_EQ((*arena)->n(), 16u);
  EXPECT_EQ((*arena)->block_size(), 32u);
  EXPECT_EQ((*arena)->durable_lsn(), 9u);
  for (size_t i = 0; i < (*arena)->bytes(); ++i) {
    ASSERT_EQ((*arena)->data()[i], static_cast<uint8_t>(i * 17 + 3)) << i;
  }
}

TEST(MmapArenaTest, UncheckpointedWritesNeverReachTheFile) {
  // The MAP_PRIVATE keystone: dirty pages are copy-on-write, so without a
  // Checkpoint the file payload stays exactly the last durable image.
  TempDir dir;
  const std::string path = dir.path + "/" + MmapArena::FileName(3);
  {
    auto arena = MmapArena::Create(dir.path, 3, 8, 64, 0);
    ASSERT_TRUE(arena.ok());
    std::memset((*arena)->data(), 0xAB, (*arena)->bytes());
    // Destroyed without Checkpoint — simulating a crash.
  }
  auto arena = MmapArena::Open(path);
  ASSERT_TRUE(arena.ok()) << arena.status();
  EXPECT_EQ((*arena)->durable_lsn(), 0u);
  for (size_t i = 0; i < (*arena)->bytes(); ++i) {
    ASSERT_EQ((*arena)->data()[i], 0u) << "leaked write at byte " << i;
  }
}

TEST(MmapArenaTest, EveryTruncationFailsCleanly) {
  TempDir dir;
  const std::string path = dir.path + "/" + MmapArena::FileName(2);
  {
    auto arena = MmapArena::Create(dir.path, 2, 4, 16, 1);
    ASSERT_TRUE(arena.ok());
    std::memset((*arena)->data(), 0x5C, (*arena)->bytes());
    ASSERT_TRUE((*arena)->Checkpoint(2).ok());
  }
  const std::vector<uint8_t> whole = ReadFile(path);
  ASSERT_EQ(whole.size(), kArenaHeaderBytes + 4 * 16);
  const std::string mangled = dir.path + "/" + MmapArena::FileName(99);
  for (size_t len = 0; len < whole.size(); ++len) {
    WriteFile(mangled,
              std::vector<uint8_t>(whole.begin(), whole.begin() + len));
    auto arena = MmapArena::Open(mangled);
    ASSERT_FALSE(arena.ok()) << "truncation to " << len << " bytes opened";
    EXPECT_EQ(arena.status().code(), StatusCode::kDataLoss) << len;
  }
  std::remove(mangled.c_str());
}

TEST(MmapArenaTest, EveryHeaderByteCorruptionIsDetected) {
  // Bytes [0, 52) are the CRC-covered header fields plus the CRC itself;
  // any single flipped byte there must be a detected DataLoss.
  TempDir dir;
  const std::string path = dir.path + "/" + MmapArena::FileName(4);
  {
    auto arena = MmapArena::Create(dir.path, 4, 4, 16, 7);
    ASSERT_TRUE(arena.ok());
  }
  const std::vector<uint8_t> whole = ReadFile(path);
  const std::string mangled = dir.path + "/" + MmapArena::FileName(98);
  for (size_t at = 0; at < 52; ++at) {
    std::vector<uint8_t> bad = whole;
    bad[at] ^= 0xFF;
    WriteFile(mangled, bad);
    auto arena = MmapArena::Open(mangled);
    ASSERT_FALSE(arena.ok()) << "flipped header byte " << at << " opened";
    EXPECT_EQ(arena.status().code(), StatusCode::kDataLoss) << at;
  }
  std::remove(mangled.c_str());
}

// --- Journal -----------------------------------------------------------------

/// One replayed record, deep-copied out of the replay buffer.
struct ReplayedRecord {
  uint64_t lsn;
  uint64_t namespace_id;
  JournalOp op;
  uint32_t block_size;
  std::vector<uint64_t> indices;
  std::vector<uint8_t> payload;
};

std::function<Status(const JournalRecordView&)> Collect(
    std::vector<ReplayedRecord>* out) {
  return [out](const JournalRecordView& r) {
    ReplayedRecord copy;
    copy.lsn = r.lsn;
    copy.namespace_id = r.namespace_id;
    copy.op = r.op;
    copy.block_size = r.block_size;
    const uint64_t index_count =
        r.op == JournalOp::kUpload ? r.count
        : r.op == JournalOp::kCorrupt ? 1
                                      : 0;
    for (uint64_t i = 0; i < index_count; ++i) {
      copy.indices.push_back(r.index(i));
    }
    if (r.payload != nullptr) {
      copy.payload.assign(r.payload, r.payload + r.count * r.block_size);
    }
    out->push_back(std::move(copy));
    return OkStatus();
  };
}

Status NoReplayExpected(const JournalRecordView& r) {
  ADD_FAILURE() << "unexpected replayed record, lsn " << r.lsn;
  return OkStatus();
}

/// Appends a deterministic 3-record workload (upload, set_array, corrupt)
/// and returns the client-side model of those records.
std::vector<ReplayedRecord> AppendWorkload(Journal* journal) {
  std::vector<ReplayedRecord> model;
  {
    const uint64_t indices[] = {3, 1, 4};
    std::vector<uint8_t> payload(3 * 8);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i + 1);
    }
    auto lsn = journal->Append(11, JournalOp::kUpload, 8, 3, indices,
                               payload.data(), payload.size());
    EXPECT_TRUE(lsn.ok()) << lsn.status();
    model.push_back({*lsn, 11, JournalOp::kUpload, 8,
                     std::vector<uint64_t>(indices, indices + 3), payload});
  }
  {
    std::vector<uint8_t> image(4 * 8, 0xC3);
    auto lsn = journal->Append(11, JournalOp::kSetArray, 8, 4, nullptr,
                               image.data(), image.size());
    EXPECT_TRUE(lsn.ok());
    model.push_back({*lsn, 11, JournalOp::kSetArray, 8, {}, image});
  }
  {
    const uint64_t index = 2;
    auto lsn = journal->Append(11, JournalOp::kCorrupt, 8, 1, &index,
                               nullptr, 0);
    EXPECT_TRUE(lsn.ok());
    model.push_back({*lsn, 11, JournalOp::kCorrupt, 8, {2}, {}});
  }
  EXPECT_TRUE(journal->Sync(journal->last_lsn()).ok());
  return model;
}

void ExpectRecordsEqual(const std::vector<ReplayedRecord>& got,
                        const std::vector<ReplayedRecord>& want,
                        size_t count) {
  ASSERT_LE(count, want.size());
  ASSERT_EQ(got.size(), count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(got[i].lsn, want[i].lsn) << i;
    EXPECT_EQ(got[i].namespace_id, want[i].namespace_id) << i;
    EXPECT_EQ(got[i].op, want[i].op) << i;
    EXPECT_EQ(got[i].block_size, want[i].block_size) << i;
    EXPECT_EQ(got[i].indices, want[i].indices) << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << i;
  }
}

TEST(JournalTest, AppendSyncReplayRoundtrip) {
  TempDir dir;
  PersistOptions options;
  options.data_dir = dir.path;
  std::vector<ReplayedRecord> model;
  {
    auto journal = Journal::Open(dir.path, options, 1, NoReplayExpected);
    ASSERT_TRUE(journal.ok()) << journal.status();
    model = AppendWorkload(journal->get());
    ASSERT_EQ(model.size(), 3u);
    EXPECT_EQ(model[0].lsn, 1u);  // fresh journal starts at the floor
    EXPECT_EQ((*journal)->last_lsn(), 3u);
  }
  std::vector<ReplayedRecord> replayed;
  auto journal = Journal::Open(dir.path, options, 1, Collect(&replayed));
  ASSERT_TRUE(journal.ok()) << journal.status();
  ExpectRecordsEqual(replayed, model, model.size());
  // The reopened journal continues the LSN sequence.
  const uint64_t index = 0;
  auto lsn = (*journal)->Append(11, JournalOp::kCorrupt, 8, 1, &index,
                                nullptr, 0);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 4u);
}

TEST(JournalTest, RecordPastTheCapIsRefusedNotWritten) {
  // Records past kMaxJournalRecordBytes must come back as InvalidArgument
  // with nothing written and no LSN used, never abort the process. The
  // oversized payloads point into a MAP_NORESERVE mapping that is never
  // touched: the cap is checked before any payload byte is read.
  TempDir dir;
  PersistOptions options;
  options.data_dir = dir.path;
  auto journal = Journal::Open(dir.path, options, 1, NoReplayExpected);
  ASSERT_TRUE(journal.ok()) << journal.status();
  const size_t span = size_t{kMaxJournalRecordBytes} + 4096;
  void* mapped = mmap(nullptr, span, PROT_READ,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(mapped, MAP_FAILED);
  const auto* huge = static_cast<const uint8_t*>(mapped);
  std::vector<uint64_t> indices(256, 0);

  // A set_array image one byte past the cap.
  const size_t image = kMaxJournalRecordBytes - kJournalRecordFixedBytes + 1;
  auto lsn = (*journal)->Append(11, JournalOp::kSetArray, 1, image, nullptr,
                                huge, image);
  EXPECT_EQ(lsn.status().code(), StatusCode::kInvalidArgument);
  // A record body and a frame body share one 32-byte fixed prefix, so a
  // single upload frame at the wire cap makes a record exactly at the
  // record cap; one block byte more is refused.
  const uint32_t at_cap = static_cast<uint32_t>(
      wire::kMaxFrameBytes - wire::kHeaderBytes - sizeof(uint64_t));
  EXPECT_EQ(kJournalRecordFixedBytes + sizeof(uint64_t) + at_cap,
            kMaxJournalRecordBytes);
  lsn = (*journal)->Append(11, JournalOp::kUpload, at_cap + 1, 1,
                           indices.data(), huge, at_cap + 1);
  EXPECT_EQ(lsn.status().code(), StatusCode::kInvalidArgument);
  // 256 fused uploads of 4 MiB blocks: one record of 1 GiB + indices.
  const uint32_t block = 4u << 20;
  EXPECT_GT(kJournalRecordFixedBytes + 256 * (sizeof(uint64_t) + block),
            kMaxJournalRecordBytes);
  lsn = (*journal)->Append(11, JournalOp::kUpload, block, 256, indices.data(),
                           huge, size_t{256} * block);
  EXPECT_EQ(lsn.status().code(), StatusCode::kInvalidArgument);
  // A forged count cannot overflow the size arithmetic into a pass.
  lsn = (*journal)->Append(11, JournalOp::kUpload, 8, uint64_t{1} << 61,
                           indices.data(), huge, 0);
  EXPECT_EQ(lsn.status().code(), StatusCode::kInvalidArgument);
  munmap(mapped, span);

  EXPECT_EQ((*journal)->last_lsn(), 0u);
  EXPECT_EQ((*journal)->SnapshotCounters().journal_appends, 0u);
  std::vector<ReplayedRecord> model = AppendWorkload(journal->get());
  EXPECT_EQ(model[0].lsn, 1u);  // the refusals consumed no LSN
  journal->reset();
  std::vector<ReplayedRecord> replayed;
  auto reopened = Journal::Open(dir.path, options, 1, Collect(&replayed));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectRecordsEqual(replayed, model, model.size());
}

TEST(JournalTest, MinNextLsnFloorsAFreshJournal) {
  TempDir dir;
  PersistOptions options;
  options.data_dir = dir.path;
  auto journal = Journal::Open(dir.path, options, 42, NoReplayExpected);
  ASSERT_TRUE(journal.ok()) << journal.status();
  const uint64_t index = 0;
  auto lsn = (*journal)->Append(1, JournalOp::kCorrupt, 8, 1, &index,
                                nullptr, 0);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 42u);
}

TEST(JournalTest, TruncateForgetsDurablyAndContinuesLsns) {
  TempDir dir;
  PersistOptions options;
  options.data_dir = dir.path;
  {
    auto journal = Journal::Open(dir.path, options, 1, NoReplayExpected);
    ASSERT_TRUE(journal.ok());
    AppendWorkload(journal->get());
    ASSERT_TRUE((*journal)->Truncate().ok());
  }
  std::vector<ReplayedRecord> replayed;
  auto journal = Journal::Open(dir.path, options, 1, Collect(&replayed));
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_TRUE(replayed.empty()) << "truncated journal replayed records";
  const uint64_t index = 0;
  auto lsn = (*journal)->Append(11, JournalOp::kCorrupt, 8, 1, &index,
                                nullptr, 0);
  ASSERT_TRUE(lsn.ok());
  EXPECT_GT(*lsn, 3u) << "LSNs must continue past truncated records";
}

/// Journal dirs hold exactly one segment in these tests; returns its path.
std::string OnlySegment(const std::string& dir) {
  std::string found;
  for (const std::string& name : ListDir(dir)) {
    if (name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".wal") == 0) {
      EXPECT_TRUE(found.empty()) << "more than one segment";
      found = dir + "/" + name;
    }
  }
  EXPECT_FALSE(found.empty());
  return found;
}

TEST(JournalTest, EveryTruncationOfLastSegmentRecoversACleanPrefix) {
  TempDir dir;
  PersistOptions options;
  options.data_dir = dir.path;
  std::vector<ReplayedRecord> model;
  {
    auto journal = Journal::Open(dir.path, options, 1, NoReplayExpected);
    ASSERT_TRUE(journal.ok());
    model = AppendWorkload(journal->get());
  }
  const std::string segment = OnlySegment(dir.path);
  const std::vector<uint8_t> whole = ReadFile(segment);
  // Frame boundaries: 32-byte segment header, then each record's full
  // frame. A truncation at or past a boundary keeps every frame before it.
  std::vector<size_t> boundaries = {kJournalSegmentHeaderBytes};
  {
    size_t at = kJournalSegmentHeaderBytes;
    while (at + 8 <= whole.size()) {
      uint32_t len;
      std::memcpy(&len, whole.data() + at, 4);
      at += 8 + len;
      boundaries.push_back(at);
    }
    ASSERT_EQ(boundaries.size(), model.size() + 1);
    ASSERT_EQ(boundaries.back(), whole.size());
  }
  for (size_t len = 0; len <= whole.size(); ++len) {
    TempDir crash;
    WriteFile(crash.path + "/journal_00000001.wal",
              std::vector<uint8_t>(whole.begin(), whole.begin() + len));
    std::vector<ReplayedRecord> replayed;
    auto journal = Journal::Open(crash.path, options, 1, Collect(&replayed));
    ASSERT_TRUE(journal.ok())
        << "truncation to " << len << ": " << journal.status();
    size_t want = 0;
    while (want < model.size() && boundaries[want + 1] <= len) ++want;
    ExpectRecordsEqual(replayed, model, want);
    // The tail was truncated away; appending must still work and LSNs
    // must never collide with a durable record.
    const uint64_t index = 0;
    auto lsn = (*journal)->Append(11, JournalOp::kCorrupt, 8, 1, &index,
                                  nullptr, 0);
    ASSERT_TRUE(lsn.ok()) << len;
    EXPECT_EQ(*lsn, want + 1) << len;
  }
}

TEST(JournalTest, EveryByteCorruptionOfLastSegmentRecoversAPrefix) {
  // Flip every byte of the (single, therefore last) segment in turn:
  // recovery must always succeed, and must only ever replay a prefix of
  // the records actually written — bit-exact, never a mangled record.
  TempDir dir;
  PersistOptions options;
  options.data_dir = dir.path;
  std::vector<ReplayedRecord> model;
  {
    auto journal = Journal::Open(dir.path, options, 1, NoReplayExpected);
    ASSERT_TRUE(journal.ok());
    model = AppendWorkload(journal->get());
  }
  const std::vector<uint8_t> whole = ReadFile(OnlySegment(dir.path));
  for (size_t at = 0; at < whole.size(); ++at) {
    TempDir crash;
    std::vector<uint8_t> bad = whole;
    bad[at] ^= 0xFF;
    WriteFile(crash.path + "/journal_00000001.wal", bad);
    std::vector<ReplayedRecord> replayed;
    auto journal = Journal::Open(crash.path, options, 1, Collect(&replayed));
    ASSERT_TRUE(journal.ok())
        << "flipped byte " << at << ": " << journal.status();
    ExpectRecordsEqual(replayed, model, replayed.size());
  }
}

TEST(JournalTest, ForgedCountAndForgedCrcStopCleanly) {
  TempDir dir;
  PersistOptions options;
  options.data_dir = dir.path;
  std::vector<ReplayedRecord> model;
  {
    auto journal = Journal::Open(dir.path, options, 1, NoReplayExpected);
    ASSERT_TRUE(journal.ok());
    model = AppendWorkload(journal->get());
  }
  const std::vector<uint8_t> whole = ReadFile(OnlySegment(dir.path));
  // Forge the FIRST record's count field to a huge value and make the
  // body CRC match, so only the overflow-safe tail arithmetic can reject
  // it. In the last segment that must be a clean stop at zero records.
  {
    std::vector<uint8_t> bad = whole;
    const size_t frame = kJournalSegmentHeaderBytes;
    uint32_t len;
    std::memcpy(&len, bad.data() + frame, 4);
    const uint64_t forged_count = ~uint64_t{0} / 8;
    std::memcpy(bad.data() + frame + 8 + 24, &forged_count, 8);
    const uint32_t crc = crc32c::Crc32c(bad.data() + frame + 8, len);
    std::memcpy(bad.data() + frame + 4, &crc, 4);
    TempDir crash;
    WriteFile(crash.path + "/journal_00000001.wal", bad);
    std::vector<ReplayedRecord> replayed;
    auto journal = Journal::Open(crash.path, options, 1, Collect(&replayed));
    ASSERT_TRUE(journal.ok()) << journal.status();
    EXPECT_TRUE(replayed.empty());
  }
  // Forge only the CRC: same clean stop.
  {
    std::vector<uint8_t> bad = whole;
    bad[kJournalSegmentHeaderBytes + 4] ^= 0x01;
    TempDir crash;
    WriteFile(crash.path + "/journal_00000001.wal", bad);
    std::vector<ReplayedRecord> replayed;
    auto journal = Journal::Open(crash.path, options, 1, Collect(&replayed));
    ASSERT_TRUE(journal.ok()) << journal.status();
    EXPECT_TRUE(replayed.empty());
  }
}

TEST(JournalTest, CorruptionInANonLastSegmentIsDataLoss) {
  // Tiny segments force a rotation per record; damage in any segment that
  // has a successor means fdatasync-durable bytes vanished — DataLoss,
  // not a silent prefix.
  TempDir dir;
  PersistOptions options;
  options.data_dir = dir.path;
  options.journal_segment_bytes = 64;  // rotate before every append
  {
    auto journal = Journal::Open(dir.path, options, 1, NoReplayExpected);
    ASSERT_TRUE(journal.ok());
    AppendWorkload(journal->get());
  }
  std::vector<std::string> segments;
  for (const std::string& name : ListDir(dir.path)) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".wal") == 0) {
      segments.push_back(name);
    }
  }
  ASSERT_GE(segments.size(), 2u) << "rotation did not happen";
  std::sort(segments.begin(), segments.end());
  const std::string first = dir.path + "/" + segments.front();
  std::vector<uint8_t> bytes = ReadFile(first);
  ASSERT_GT(bytes.size(), kJournalSegmentHeaderBytes);
  bytes[kJournalSegmentHeaderBytes + 9] ^= 0xFF;  // mid-body of record 1
  WriteFile(first, bytes);
  std::vector<ReplayedRecord> replayed;
  auto journal = Journal::Open(dir.path, options, 1, Collect(&replayed));
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kDataLoss);
}

TEST(JournalTest, RotationSpreadsRecordsAcrossSegmentsAndReplaysAll) {
  TempDir dir;
  PersistOptions options;
  options.data_dir = dir.path;
  options.journal_segment_bytes = 64;
  std::vector<ReplayedRecord> model;
  {
    auto journal = Journal::Open(dir.path, options, 1, NoReplayExpected);
    ASSERT_TRUE(journal.ok());
    model = AppendWorkload(journal->get());
    const PersistCounters counters = (*journal)->SnapshotCounters();
    EXPECT_GE(counters.segments_rotated, 2u);
  }
  std::vector<ReplayedRecord> replayed;
  auto journal = Journal::Open(dir.path, options, 1, Collect(&replayed));
  ASSERT_TRUE(journal.ok()) << journal.status();
  ExpectRecordsEqual(replayed, model, model.size());
}

// --- Engine-level recovery ---------------------------------------------------

StorageEngineOptions PersistentEngineOptions(const std::string& data_dir,
                                             bool checkpoint_on_close) {
  StorageEngineOptions options;
  options.persist.data_dir = data_dir;
  options.persist.checkpoint_on_close = checkpoint_on_close;
  return options;
}

constexpr uint64_t kNs = 21;
constexpr uint64_t kEngN = 32;
constexpr size_t kEngBs = 16;

/// Writes a recognizable database plus a few point uploads through the
/// full engine path; returns the client-side model of the arena.
std::vector<Block> RunEngineWorkload(StorageEngine* engine,
                                     NamespaceHandle* ns) {
  std::vector<Block> model(kEngN);
  for (uint64_t i = 0; i < kEngN; ++i) model[i] = MarkerBlock(i, kEngBs);
  EXPECT_TRUE(engine->SetArray(*ns, BlockBuffer::Pack(model)).ok());
  const std::vector<BlockId> indices = {1, 5, 5, 30};
  std::vector<Block> blocks;
  for (size_t i = 0; i < indices.size(); ++i) {
    blocks.push_back(MarkerBlock(100 + i, kEngBs));
    model[indices[i]] = blocks.back();
  }
  auto reply = engine->ExecuteBatch(
      0, *ns, StorageRequest::UploadOf(indices, blocks));
  EXPECT_TRUE(reply.ok()) << reply.status();
  return model;
}

void ExpectArenaEquals(StorageEngine* engine, const NamespaceHandle& ns,
                       const std::vector<Block>& model) {
  ASSERT_EQ(ns.n(), model.size());
  for (uint64_t i = 0; i < model.size(); ++i) {
    auto block = engine->Peek(ns, i);
    ASSERT_TRUE(block.ok()) << block.status();
    EXPECT_EQ(*block, model[i]) << "block " << i;
  }
}

TEST(EnginePersistTest, SharedNamespaceSurvivesCleanClose) {
  TempDir dir;
  std::vector<Block> model;
  {
    auto engine = StorageEngine::Open(PersistentEngineOptions(dir.path, true));
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto ns = (*engine)->Attach(kNs, kEngN, kEngBs,
                                AttachMode::kAttachOrCreate);
    ASSERT_TRUE(ns.ok()) << ns.status();
    model = RunEngineWorkload(engine->get(), &*ns);
  }  // handle then engine destroyed; dtor checkpoints
  auto engine = StorageEngine::Open(PersistentEngineOptions(dir.path, true));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ((*engine)->Counters().persist.recovered_namespaces, 1u);
  auto ns = (*engine)->Attach(kNs, kEngN, kEngBs, AttachMode::kAttachOrCreate);
  ASSERT_TRUE(ns.ok()) << ns.status();
  ExpectArenaEquals(engine->get(), *ns, model);
}

TEST(EnginePersistTest, JournalReplayRebuildsUncheckpointedWrites) {
  // checkpoint_on_close=false leaves the arena file at its creation image
  // (all zeros) with every mutation only in the journal — the pure replay
  // path, the in-process analogue of a SIGKILL.
  TempDir dir;
  std::vector<Block> model;
  {
    auto engine =
        StorageEngine::Open(PersistentEngineOptions(dir.path, false));
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto ns = (*engine)->Attach(kNs, kEngN, kEngBs,
                                AttachMode::kAttachOrCreate);
    ASSERT_TRUE(ns.ok());
    model = RunEngineWorkload(engine->get(), &*ns);
  }
  auto engine = StorageEngine::Open(PersistentEngineOptions(dir.path, true));
  ASSERT_TRUE(engine.ok()) << engine.status();
  const StorageEngineCounters counters = (*engine)->Counters();
  EXPECT_EQ(counters.persist.recovered_namespaces, 1u);
  EXPECT_GE(counters.persist.recovered_records, 2u);
  auto ns = (*engine)->Attach(kNs, kEngN, kEngBs, AttachMode::kAttachOrCreate);
  ASSERT_TRUE(ns.ok());
  ExpectArenaEquals(engine->get(), *ns, model);
}

TEST(EnginePersistTest, CorruptIsJournaledAndSurvivesReplay) {
  TempDir dir;
  Block before, after;
  {
    auto engine =
        StorageEngine::Open(PersistentEngineOptions(dir.path, false));
    ASSERT_TRUE(engine.ok());
    auto ns = (*engine)->Attach(kNs, kEngN, kEngBs,
                                AttachMode::kAttachOrCreate);
    ASSERT_TRUE(ns.ok());
    RunEngineWorkload(engine->get(), &*ns);
    auto peeked = (*engine)->Peek(*ns, 5);
    ASSERT_TRUE(peeked.ok());
    before = *peeked;
    ASSERT_TRUE((*engine)->Corrupt(*ns, 5).ok());
    peeked = (*engine)->Peek(*ns, 5);
    ASSERT_TRUE(peeked.ok());
    after = *peeked;
    ASSERT_NE(before, after);
  }
  auto engine = StorageEngine::Open(PersistentEngineOptions(dir.path, true));
  ASSERT_TRUE(engine.ok());
  auto ns = (*engine)->Attach(kNs, kEngN, kEngBs, AttachMode::kAttachOrCreate);
  ASSERT_TRUE(ns.ok());
  auto peeked = (*engine)->Peek(*ns, 5);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(*peeked, after) << "the journaled Corrupt did not replay";
}

TEST(EnginePersistTest, PrivateNamespacesLeaveNoArenaFiles) {
  TempDir dir;
  {
    auto engine = StorageEngine::Open(PersistentEngineOptions(dir.path, true));
    ASSERT_TRUE(engine.ok());
    auto ns = (*engine)->Attach(0, kEngN, kEngBs, AttachMode::kPrivate);
    ASSERT_TRUE(ns.ok());
    EXPECT_GE(ns->id(), kPrivateNamespaceBase);
    RunEngineWorkload(engine->get(), &*ns);
  }
  for (const std::string& name : ListDir(dir.path)) {
    EXPECT_TRUE(name.size() <= 6 ||
                name.compare(name.size() - 6, 6, ".arena") != 0)
        << "private namespace left arena file " << name;
  }
  auto engine = StorageEngine::Open(PersistentEngineOptions(dir.path, true));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ((*engine)->Counters().persist.recovered_namespaces, 0u);
}

TEST(EnginePersistTest, GeometryMismatchOnReattachIsRejected) {
  TempDir dir;
  {
    auto engine = StorageEngine::Open(PersistentEngineOptions(dir.path, true));
    ASSERT_TRUE(engine.ok());
    auto ns = (*engine)->Attach(kNs, kEngN, kEngBs,
                                AttachMode::kAttachOrCreate);
    ASSERT_TRUE(ns.ok());
  }
  auto engine = StorageEngine::Open(PersistentEngineOptions(dir.path, true));
  ASSERT_TRUE(engine.ok());
  auto wrong_n = (*engine)->Attach(kNs, kEngN * 2, kEngBs,
                                   AttachMode::kAttachOrCreate);
  ASSERT_FALSE(wrong_n.ok());
  EXPECT_EQ(wrong_n.status().code(), StatusCode::kFailedPrecondition);
  auto wrong_bs = (*engine)->Attach(kNs, kEngN, kEngBs * 2,
                                    AttachMode::kAttachOrCreate);
  ASSERT_FALSE(wrong_bs.ok());
  EXPECT_EQ(wrong_bs.status().code(), StatusCode::kFailedPrecondition);
  auto right = (*engine)->Attach(kNs, kEngN, kEngBs,
                                 AttachMode::kAttachOrCreate);
  EXPECT_TRUE(right.ok()) << right.status();
}

TEST(EnginePersistTest, CorruptDataDirRefusesToOpen) {
  TempDir dir;
  {
    auto engine =
        StorageEngine::Open(PersistentEngineOptions(dir.path, false));
    ASSERT_TRUE(engine.ok());
    auto ns = (*engine)->Attach(kNs, kEngN, kEngBs,
                                AttachMode::kAttachOrCreate);
    ASSERT_TRUE(ns.ok());
    RunEngineWorkload(engine->get(), &*ns);
  }
  const std::string arena_path = dir.path + "/" + MmapArena::FileName(kNs);
  std::vector<uint8_t> bytes = ReadFile(arena_path);
  bytes[8] ^= 0xFF;  // version field, CRC-covered
  WriteFile(arena_path, bytes);
  auto engine = StorageEngine::Open(PersistentEngineOptions(dir.path, true));
  ASSERT_FALSE(engine.ok()) << "opened over a corrupt arena header";
  EXPECT_EQ(engine.status().code(), StatusCode::kDataLoss);
}

TEST(EnginePersistTest, DurabilityCountersAccount) {
  TempDir dir;
  auto engine = StorageEngine::Open(PersistentEngineOptions(dir.path, true));
  ASSERT_TRUE(engine.ok());
  auto ns = (*engine)->Attach(kNs, kEngN, kEngBs, AttachMode::kAttachOrCreate);
  ASSERT_TRUE(ns.ok());
  RunEngineWorkload(engine->get(), &*ns);
  ASSERT_TRUE((*engine)->Checkpoint().ok());
  const StorageEngineCounters counters = (*engine)->Counters();
  EXPECT_GE(counters.persist.journal_appends, 2u);  // SetArray + upload
  EXPECT_GT(counters.persist.journal_bytes, 0u);
  EXPECT_GE(counters.persist.fsyncs, 2u);
  EXPECT_GE(counters.persist.checkpoints, 1u);
}

}  // namespace
}  // namespace persist
}  // namespace dpstore
