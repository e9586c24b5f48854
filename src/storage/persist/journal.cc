#include "storage/persist/journal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>

#include "util/crc32c.h"
#include "util/io.h"

namespace dpstore {
namespace persist {
namespace {

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

Status Errno(const std::string& what, const std::string& path) {
  return InternalError(what + " failed for " + path + ": " +
                       std::strerror(errno));
}

std::string SegmentName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "journal_%08" PRIu64 ".wal", seq);
  return buf;
}

// Parses "journal_<digits>.wal" → seq; returns false for any other name.
bool ParseSegmentName(const char* name, uint64_t* seq) {
  static constexpr char kPrefix[] = "journal_";
  static constexpr char kSuffix[] = ".wal";
  const size_t len = std::strlen(name);
  const size_t prefix = sizeof(kPrefix) - 1, suffix = sizeof(kSuffix) - 1;
  if (len <= prefix + suffix) return false;
  if (std::memcmp(name, kPrefix, prefix) != 0) return false;
  if (std::memcmp(name + len - suffix, kSuffix, suffix) != 0) return false;
  uint64_t v = 0;
  for (size_t i = prefix; i < len - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = v;
  return true;
}

// Segment header offsets (32 bytes total).
constexpr size_t kSegOffMagic = 0;     // 8 bytes
constexpr size_t kSegOffVersion = 8;   // u32
constexpr size_t kSegOffSeq = 12;      // u64
constexpr size_t kSegOffBaseLsn = 20;  // u64
constexpr size_t kSegOffCrc = 28;      // u32 over bytes [0, 28)

void EncodeSegmentHeader(uint8_t* out, uint64_t seq, uint64_t base_lsn) {
  std::memcpy(out + kSegOffMagic, kJournalMagic, sizeof(kJournalMagic));
  PutU32(out + kSegOffVersion, kJournalFormatVersion);
  PutU64(out + kSegOffSeq, seq);
  PutU64(out + kSegOffBaseLsn, base_lsn);
  PutU32(out + kSegOffCrc, crc32c::Crc32c(out, kSegOffCrc));
}

// Validates a segment header; on success fills seq/base_lsn.
bool DecodeSegmentHeader(const uint8_t* in, size_t len, uint64_t* seq,
                         uint64_t* base_lsn) {
  if (len < kJournalSegmentHeaderBytes) return false;
  if (std::memcmp(in + kSegOffMagic, kJournalMagic, sizeof(kJournalMagic)) !=
      0) {
    return false;
  }
  if (GetU32(in + kSegOffVersion) != kJournalFormatVersion) return false;
  if (GetU32(in + kSegOffCrc) != crc32c::Crc32c(in, kSegOffCrc)) return false;
  *seq = GetU64(in + kSegOffSeq);
  *base_lsn = GetU64(in + kSegOffBaseLsn);
  return true;
}

// Record body offsets (within the 32-byte fixed prefix).
constexpr size_t kRecOffLsn = 0;        // u64
constexpr size_t kRecOffNamespace = 8;  // u64
constexpr size_t kRecOffOp = 16;        // u8 (+3 pad bytes, must be zero)
constexpr size_t kRecOffBlockSize = 20; // u32
constexpr size_t kRecOffCount = 24;     // u64

// Attempts to decode one record at `p` (length `avail`), expecting
// `want_lsn`. Returns the total framed size on success and fills `view`;
// returns 0 on any malformation (the caller decides torn-tail vs
// DataLoss from segment position).
size_t DecodeRecord(const uint8_t* p, size_t avail, uint64_t want_lsn,
                    JournalRecordView* view) {
  if (avail < 8) return 0;
  const uint32_t len = GetU32(p);
  const uint32_t crc = GetU32(p + 4);
  if (len < kJournalRecordFixedBytes || len > kMaxJournalRecordBytes) return 0;
  if (avail - 8 < len) return 0;
  const uint8_t* body = p + 8;
  if (crc32c::Crc32c(body, len) != crc) return 0;

  view->lsn = GetU64(body + kRecOffLsn);
  if (view->lsn != want_lsn) return 0;
  view->namespace_id = GetU64(body + kRecOffNamespace);
  const uint8_t op = body[kRecOffOp];
  if (body[kRecOffOp + 1] != 0 || body[kRecOffOp + 2] != 0 ||
      body[kRecOffOp + 3] != 0) {
    return 0;
  }
  view->block_size = GetU32(body + kRecOffBlockSize);
  view->count = GetU64(body + kRecOffCount);

  // Tail-size arithmetic stays overflow-safe because len <= 1 GiB: any
  // count or block_size large enough to overflow also fails these bounds.
  const uint64_t tail = len - kJournalRecordFixedBytes;
  const uint64_t count = view->count;
  const uint64_t bs = view->block_size;
  switch (op) {
    case 1:  // upload: count indices + count blocks
      if (count == 0 || count > tail / 8) return 0;
      if (bs == 0 || (tail - count * 8) / count != bs) return 0;
      if (count * 8 + count * bs != tail) return 0;
      view->op = JournalOp::kUpload;
      view->index_bytes = body + kJournalRecordFixedBytes;
      view->payload = view->index_bytes + count * 8;
      break;
    case 2:  // set_array: count blocks, no indices
      if (count == 0 || bs == 0) return 0;
      if (tail / count != bs || count * bs != tail) return 0;
      view->op = JournalOp::kSetArray;
      view->index_bytes = nullptr;
      view->payload = body + kJournalRecordFixedBytes;
      break;
    case 3:  // corrupt: one index, no payload
      if (count != 1 || tail != 8) return 0;
      view->op = JournalOp::kCorrupt;
      view->index_bytes = body + kJournalRecordFixedBytes;
      view->payload = nullptr;
      break;
    default:
      return 0;
  }
  return 8 + static_cast<size_t>(len);
}

}  // namespace

Journal::Journal(std::string dir, const PersistOptions& options)
    : dir_(std::move(dir)), options_(options) {}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<Journal>> Journal::Open(
    const std::string& dir, const PersistOptions& options,
    uint64_t min_next_lsn,
    const std::function<Status(const JournalRecordView&)>& apply) {
  auto journal = std::unique_ptr<Journal>(new Journal(dir, options));
  if (min_next_lsn < 1) min_next_lsn = 1;
  Status st = journal->ScanAndReplay(min_next_lsn, apply);
  if (!st.ok()) return st;
  return journal;
}

Status Journal::SyncDir() {
  int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return Errno("open(dir)", dir_);
  int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) return Errno("fsync(dir)", dir_);
  return OkStatus();
}

Status Journal::ScanAndReplay(
    uint64_t min_next_lsn,
    const std::function<Status(const JournalRecordView&)>& apply) {
  // Enumerate journal_*.wal, sorted by sequence number.
  std::vector<uint64_t> seqs;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return Errno("opendir", dir_);
  while (struct dirent* e = ::readdir(d)) {
    uint64_t seq;
    if (ParseSegmentName(e->d_name, &seq)) seqs.push_back(seq);
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());

  if (seqs.empty()) {
    Status st = StartFreshSegment(1, min_next_lsn);
    if (!st.ok()) return st;
    next_lsn_ = min_next_lsn;
    appended_lsn_ = min_next_lsn - 1;
    durable_lsn_ = appended_lsn_;
    return SyncDir();
  }

  uint64_t expect_lsn = 0;  // 0 = take the first segment's base LSN
  std::vector<uint8_t> buf;
  for (size_t i = 0; i < seqs.size(); ++i) {
    const bool last = (i + 1 == seqs.size());
    const std::string path = dir_ + "/" + SegmentName(seqs[i]);

    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Errno("open", path);
    struct stat sb;
    if (::fstat(fd, &sb) != 0) {
      ::close(fd);
      return Errno("fstat", path);
    }
    buf.resize(static_cast<size_t>(sb.st_size));
    size_t got = 0;
    while (got < buf.size()) {
      ssize_t r = io::PreadEintr(fd, buf.data() + got, buf.size() - got,
                                 static_cast<off_t>(got));
      if (r <= 0) {
        ::close(fd);
        return Errno("pread", path);
      }
      got += static_cast<size_t>(r);
    }
    ::close(fd);

    uint64_t seq, base_lsn;
    if (!DecodeSegmentHeader(buf.data(), buf.size(), &seq, &base_lsn) ||
        seq != seqs[i] || (expect_lsn != 0 && base_lsn != expect_lsn)) {
      if (!last) {
        return DataLossError("journal segment " + path +
                             " has a corrupt header mid-journal");
      }
      // Torn header in the newest segment: rotation fdatasyncs the prior
      // segment before creating a new one, and a synced record implies a
      // synced header, so nothing durable is lost. Drop the segment.
      if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
      Status st = SyncDir();
      if (!st.ok()) return st;
      if (expect_lsn < min_next_lsn) expect_lsn = min_next_lsn;
      st = StartFreshSegment(seqs[i], expect_lsn);
      if (!st.ok()) return st;
      next_lsn_ = expect_lsn;
      appended_lsn_ = expect_lsn - 1;
      durable_lsn_ = appended_lsn_;
      return SyncDir();
    }
    if (expect_lsn == 0) expect_lsn = base_lsn;

    size_t off = kJournalSegmentHeaderBytes;
    bool torn = false;
    while (off < buf.size()) {
      JournalRecordView view;
      size_t framed = DecodeRecord(buf.data() + off, buf.size() - off,
                                   expect_lsn, &view);
      if (framed == 0) {
        if (!last) {
          return DataLossError("journal segment " + path +
                               " has a corrupt record mid-journal (offset " +
                               std::to_string(off) + ")");
        }
        torn = true;
        break;
      }
      Status st = apply(view);
      if (!st.ok()) return st;
      ++recovered_records_;
      ++expect_lsn;
      off += framed;
    }

    if (last) {
      if (torn) {
        // Truncate the torn tail so this segment parses cleanly next time
        // and new appends continue from the good prefix.
        int wfd = ::open(path.c_str(), O_RDWR);
        if (wfd < 0) return Errno("open", path);
        if (::ftruncate(wfd, static_cast<off_t>(off)) != 0 ||
            ::fsync(wfd) != 0) {
          ::close(wfd);
          return Errno("ftruncate", path);
        }
        ::close(wfd);
      }
      Status st = ContinueSegment(path, seqs[i], off);
      if (!st.ok()) return st;
    }
  }

  next_lsn_ = expect_lsn;
  appended_lsn_ = expect_lsn - 1;
  durable_lsn_ = appended_lsn_;
  return OkStatus();
}

Status Journal::StartFreshSegment(uint64_t seq, uint64_t base_lsn) {
  const std::string path = dir_ + "/" + SegmentName(seq);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return Errno("open(O_EXCL)", path);
  uint8_t header[kJournalSegmentHeaderBytes];
  EncodeSegmentHeader(header, seq, base_lsn);
  size_t done = 0;
  while (done < sizeof(header)) {
    ssize_t w = io::WriteEintr(fd, header + done, sizeof(header) - done);
    if (w < 0) {
      ::close(fd);
      ::unlink(path.c_str());
      return Errno("write", path);
    }
    done += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    return Errno("fsync", path);
  }
  fd_ = fd;
  sync_fd_ = fd;
  segment_seq_ = seq;
  segment_bytes_ = kJournalSegmentHeaderBytes;
  return OkStatus();
}

Status Journal::ContinueSegment(const std::string& path, uint64_t seq,
                                uint64_t bytes) {
  int fd = ::open(path.c_str(), O_RDWR | O_APPEND);
  if (fd < 0) return Errno("open(O_APPEND)", path);
  fd_ = fd;
  sync_fd_ = fd;
  segment_seq_ = seq;
  segment_bytes_ = bytes;
  return OkStatus();
}

Status Journal::WriteAll(struct iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    ssize_t w = io::WritevEintr(fd_, iov, iovcnt);
    if (w < 0) return Errno("writev", dir_ + "/" + SegmentName(segment_seq_));
    io::AdvanceIov(&iov, &iovcnt, static_cast<size_t>(w));
  }
  return OkStatus();
}

Status Journal::RotateLocked(std::unique_lock<std::mutex>& append_lk) {
  (void)append_lk;  // held by the caller; documents the requirement
  std::unique_lock<std::mutex> sync_lk(sync_mu_);
  // A group-commit leader may be mid-fdatasync on fd_ with sync_mu_
  // released; wait it out so the fd is not closed under it.
  sync_cv_.wait(sync_lk, [&] { return !sync_in_flight_; });

  // Everything in the outgoing segment becomes durable before the new
  // segment can exist — this is what lets recovery treat a torn record in
  // a non-last segment as DataLoss.
  if (::fdatasync(fd_) != 0) {
    return Errno("fdatasync", dir_ + "/" + SegmentName(segment_seq_));
  }
  ++fsyncs_;
  durable_lsn_ = appended_lsn_;
  ::close(fd_);
  fd_ = -1;
  sync_fd_ = -1;

  Status st = StartFreshSegment(segment_seq_ + 1, next_lsn_);
  if (!st.ok()) return st;
  ++segments_rotated_;
  // The new segment's directory entry must survive a crash: records
  // fdatasync'd into it are acked durable, and an unreachable file would
  // silently void those acks.
  return SyncDir();
}

StatusOr<uint64_t> Journal::Append(uint64_t namespace_id, JournalOp op,
                                   uint32_t block_size, uint64_t count,
                                   const uint64_t* indices,
                                   const uint8_t* payload,
                                   size_t payload_len) {
  // A record past the cap is refused, never written: replay would reject
  // its length as implausible and stop there, silently dropping it and
  // every later record. Checked in steps so no operand can overflow.
  const bool has_indices = op != JournalOp::kSetArray;
  if ((has_indices && count > kMaxJournalRecordBytes / 8) ||
      payload_len > kMaxJournalRecordBytes ||
      kJournalRecordFixedBytes + (has_indices ? count * 8 : 0) +
              payload_len >
          kMaxJournalRecordBytes) {
    return InvalidArgumentError(
        "journal: record of " + std::to_string(count) + " blocks, " +
        std::to_string(payload_len) + " payload bytes exceeds the " +
        std::to_string(kMaxJournalRecordBytes) + "-byte record cap");
  }
  const size_t index_bytes = has_indices ? static_cast<size_t>(count) * 8 : 0;
  const size_t body_len = kJournalRecordFixedBytes + index_bytes + payload_len;

  std::unique_lock<std::mutex> lk(append_mu_);
  if (segment_bytes_ >= options_.journal_segment_bytes) {
    Status st = RotateLocked(lk);
    if (!st.ok()) return st;
  }

  // Only the frame prefix, fixed body and indices are serialized; the
  // payload goes to the file straight from the caller's memory (second
  // writev leg) and the CRC is extended over it in place.
  const uint64_t lsn = next_lsn_;
  const size_t head_len = 8 + kJournalRecordFixedBytes + index_bytes;
  if (scratch_.size() < head_len) scratch_.resize(head_len);
  uint8_t* frame = scratch_.data();
  uint8_t* body = frame + 8;
  PutU64(body + kRecOffLsn, lsn);
  PutU64(body + kRecOffNamespace, namespace_id);
  body[kRecOffOp] = static_cast<uint8_t>(op);
  body[kRecOffOp + 1] = body[kRecOffOp + 2] = body[kRecOffOp + 3] = 0;
  PutU32(body + kRecOffBlockSize, block_size);
  PutU64(body + kRecOffCount, count);
  uint8_t* tail = body + kJournalRecordFixedBytes;
  for (size_t i = 0; i < index_bytes / 8; ++i) {
    PutU64(tail + i * 8, indices[i]);
  }
  uint32_t crc = crc32c::Crc32c(body, head_len - 8);
  if (payload_len > 0) crc = crc32c::Extend(crc, payload, payload_len);
  PutU32(frame, static_cast<uint32_t>(body_len));
  PutU32(frame + 4, crc);

  struct iovec iov[2];
  iov[0].iov_base = frame;
  iov[0].iov_len = head_len;
  iov[1].iov_base = const_cast<uint8_t*>(payload);
  iov[1].iov_len = payload_len;
  Status st = WriteAll(iov, payload_len > 0 ? 2 : 1);
  if (!st.ok()) return st;
  const size_t total = 8 + body_len;
  next_lsn_ = lsn + 1;
  segment_bytes_ += total;
  ++journal_appends_;
  journal_bytes_ += total;
  {
    std::lock_guard<std::mutex> sync_lk(sync_mu_);
    appended_lsn_ = lsn;
  }
  return lsn;
}

Status Journal::Sync(uint64_t lsn) {
  std::unique_lock<std::mutex> lk(sync_mu_);
  bool waited = false;
  while (durable_lsn_ < lsn) {
    if (!sync_in_flight_) {
      sync_in_flight_ = true;
      const uint64_t cover = appended_lsn_;
      const int fd = sync_fd_;
      lk.unlock();
      const int rc = ::fdatasync(fd);
      lk.lock();
      sync_in_flight_ = false;
      sync_cv_.notify_all();
      if (rc != 0) {
        return Errno("fdatasync", dir_ + "/" + SegmentName(segment_seq_));
      }
      ++fsyncs_;
      if (cover > durable_lsn_) durable_lsn_ = cover;
    } else {
      waited = true;
      sync_cv_.wait(lk);
    }
  }
  if (waited) ++group_commit_riders_;
  return OkStatus();
}

Status Journal::Truncate() {
  std::unique_lock<std::mutex> lk(append_mu_);
  std::unique_lock<std::mutex> sync_lk(sync_mu_);
  sync_cv_.wait(sync_lk, [&] { return !sync_in_flight_; });

  ::close(fd_);
  fd_ = -1;
  sync_fd_ = -1;
  for (uint64_t seq = 1; seq <= segment_seq_; ++seq) {
    const std::string path = dir_ + "/" + SegmentName(seq);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Errno("unlink", path);
    }
  }
  Status st = StartFreshSegment(segment_seq_ + 1, next_lsn_);
  if (!st.ok()) return st;
  durable_lsn_ = next_lsn_ - 1;
  appended_lsn_ = next_lsn_ - 1;
  return SyncDir();
}

uint64_t Journal::last_lsn() {
  std::lock_guard<std::mutex> lk(append_mu_);
  return next_lsn_ - 1;
}

PersistCounters Journal::SnapshotCounters() {
  PersistCounters c;
  std::lock_guard<std::mutex> lk(append_mu_);
  std::lock_guard<std::mutex> sync_lk(sync_mu_);
  c.journal_appends = journal_appends_;
  c.journal_bytes = journal_bytes_;
  c.segments_rotated = segments_rotated_;
  c.recovered_records = recovered_records_;
  c.fsyncs = fsyncs_;
  c.group_commit_riders = group_commit_riders_;
  return c;
}

}  // namespace persist
}  // namespace dpstore
