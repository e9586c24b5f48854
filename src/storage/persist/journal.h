#ifndef DPSTORE_STORAGE_PERSIST_JOURNAL_H_
#define DPSTORE_STORAGE_PERSIST_JOURNAL_H_

/// \file
/// Journal: the engine-wide CRC32C-framed write-ahead log.
///
/// Segment files are named `journal_<seq>.wal` (seq zero-padded to 8
/// digits) and begin with a 32-byte header: magic "DPSJRNL1", u32
/// version, u64 seq, u64 base LSN, u32 CRC32C over the first 28 bytes.
/// Records follow back to back:
///
///   [u32 length][u32 crc32c(body)][body: length bytes]
///   body = u64 lsn | u64 namespace_id | u8 op | u8 pad[3] |
///          u32 block_size | u64 count | op-specific tail
///
///   op 1 (upload):    count u64 indices, then count*block_size payload
///   op 2 (set_array): count*block_size payload (blocks 0..count-1)
///   op 3 (corrupt):   one u64 index, no payload
///
/// LSNs increase by one per record across segments; a segment's base LSN
/// is the LSN its first record must carry, so replay detects a missing or
/// hollowed-out middle segment.
///
/// Torn-tail rule (the crash contract): a parse failure — short frame,
/// implausible length, CRC mismatch, wrong LSN, malformed body — in the
/// LAST segment is the expected signature of a crash mid-append; replay
/// stops cleanly before the bad frame and truncates it away. The same
/// failure in a NON-last segment means bytes that rotation had already
/// made fdatasync-durable are gone, which is DataLoss and fails recovery.
///
/// Sync(lsn) is group commit: the first thread through becomes the
/// leader and issues one fdatasync covering every record appended so far;
/// threads arriving while the leader is in flight wait and usually find
/// their LSN already covered (counted as group_commit_riders). The
/// server's exchange-fusion seam lines fused uploads up behind one
/// leader, so a fused batch costs one fdatasync.

#include <sys/uio.h>

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "storage/persist/persist.h"
#include "util/statusor.h"

namespace dpstore {
namespace persist {

inline constexpr char kJournalMagic[8] = {'D', 'P', 'S', 'J',
                                          'R', 'N', 'L', '1'};
inline constexpr uint32_t kJournalFormatVersion = 1;
inline constexpr size_t kJournalSegmentHeaderBytes = 32;
/// Fixed-size prefix of every record body (before indices/payload).
inline constexpr size_t kJournalRecordFixedBytes = 32;
/// Cap on a single record's body length. It equals the wire codec's frame
/// cap, and a record body has the same 32-byte fixed prefix as a frame,
/// so one upload frame always fits in one record. But the server fuses
/// many upload frames into ONE record, which can pass the cap: Append
/// refuses such a record with InvalidArgument, and the server's fusion
/// stops harvesting before a group's record would pass it.
inline constexpr uint32_t kMaxJournalRecordBytes = uint32_t{1} << 30;

/// Journal ops. Values are part of the on-disk format.
enum class JournalOp : uint8_t {
  kUpload = 1,
  kSetArray = 2,
  kCorrupt = 3,
};

/// A decoded journal record. Pointers reference the replay buffer and are
/// only valid inside the replay callback. Indices are read through
/// index() because the on-disk offset of the index area is not guaranteed
/// 8-byte aligned.
struct JournalRecordView {
  uint64_t lsn = 0;
  uint64_t namespace_id = 0;
  JournalOp op = JournalOp::kUpload;
  uint32_t block_size = 0;
  uint64_t count = 0;
  const uint8_t* index_bytes = nullptr;  // kUpload: count u64s; kCorrupt: 1
  const uint8_t* payload = nullptr;      // kUpload/kSetArray: count*block_size

  uint64_t index(uint64_t i) const {
    uint64_t v;
    std::memcpy(&v, index_bytes + i * 8, 8);
    return v;
  }
};

class Journal {
 public:
  /// Opens the journal in `dir` for appending, scanning any existing
  /// segments first and replaying each well-formed record through `apply`
  /// (in LSN order). `apply` returning non-OK aborts recovery with that
  /// status. After a successful Open the journal is positioned to append
  /// the next LSN; any torn tail has been truncated away.
  ///
  /// `min_next_lsn` is the caller's LSN floor — one past the highest LSN
  /// any arena has checkpointed. When the journal must restart from
  /// nothing (no segments, or a lone segment with a torn header — the
  /// signature of a crash right after checkpoint+truncate), new LSNs
  /// begin there instead of at 1, so replay's per-arena LSN filter can
  /// never mistake a new record for an already-applied one.
  static StatusOr<std::unique_ptr<Journal>> Open(
      const std::string& dir, const PersistOptions& options,
      uint64_t min_next_lsn,
      const std::function<Status(const JournalRecordView&)>& apply);

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record and returns its LSN. The record is written to the
  /// segment file immediately (ordered with respect to all other appends)
  /// but NOT yet durable — call Sync() with the returned LSN. Safe to call
  /// while holding engine stripe locks: Append only blocks on fsync at
  /// segment rotation, amortized over journal_segment_bytes.
  ///
  /// The record goes to the file in one writev: the frame prefix, fixed
  /// body and indices from a scratch buffer, the payload straight from
  /// `payload` (never staged). Zero steady-state allocations: the scratch
  /// only grows when a record carries more indices than every prior one.
  /// InvalidArgument, with nothing written and no LSN consumed, when the
  /// record body would exceed kMaxJournalRecordBytes.
  StatusOr<uint64_t> Append(uint64_t namespace_id, JournalOp op,
                            uint32_t block_size, uint64_t count,
                            const uint64_t* indices, const uint8_t* payload,
                            size_t payload_len);

  /// Blocks until every record with LSN <= `lsn` is fdatasync-durable.
  /// Group commit: see file comment.
  Status Sync(uint64_t lsn);

  /// Durably forgets everything: deletes all segments and starts a fresh
  /// one whose base LSN continues the sequence. Called after every arena
  /// has checkpointed through last_lsn(). Requires no concurrent
  /// Append/Sync (the engine checkpoints only at quiescent points).
  Status Truncate();

  /// LSN of the last appended record (0 if none ever).
  uint64_t last_lsn();
  /// Accounting snapshot (race-free; takes the journal's locks).
  PersistCounters SnapshotCounters();

 private:
  Journal(std::string dir, const PersistOptions& options);

  Status ScanAndReplay(
      uint64_t min_next_lsn,
      const std::function<Status(const JournalRecordView&)>& apply);
  Status StartFreshSegment(uint64_t seq, uint64_t base_lsn);
  Status ContinueSegment(const std::string& path, uint64_t seq,
                         uint64_t bytes);
  Status RotateLocked(std::unique_lock<std::mutex>& append_lk);
  Status WriteAll(struct iovec* iov, int iovcnt);
  Status SyncDir();

  const std::string dir_;
  const PersistOptions options_;

  // Append path, guarded by append_mu_. Lock order: append_mu_ before
  // sync_mu_; Sync() takes only sync_mu_.
  std::mutex append_mu_;
  int fd_ = -1;
  uint64_t segment_seq_ = 0;
  uint64_t segment_bytes_ = 0;
  uint64_t next_lsn_ = 1;
  std::vector<uint8_t> scratch_;
  uint64_t journal_appends_ = 0;
  uint64_t journal_bytes_ = 0;
  uint64_t segments_rotated_ = 0;
  uint64_t recovered_records_ = 0;  // set once during Open

  // Sync path, guarded by sync_mu_.
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  bool sync_in_flight_ = false;
  uint64_t appended_lsn_ = 0;  // published by Append (under both mutexes)
  uint64_t durable_lsn_ = 0;
  int sync_fd_ = -1;  // fd the next group-commit leader fdatasyncs
  uint64_t fsyncs_ = 0;
  uint64_t group_commit_riders_ = 0;
};

}  // namespace persist
}  // namespace dpstore

#endif  // DPSTORE_STORAGE_PERSIST_JOURNAL_H_
