#include "server/storage_service.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/backend.h"
#include "storage/persist/journal.h"
#include "storage/wire.h"

namespace dpstore {

namespace {

Status SendError(int fd, const Status& status, uint64_t ticket,
                 uint8_t version) {
  return wire::WriteFrame(fd, wire::EncodeReplyError(status, ticket, version));
}

Status SendAck(int fd, uint64_t ticket, uint8_t version) {
  static const BlockBuffer kEmpty;
  return wire::WriteFrame(fd,
                          wire::EncodeReplyBlocks(kEmpty, ticket, version));
}

/// Reply-size cap shared by the Open geometry check and the per-download
/// check. Divides rather than multiplies: a forged count must not be able
/// to wrap the product and size a terminal allocation; header headroom
/// keeps a full reply frame under the cap too.
bool DownloadReplyTooLarge(uint64_t count, size_t block_size) {
  return block_size > 0 &&
         count > (wire::kMaxFrameBytes - wire::kHeaderBytes) / block_size;
}

/// Executes one decoded frame against `engine` through the connection's
/// namespace binding and writes exactly one reply frame to `fd`,
/// returning the write status. The single-frame semantics — checks,
/// error strings, reply bytes — are PR 5's per-connection ServeLoop
/// verbatim; only the storage behind them changed. `*exchanges` counts
/// kRequest frames actually executed.
Status DispatchFrame(StorageEngine& engine, unsigned tid, NamespaceHandle* ns,
                     uint8_t* version, wire::DecodedFrame frame, int fd,
                     uint64_t* exchanges) {
  const wire::FrameHeader& header = frame.header;
  const uint64_t ticket = header.ticket;

  if (header.type == wire::FrameType::kOpen) {
    // (Re)bind the connection's namespace; a re-Open simply attaches
    // anew (private mode: a fresh zeroed array, the PR 5 semantics).
    if (header.aux == 0 || header.block_size == 0 ||
        DownloadReplyTooLarge(header.aux, header.block_size)) {
      return SendError(fd, InvalidArgumentError("open: bad geometry"), ticket,
                       header.version);
    }
    // DecodeFrame already rejected unknown modes and a zero shared id.
    StatusOr<NamespaceHandle> handle =
        engine.Attach(header.count, header.aux, header.block_size,
                      static_cast<AttachMode>(header.code));
    if (!handle.ok()) {
      return SendError(fd, handle.status(), ticket, header.version);
    }
    *ns = std::move(*handle);
    // Version negotiation: answer this connection in the dialect its
    // Open arrived in, so v1 clients keep working unmodified.
    *version = header.version;
    return SendAck(fd, ticket, *version);
  }
  if (!ns->valid()) {
    return SendError(fd, FailedPreconditionError("frame before open"), ticket,
                     *version);
  }
  switch (header.type) {
    case wire::FrameType::kRequest: {
      // The decode only bounded the request frame; the REPLY of a
      // download is count * block_size bytes, and duplicate indices make
      // count independent of n. Cap it before the engine sizes an
      // allocation a hostile client chose.
      if (static_cast<StorageRequest::Op>(header.code) ==
              StorageRequest::Op::kDownload &&
          DownloadReplyTooLarge(frame.indices.size(), ns->block_size())) {
        return SendError(
            fd,
            InvalidArgumentError(
                "download reply would exceed the wire frame cap"),
            ticket, *version);
      }
      StorageRequest request;
      request.op = static_cast<StorageRequest::Op>(header.code);
      request.indices = std::move(frame.indices);
      request.payload = std::move(frame.payload);
      // DPF evals carry the domain offset in aux (see wire.h); the reply
      // is a single block, so the download cap above cannot bind.
      if (request.op == StorageRequest::Op::kDpfEval) {
        request.dpf_offset = header.aux;
      }
      StatusOr<StorageReply> reply = engine.ExecuteBatch(tid, *ns, request);
      ++*exchanges;
      return reply.ok() ? wire::WriteFrame(fd,
                                           wire::EncodeReplyBlocks(
                                               reply->blocks, ticket, *version))
                        : SendError(fd, reply.status(), ticket, *version);
    }
    case wire::FrameType::kSetArray: {
      Status status = engine.SetArray(*ns, frame.payload);
      return status.ok() ? SendAck(fd, ticket, *version)
                         : SendError(fd, status, ticket, *version);
    }
    case wire::FrameType::kPeek: {
      StatusOr<Block> block = engine.Peek(*ns, header.aux);
      if (!block.ok()) return SendError(fd, block.status(), ticket, *version);
      BlockBuffer one(ns->block_size());
      one.Append(*block);
      return wire::WriteFrame(fd,
                              wire::EncodeReplyBlocks(one, ticket, *version));
    }
    case wire::FrameType::kCorrupt: {
      Status status = engine.Corrupt(*ns, header.aux);
      return status.ok() ? SendAck(fd, ticket, *version)
                         : SendError(fd, status, ticket, *version);
    }
    default:
      return SendError(fd,
                       InvalidArgumentError("unexpected frame type on server"),
                       ticket, *version);
  }
}

/// True when `frame` may join a fused engine exchange: a non-empty
/// kRequest that is guaranteed to execute cleanly (every index in range,
/// upload payload aligned, download reply under the frame cap). Frames
/// that could fail are dispatched singly so an error reply is always
/// attributable to exactly the frame that caused it.
bool FusableFrame(const wire::DecodedFrame& frame, const NamespaceHandle& ns) {
  if (frame.header.type != wire::FrameType::kRequest || !ns.valid()) {
    return false;
  }
  if (frame.header.code > 1 || frame.indices.empty()) return false;
  for (BlockId index : frame.indices) {
    if (index >= ns.n()) return false;
  }
  if (static_cast<StorageRequest::Op>(frame.header.code) ==
      StorageRequest::Op::kDownload) {
    return !DownloadReplyTooLarge(frame.indices.size(), ns.block_size());
  }
  return frame.payload.size() == frame.indices.size() &&
         !frame.payload.ragged() &&
         frame.payload.block_size() == ns.block_size();
}

}  // namespace

/// One socket tenant. All fields except `fd` (set once before the reader
/// starts) and `reader` (joined only after `done`) are guarded by the
/// service mutex; `ns`, `version` and the socket writes are additionally
/// touched only by the worker that holds the connection `busy`.
/// One decoded frame plus when the reader enqueued it — the age the
/// shedding policy (options.shed_after_ms) measures.
struct QueuedFrame {
  wire::DecodedFrame frame;
  std::chrono::steady_clock::time_point arrival;
};

struct StorageService::Connection {
  int fd = -1;
  std::thread reader;
  std::deque<QueuedFrame> queue;
  bool scheduled = false;     ///< in ready_
  bool busy = false;          ///< a worker owns it right now
  bool reader_done = false;   ///< reader thread returned
  bool write_failed = false;  ///< a reply write failed; conn is dead
  bool done = false;          ///< finalized, fd closed
  NamespaceHandle ns;
  /// Until a successful Open negotiates the connection's dialect, replies
  /// (e.g. "frame before open") are encoded at kMinWireVersion: every
  /// decoder accepts v1, while a v1-only client would reject a v2 frame
  /// and see a framing failure instead of the intended error.
  uint8_t version = wire::kMinWireVersion;
};

namespace {

StorageEngineOptions EngineOptionsFor(const StorageServiceOptions& options) {
  StorageEngineOptions engine_options;
  engine_options.num_threads = std::max<size_t>(options.num_threads, 1);
  engine_options.lock_stripes = options.lock_stripes;
  engine_options.persist = options.persist;
  return engine_options;
}

}  // namespace

StorageService::StorageService(StorageServiceOptions options)
    : StorageService(options, StorageEngine::Create(EngineOptionsFor(options))) {
}

StatusOr<std::unique_ptr<StorageService>> StorageService::Make(
    StorageServiceOptions options) {
  DPSTORE_ASSIGN_OR_RETURN(std::shared_ptr<StorageEngine> engine,
                           StorageEngine::Open(EngineOptionsFor(options)));
  return std::unique_ptr<StorageService>(
      new StorageService(options, std::move(engine)));
}

StorageService::StorageService(StorageServiceOptions options,
                               std::shared_ptr<StorageEngine> engine)
    : options_(options), engine_(std::move(engine)) {
  workers_.reserve(options_.num_threads);
  for (size_t tid = 0; tid < options_.num_threads; ++tid) {
    workers_.emplace_back(&StorageService::WorkerLoop, this,
                          static_cast<unsigned>(tid));
  }
}

StorageService::~StorageService() { Drain(); }

bool StorageService::HandleConnection(int fd) {
  std::unique_lock<std::mutex> lock(mu_);
  if (draining_ || workers_.empty() ||
      counters_.connections_active >= options_.max_conns) {
    ++counters_.connections_rejected;
    lock.unlock();
    ::close(fd);
    return false;
  }
  // Retire finished connections (joining their readers) on the accept
  // path, so a long-lived server never accumulates dead records.
  for (size_t i = 0; i < conns_.size();) {
    if (conns_[i]->done) {
      if (conns_[i]->reader.joinable()) conns_[i]->reader.join();
      conns_.erase(conns_.begin() + i);
    } else {
      ++i;
    }
  }
  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  ++counters_.connections_accepted;
  ++counters_.connections_active;
  conns_.push_back(conn);
  conn->reader = std::thread(&StorageService::ReaderLoop, this, conn);
  return true;
}

uint64_t StorageService::ServeBlocking(int fd) {
  NamespaceHandle ns;
  uint8_t version = wire::kMinWireVersion;  // pre-Open; see Connection
  uint64_t exchanges = 0;
  uint64_t frames = 0;
  std::vector<uint8_t> scratch;
  for (;;) {
    StatusOr<wire::DecodedFrame> frame = wire::ReadFrame(fd, &scratch);
    if (!frame.ok()) break;  // EOF or unframeable bytes: close.
    Status sent = DispatchFrame(*engine_, /*tid=*/0, &ns, &version,
                                std::move(*frame), fd, &exchanges);
    ++frames;
    if (!sent.ok()) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  counters_.frames_served += frames;
  counters_.exchanges_served += exchanges;
  return exchanges;
}

void StorageService::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::vector<uint8_t> scratch;
  for (;;) {
    StatusOr<wire::DecodedFrame> frame = wire::ReadFrame(conn->fd, &scratch);
    std::unique_lock<std::mutex> lock(mu_);
    if (!frame.ok() || conn->write_failed) {
      conn->reader_done = true;
      ScheduleLocked(conn);
      return;
    }
    conn->queue.push_back(
        QueuedFrame{std::move(*frame), std::chrono::steady_clock::now()});
    ScheduleLocked(conn);
  }
}

void StorageService::WorkerLoop(unsigned tid) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (ready_.empty()) {
      if (stopping_) return;
      continue;
    }
    std::shared_ptr<Connection> conn = ready_.front();
    ready_.erase(ready_.begin());
    conn->scheduled = false;
    if (conn->queue.empty()) {  // queue dropped after a write failure
      ScheduleLocked(conn);
      continue;
    }
    conn->busy = true;
    ProcessLocked(tid, lock, conn);
    conn->busy = false;
    ScheduleLocked(conn);
  }
}

void StorageService::ProcessLocked(unsigned tid,
                                   std::unique_lock<std::mutex>& lock,
                                   const std::shared_ptr<Connection>& conn) {
  QueuedFrame queued = std::move(conn->queue.front());
  conn->queue.pop_front();
  wire::DecodedFrame head = std::move(queued.frame);

  // Load shedding: a request that sat in the queue past its budget is
  // answered with DeadlineExceeded WITHOUT touching the engine — the
  // client's Wait sees the same code its own deadline_ms would produce,
  // and the server spends its overload time on fresher work. Exactly one
  // reply frame still flows per request frame, so the stream stays in
  // protocol. Control frames are never shed (an Open must bind the
  // namespace or the whole connection is wedged).
  if (options_.shed_after_ms >= 0 &&
      head.header.type == wire::FrameType::kRequest) {
    const auto age = std::chrono::steady_clock::now() - queued.arrival;
    if (age >= std::chrono::milliseconds(options_.shed_after_ms)) {
      const uint64_t age_ms = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(age).count());
      lock.unlock();
      Status sent = SendError(
          conn->fd,
          DeadlineExceededError("server shed: frame queued " +
                                std::to_string(age_ms) + " ms, budget " +
                                std::to_string(options_.shed_after_ms) +
                                " ms"),
          head.header.ticket, conn->version);
      lock.lock();
      ++counters_.frames_served;
      ++counters_.frames_shed;
      if (!sent.ok()) FailLocked(conn);
      return;
    }
  }

  if (!FusableFrame(head, conn->ns)) {
    // Control frames, pre-open traffic and possibly-failing requests take
    // the exact single-frame path. The connection is busy-claimed, so
    // this worker is the only toucher of its fd / ns / version.
    lock.unlock();
    uint64_t executed = 0;
    Status sent = DispatchFrame(*engine_, tid, &conn->ns, &conn->version,
                                std::move(head), conn->fd, &executed);
    lock.lock();
    ++counters_.frames_served;
    counters_.exchanges_served += executed;
    if (!sent.ok()) FailLocked(conn);
    return;
  }

  // --- fused group ---------------------------------------------------
  // Harvest more guaranteed-clean requests of the same direction bound
  // for the same namespace: first the head of this connection's own
  // queue (pipelined client), then the heads of other READY connections
  // (cross-connection fusion — only shared namespaces can match, since
  // private ids are unique). Taking only queue heads, in order, is what
  // preserves every connection's own request/reply order.
  struct GroupItem {
    std::shared_ptr<Connection> conn;
    uint64_t ticket = 0;
    uint64_t count = 0;
    std::vector<BlockId> indices;
    BlockBuffer payload;
  };
  const auto op = static_cast<StorageRequest::Op>(head.header.code);
  const NamespaceId nsid = conn->ns.id();
  // The head always joins, even when alone it exceeds the budget.
  uint64_t budget =
      std::max<uint64_t>(options_.fuse_blocks, head.indices.size());
  // The budget counts blocks; a fused upload is also ONE journal record on
  // a persistent namespace, so the group stops before that record's bytes
  // would pass the cap. The head alone always fits: a record body and a
  // frame body share one fixed prefix and one cap.
  static_assert(wire::kMaxFrameBytes == persist::kMaxJournalRecordBytes);
  static_assert(wire::kHeaderBytes == persist::kJournalRecordFixedBytes);
  const uint64_t bytes_per_block =
      op == StorageRequest::Op::kUpload ? 8 + conn->ns.block_size() : 0;
  uint64_t record_room =
      persist::kMaxJournalRecordBytes - persist::kJournalRecordFixedBytes;
  std::vector<GroupItem> items;
  std::vector<std::shared_ptr<Connection>> claimed;
  auto fits = [&](const wire::DecodedFrame& frame) {
    return frame.indices.size() <= budget &&
           frame.indices.size() * bytes_per_block <= record_room;
  };
  auto take = [&](const std::shared_ptr<Connection>& c,
                  wire::DecodedFrame frame) {
    budget -= frame.indices.size();
    record_room -= frame.indices.size() * bytes_per_block;
    GroupItem item;
    item.conn = c;
    item.ticket = frame.header.ticket;
    item.count = frame.indices.size();
    item.indices = std::move(frame.indices);
    item.payload = std::move(frame.payload);
    items.push_back(std::move(item));
  };
  auto harvest = [&](const std::shared_ptr<Connection>& c) {
    while (!c->queue.empty() && budget > 0) {
      wire::DecodedFrame& front = c->queue.front().frame;
      if (front.header.type != wire::FrameType::kRequest ||
          static_cast<StorageRequest::Op>(front.header.code) != op ||
          !fits(front) || !FusableFrame(front, c->ns)) {
        break;
      }
      take(c, std::move(front));
      c->queue.pop_front();
    }
  };
  take(conn, std::move(head));
  harvest(conn);
  for (size_t i = 0; i < ready_.size() && budget > 0;) {
    const std::shared_ptr<Connection>& other = ready_[i];
    if (other->ns.valid() && other->ns.id() == nsid &&
        !other->queue.empty() &&
        other->queue.front().frame.header.type ==
            wire::FrameType::kRequest &&
        static_cast<StorageRequest::Op>(
            other->queue.front().frame.header.code) == op &&
        fits(other->queue.front().frame) &&
        FusableFrame(other->queue.front().frame, other->ns)) {
      std::shared_ptr<Connection> c = other;
      ready_.erase(ready_.begin() + i);
      c->scheduled = false;
      c->busy = true;
      claimed.push_back(c);
      harvest(c);
    } else {
      ++i;
    }
  }

  lock.unlock();

  // One engine exchange for the whole group. A group of one frame (every
  // unpipelined request) hands its indices and payload over as they are.
  StorageRequest fused;
  fused.op = op;
  if (items.size() == 1) {
    fused.indices = std::move(items[0].indices);
    fused.payload = std::move(items[0].payload);
  } else {
    uint64_t total = 0;
    for (const GroupItem& item : items) total += item.count;
    fused.indices.reserve(total);
    if (op == StorageRequest::Op::kUpload) {
      fused.payload = BlockBuffer(conn->ns.block_size());
      fused.payload.Reserve(total);
    }
    for (const GroupItem& item : items) {
      fused.indices.insert(fused.indices.end(), item.indices.begin(),
                           item.indices.end());
      for (size_t b = 0; b < item.payload.size(); ++b) {
        fused.payload.Append(item.payload[b]);
      }
    }
  }
  StatusOr<StorageReply> reply = engine_->ExecuteBatch(tid, conn->ns, fused);

  // Slice the one reply into per-frame reply frames — each with its own
  // ticket, written in each connection's request order, byte-identical
  // to unfused execution (EncodeReplyBlocksView borrows the fused
  // payload region; no copy).
  std::vector<std::shared_ptr<Connection>> broken;
  uint64_t offset = 0;
  for (const GroupItem& item : items) {
    Status sent;
    if (!reply.ok()) {
      // Unreachable by construction (fused frames are pre-validated);
      // still answered per frame so no client hangs.
      sent = SendError(item.conn->fd, reply.status(), item.ticket,
                       item.conn->version);
    } else if (op == StorageRequest::Op::kDownload) {
      const size_t bs = item.conn->ns.block_size();
      BlockView body =
          reply->blocks.AllBytes().subspan(offset * bs, item.count * bs);
      sent = wire::WriteFrame(
          item.conn->fd,
          wire::EncodeReplyBlocksView(body, item.count,
                                      static_cast<uint32_t>(bs), item.ticket,
                                      item.conn->version));
    } else {
      sent = SendAck(item.conn->fd, item.ticket, item.conn->version);
    }
    offset += item.count;
    if (!sent.ok()) broken.push_back(item.conn);
  }

  lock.lock();
  counters_.frames_served += items.size();
  counters_.exchanges_served += items.size();
  if (items.size() > 1) {
    ++counters_.fused_batches;
    counters_.fused_frames += items.size();
  }
  for (const auto& c : broken) FailLocked(c);
  for (const auto& c : claimed) {
    c->busy = false;
    ScheduleLocked(c);
  }
}

void StorageService::ScheduleLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->done || conn->busy) return;
  if (!conn->queue.empty()) {
    if (!conn->scheduled) {
      conn->scheduled = true;
      ready_.push_back(conn);
      work_cv_.notify_one();
    }
    return;
  }
  if (conn->reader_done && !conn->scheduled) FinalizeLocked(conn);
}

void StorageService::FinalizeLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->done) return;
  conn->done = true;
  conn->ns = NamespaceHandle();  // detach now; frees private namespaces
  ::close(conn->fd);
  --counters_.connections_active;
  if (counters_.connections_active == 0) drained_cv_.notify_all();
}

void StorageService::FailLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->write_failed || conn->done) return;
  conn->write_failed = true;
  conn->queue.clear();
  // Wake the reader (blocked in read) so the connection can retire.
  ::shutdown(conn->fd, SHUT_RDWR);
}

void StorageService::Drain() {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    conns = conns_;
    // Stop READING only: queued exchanges still execute and their
    // replies still flow; each connection retires once its queue drains.
    for (const auto& c : conns) {
      if (!c->done) ::shutdown(c->fd, SHUT_RD);
    }
    drained_cv_.wait(lock,
                     [this] { return counters_.connections_active == 0; });
    stopping_ = true;
    conns_.clear();
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  for (const auto& c : conns) {
    if (c->reader.joinable()) c->reader.join();
  }
  // Quiescent now (no readers, no workers, no in-flight exchanges):
  // checkpoint so a clean restart replays nothing. Best-effort — on
  // failure the journal simply remains for the next Open to replay.
  (void)engine_->Checkpoint();
}

StorageServiceCounters StorageService::Counters() const {
  StorageServiceCounters out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = counters_;
  }
  out.engine = engine_->Counters();
  return out;
}

uint64_t ServeStorageConnection(int fd) {
  // A connection-private engine behind the shared dispatch: exactly the
  // PR 5 contract (every byte included), now expressed as the smallest
  // possible StorageService.
  StorageServiceOptions options;
  options.num_threads = 0;  // no pool; serve on the caller's thread
  StorageService service(options);
  return service.ServeBlocking(fd);
}

}  // namespace dpstore
