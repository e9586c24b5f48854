#ifndef DPSTORE_SERVER_STORAGE_SERVICE_H_
#define DPSTORE_SERVER_STORAGE_SERVICE_H_

/// \file
/// Server side of the wire codec: StorageService turns connected sockets
/// into tenants of ONE shared StorageEngine.
///
/// PR 5's ServeStorageConnection owned a private arena per connection on
/// a dedicated thread — structurally single-tenant. The service splits
/// that into three roles:
///
///   * per-connection READERS: thin threads that only decode frames and
///     enqueue work (they never touch storage);
///   * a BOUNDED WORKER POOL (`num_threads`) executing exchanges against
///     the shared engine — server capacity no longer scales threads with
///     connections;
///   * a CROSS-CONNECTION BATCH SCHEDULER: a worker draining one
///     connection's queue also harvests same-direction request frames
///     bound for the SAME namespace from other ready connections and
///     executes them as one fused engine exchange. Each connection still
///     receives exactly one reply frame per request frame, with its own
///     ticket, in its own request order — the adversary-view invariant is
///     per connection and fusion never changes any client's bytes
///     (tests/fusing_backend_test.cc).
///
/// Shared by the dpstore_server binary and by SocketBackend's in-process
/// fallback (ServeStorageConnection), which serves the same dispatch
/// synchronously from one thread over a socketpair — a test against the
/// fallback exercises byte-for-byte the same codec and execution path as
/// a real TCP deployment.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/engine.h"

namespace dpstore {

struct StorageServiceOptions {
  /// Worker threads executing exchanges (threaded mode). 0 spawns no
  /// pool: only ServeBlocking may be used (the in-process fallback).
  size_t num_threads = 4;
  /// Concurrent-connection cap; HandleConnection refuses (and closes)
  /// beyond it.
  size_t max_conns = 64;
  /// Cross-connection fusion budget: max blocks one fused engine
  /// exchange may carry. 1 disables fusion.
  uint64_t fuse_blocks = 256;
  /// Stripe count for the shared engine's per-namespace locking.
  size_t lock_stripes = 16;
  /// Queue-age load shedding (threaded mode): a kRequest frame that
  /// waited in its connection's queue longer than this many ms is
  /// answered with a DeadlineExceeded error frame instead of executed —
  /// the server-side half of the client's `deadline_ms` budget, applied
  /// where an overloaded server's time actually goes. -1 disables; 0
  /// sheds every queued request (a deterministic test mode). Control
  /// frames (Open/SetArray/Peek/Corrupt) always execute, and the
  /// synchronous ServeBlocking path never queues, so it never sheds.
  int64_t shed_after_ms = -1;
  /// Durability passthrough to the shared engine (--data-dir). With it
  /// set, an upload's ack is only written after its journal record is
  /// fdatasync-durable — and because a fused group executes as ONE engine
  /// exchange, a batch of fused uploads costs one journal record and one
  /// fdatasync (group commit covers concurrent workers too). Use Make()
  /// to observe recovery failures as Status.
  persist::PersistOptions persist;
};

/// Point-in-time accounting (connection/namespace accounting for the
/// server binary's drain report).
struct StorageServiceCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t connections_rejected = 0;  ///< refused at max_conns
  uint64_t frames_served = 0;         ///< reply frames written
  uint64_t exchanges_served = 0;      ///< kRequest frames answered
  uint64_t fused_batches = 0;         ///< engine calls carrying >1 frame
  uint64_t fused_frames = 0;          ///< request frames that rode fused
  uint64_t frames_shed = 0;  ///< requests answered DeadlineExceeded unexecuted
  StorageEngineCounters engine;
};

class StorageService {
 public:
  /// CHECK-fails if options.persist asks for a data dir that cannot be
  /// recovered; Make() reports that as Status instead.
  explicit StorageService(StorageServiceOptions options = {});
  /// Construction path for persistent deployments: runs crash recovery
  /// (StorageEngine::Open) and surfaces its DataLoss/Internal errors.
  static StatusOr<std::unique_ptr<StorageService>> Make(
      StorageServiceOptions options = {});
  /// Drains (see Drain) and joins every thread.
  ~StorageService();

  StorageService(const StorageService&) = delete;
  StorageService& operator=(const StorageService&) = delete;

  /// Adopts `fd` as a new connection: spawns its reader and serves its
  /// frames from the worker pool. Returns false — closing `fd` — when
  /// draining or at max_conns. Requires num_threads >= 1.
  bool HandleConnection(int fd);

  /// Serves one connection synchronously on the caller's thread against
  /// the shared engine, until EOF or a framing error; closes `fd` on
  /// return. Returns the number of exchange frames served. This is the
  /// PR 5 dispatch loop, now a thin client of the engine.
  uint64_t ServeBlocking(int fd);

  /// Graceful shutdown: refuse new connections, stop reading, finish
  /// every in-flight exchange (replies still flow), close all
  /// connections, park the workers, and — once quiescent — checkpoint
  /// the engine so a clean restart replays nothing. Idempotent.
  void Drain();

  StorageServiceCounters Counters() const;
  StorageEngine& engine() { return *engine_; }

 private:
  struct Connection;

  StorageService(StorageServiceOptions options,
                 std::shared_ptr<StorageEngine> engine);

  void WorkerLoop(unsigned tid);
  void ReaderLoop(std::shared_ptr<Connection> conn);
  /// Executes one connection's head-of-queue group (plus harvested
  /// same-direction requests from other ready connections). mu_ held on
  /// entry and exit, released around engine execution and socket writes.
  void ProcessLocked(unsigned tid, std::unique_lock<std::mutex>& lock,
                     const std::shared_ptr<Connection>& conn);
  /// Marks `conn` ready (or finalizes it) after its queue changed.
  /// Requires mu_.
  void ScheduleLocked(const std::shared_ptr<Connection>& conn);
  /// Closes and retires a connection whose reader stopped and whose
  /// queue drained. Requires mu_.
  void FinalizeLocked(const std::shared_ptr<Connection>& conn);
  /// Marks a connection dead after a reply write failed: drops its queue
  /// and shuts the socket down so its reader stops. Requires mu_.
  void FailLocked(const std::shared_ptr<Connection>& conn);

  const StorageServiceOptions options_;
  std::shared_ptr<StorageEngine> engine_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // workers: ready_ / stopping_
  std::condition_variable drained_cv_;  // Drain: connections_active -> 0
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::shared_ptr<Connection>> ready_;
  bool draining_ = false;
  bool stopping_ = false;
  StorageServiceCounters counters_;

  std::vector<std::thread> workers_;
};

/// Compat entry point (SocketBackend's socketpair fallback): serves one
/// connection on the caller's thread against a connection-private
/// engine, exactly the PR 5 contract. Closes `fd`; returns exchange
/// frames served.
uint64_t ServeStorageConnection(int fd);

}  // namespace dpstore

#endif  // DPSTORE_SERVER_STORAGE_SERVICE_H_
