#ifndef DPSTORE_STORAGE_ENGINE_H_
#define DPSTORE_STORAGE_ENGINE_H_

/// \file
/// StorageEngine: the shared, concurrent heart of the storage server.
///
/// PR 5 left dpstore_server with one private StorageServer arena per
/// connection — structurally single-tenant. This engine is the
/// multi-tenant replacement: ONE process-wide object holding any number
/// of named block arenas ("namespaces"), safe for concurrent exchanges
/// from many client threads / connections at once. The surface follows
/// the PetPS BaseKV idiom (explicit `num_threads` up front, a `tid` on
/// every hot call) so per-thread accounting never contends.
///
/// Layering: the engine is pure storage — arenas, striped locks, the
/// run-coalesced memcpys of the flat-arena hot path. It records NO
/// adversarial transcript and rolls NO fault injector; those belong to
/// each client's own view and live in EngineBackend (the per-client
/// StorageBackend handle) and in the single-threaded StorageServer
/// adapter built on top of it. That split is what lets N connections
/// share one arena while each keeps its own bit-identical transcript.
///
/// Concurrency model: each namespace's arena is divided into
/// `lock_stripes` contiguous stripes, each guarded by its own mutex. An
/// exchange locks exactly the stripes its indices touch, in ascending
/// order (no deadlocks), holds them across the run-coalesced copy, and
/// releases. Disjoint-stripe exchanges proceed in parallel; same-stripe
/// exchanges serialize, each observing the other's writes atomically at
/// exchange granularity. Stripe count is capped at 64 so the touched-set
/// is one uint64_t bitmask on the stack — the steady-state exchange path
/// performs ZERO heap allocations beyond the (pooled, usually recycled)
/// reply slab, preserving the PR 4 property through the shared engine.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "storage/backend.h"
#include "storage/block.h"
#include "storage/block_buffer.h"
#include "storage/persist/persist.h"
#include "util/statusor.h"

namespace dpstore {

namespace persist {
class Journal;
}  // namespace persist

/// Identifies one named arena inside a StorageEngine. Id 0 is reserved
/// for "mint a fresh private namespace".
using NamespaceId = uint64_t;

/// The id space is partitioned so client-chosen shared ids can NEVER
/// collide with (or name) a server-minted private namespace: shared ids
/// live in [1, kPrivateNamespaceBase), private ids are minted downward
/// from 2^64-1 inside [kPrivateNamespaceBase, 2^64). Attach rejects a
/// kAttachOrCreate id in the private half — otherwise a client counting
/// down from the top could pre-create or attach to another tenant's
/// private arena.
inline constexpr NamespaceId kPrivateNamespaceBase = NamespaceId{1} << 63;

/// How Attach resolves a NamespaceId (the wire Open frame's mode field).
enum class AttachMode : uint8_t {
  /// Ignore the requested id; mint a fresh private namespace that is
  /// destroyed when its last handle detaches. The PR 5 per-connection
  /// arena semantics, now as a special case.
  kPrivate = 0,
  /// Attach to the namespace with this id if it exists (geometry must
  /// match), else create it. Shared namespaces outlive their handles:
  /// a client reconnecting finds its blocks still there. Ids must lie in
  /// [1, kPrivateNamespaceBase) — the private half is never attachable.
  kAttachOrCreate = 1,
};

class StorageEngine;

/// Borrowed reference to one attached namespace: the stable handle a
/// connection or backend caches so the exchange hot path never takes the
/// engine-wide map lock. Obtained from StorageEngine::Attach, returned
/// via StorageEngine::Detach (which the handle's destructor does).
class NamespaceHandle {
 public:
  NamespaceHandle() = default;
  ~NamespaceHandle();
  NamespaceHandle(NamespaceHandle&& other) noexcept;
  NamespaceHandle& operator=(NamespaceHandle&& other) noexcept;
  NamespaceHandle(const NamespaceHandle&) = delete;
  NamespaceHandle& operator=(const NamespaceHandle&) = delete;

  bool valid() const { return state_ != nullptr; }
  NamespaceId id() const;
  uint64_t n() const;
  size_t block_size() const;

  /// Opaque namespace record (arena + stripe locks), defined in
  /// engine.cc. Public so the engine's file-local helpers can name it;
  /// nothing outside engine.cc can do anything with the pointer.
  struct State;

 private:
  friend class StorageEngine;
  NamespaceHandle(std::shared_ptr<StorageEngine> engine, State* state)
      : engine_(std::move(engine)), state_(state) {}

  std::shared_ptr<StorageEngine> engine_;
  State* state_ = nullptr;
};

/// Engine construction knobs.
struct StorageEngineOptions {
  /// Upper bound on the `tid` values callers will pass (the PetPS
  /// `num_threads` contract): sizes the per-thread counter array so hot
  /// counters never share a cache line across workers. Out-of-range tids
  /// are folded in, so a wrong hint is a perf bug, not a correctness bug.
  size_t num_threads = 8;
  /// Stripes per namespace arena (clamped to [1, 64]). More stripes =
  /// more write parallelism on disjoint ranges; 1 = a single big lock.
  size_t lock_stripes = 16;
  /// Durability (src/storage/persist/). An empty data_dir keeps the
  /// classic all-heap engine; a non-empty one makes every SHARED
  /// namespace an mmap-backed arena whose mutations are write-ahead
  /// journaled, recoverable bit-identically after SIGKILL via Open().
  /// Private namespaces always stay on the heap (persist.h explains why).
  persist::PersistOptions persist;
};

/// Point-in-time accounting snapshot (Counters()).
struct StorageEngineCounters {
  uint64_t namespaces = 0;        ///< live namespaces right now
  uint64_t attached_handles = 0;  ///< live NamespaceHandles right now
  uint64_t namespaces_created = 0;
  uint64_t exchanges = 0;         ///< ExecuteBatch calls that succeeded
  uint64_t blocks_moved = 0;      ///< blocks copied in/out of arenas
  persist::PersistCounters persist;  ///< durability accounting (all zero
                                     ///< for an in-memory engine)
};

/// The shared multi-tenant block store. Thread-safe throughout; see the
/// file comment for the locking model. Always held by shared_ptr so
/// handles can keep it alive (std::enable_shared_from_this).
class StorageEngine : public std::enable_shared_from_this<StorageEngine> {
 public:
  /// In-memory construction; CHECK-fails if options ask for persistence
  /// and recovery fails (use Open to observe recovery errors as Status).
  static std::shared_ptr<StorageEngine> Create(
      StorageEngineOptions options = {});

  /// Full construction path: when options.persist.data_dir is set, maps
  /// every ns_*.arena file found there, replays the journal over them
  /// (DataLoss for any corruption that cannot be a torn tail), and
  /// checkpoints — so a successful Open always starts from a durable,
  /// empty-journal state whose arenas are bit-identical to the last
  /// synced pre-crash state.
  static StatusOr<std::shared_ptr<StorageEngine>> Open(
      StorageEngineOptions options = {});

  ~StorageEngine();

  /// Attaches to (or creates) a namespace of `n` blocks of `block_size`
  /// bytes. kPrivate mints a fresh id; kAttachOrCreate attaches to `id`
  /// when it exists — rejecting a geometry mismatch with
  /// FailedPrecondition, and an id outside [1, kPrivateNamespaceBase)
  /// with InvalidArgument — and creates it otherwise.
  /// \param id          requested namespace id (ignored for kPrivate)
  /// \param n           block count; must be > 0-safe (0 allowed, empty)
  /// \param block_size  bytes per block
  /// \param mode        see AttachMode
  /// \return a handle the caller keeps for the namespace's lifetime
  StatusOr<NamespaceHandle> Attach(NamespaceId id, uint64_t n,
                                   size_t block_size, AttachMode mode);

  /// Runs one validated exchange against the handle's arena, locking only
  /// the stripes it touches. Thread-safe against any concurrent calls on
  /// any handle. Zero steady-state heap allocations (the reply slab
  /// recycles through the engine's BufferPool).
  /// \param tid      calling worker's thread id in [0, num_threads)
  /// \param ns       an attached namespace handle
  /// \param request  the exchange (not consumed; payload read in place)
  /// \return downloaded blocks in request order, or InvalidArgument /
  ///         OutOfRange exactly as ValidateRequest decides
  StatusOr<StorageReply> ExecuteBatch(unsigned tid, const NamespaceHandle& ns,
                                      const StorageRequest& request);

  /// Whole-arena replacement (setup phase; see StorageBackend::SetArray)
  /// from the flat image `array`: n blocks of the namespace's block size,
  /// copied into the contiguous arena in one pass. On a persistent
  /// namespace the image is journaled first, straight from `array`.
  Status SetArray(const NamespaceHandle& ns, const BlockBuffer& array);

  /// Unrecorded single-block read (test assertions / public-database
  /// knowledge). OutOfRange when index >= n.
  StatusOr<Block> Peek(const NamespaceHandle& ns, BlockId index) const;

  /// Flips one byte of a stored block (tamper-detection tests).
  Status Corrupt(const NamespaceHandle& ns, BlockId index);

  size_t num_threads() const { return num_threads_; }
  StorageEngineCounters Counters() const;

  /// Checkpoints every persistent arena through the journal's last LSN
  /// and truncates the journal. REQUIRES quiescence: no exchange may be
  /// in flight (the server calls this at drain; tests at known barriers).
  /// No-op for an in-memory engine.
  Status Checkpoint();

  /// Makes every journal record appended so far fdatasync-durable (group
  /// commit). The server's worker pool calls this once per fused upload
  /// batch — with persist.sync_uploads=false on the engine, that is the
  /// "batch of fused uploads costs one fdatasync" seam; replies must not
  /// be written to sockets before it returns. No-op when not persistent.
  Status SyncJournal();

 private:
  friend class NamespaceHandle;
  friend class EngineBackend;
  explicit StorageEngine(StorageEngineOptions options);

  NamespaceHandle::State* FindLocked(NamespaceId id) const;
  void Detach(NamespaceHandle::State* state);

  /// Open()'s persistence arm: maps arenas, replays the journal,
  /// checkpoints. Runs single-threaded before the engine is published.
  Status Recover();

  /// ExecuteBatch minus the ValidateRequest pass, for callers that have
  /// already validated `request` against this exact geometry (EngineBackend
  /// must validate BEFORE rolling its fault injector; re-validating here
  /// would double the O(indices) scan on the hot path).
  StatusOr<StorageReply> ExecuteValidated(unsigned tid,
                                          const NamespaceHandle& ns,
                                          const StorageRequest& request);

  const size_t num_threads_;
  const size_t lock_stripes_;
  const persist::PersistOptions persist_;
  std::shared_ptr<BufferPool> pool_;
  /// Present iff persist_.data_dir is non-empty. The journal is engine-
  /// wide (one LSN sequence across namespaces); arenas live per-State.
  std::unique_ptr<persist::Journal> journal_;

  mutable std::shared_mutex namespaces_mu_;
  std::unordered_map<NamespaceId,
                     std::unique_ptr<NamespaceHandle::State>> namespaces_;
  NamespaceId next_private_id_;
  uint64_t namespaces_created_ = 0;
  uint64_t attached_handles_ = 0;
  uint64_t checkpoints_ = 0;            // guarded by namespaces_mu_
  uint64_t recovered_namespaces_ = 0;   // set once during Open
  /// Journal LSN the last Checkpoint() covered, so back-to-back
  /// checkpoints (Drain then destructor) after no new writes are free.
  /// Guarded by namespaces_mu_.
  uint64_t last_checkpoint_lsn_ = 0;

  /// Per-tid hot counters, padded to a cache line each so concurrent
  /// workers never false-share (the reason ExecuteBatch wants a tid).
  struct alignas(64) TidCounters {
    std::atomic<uint64_t> exchanges{0};
    std::atomic<uint64_t> blocks_moved{0};
  };
  std::vector<TidCounters> tid_counters_;
};

/// Per-client StorageBackend handle onto a shared StorageEngine
/// namespace: the client-side adapter that owns the adversarial view
/// (Transcript) and failure model (FaultInjector) the engine deliberately
/// does not. N EngineBackends over one namespace = N tenants of one
/// arena, each with its own bit-identical-to-memory transcript.
///
/// Thread safety: like every StorageBackend, ONE client thread per
/// backend; concurrency comes from many backends sharing the engine.
class EngineBackend : public StorageBackend {
 public:
  /// Attaches to `engine` per (id, mode). CHECK-fails on attach errors
  /// (geometry mismatch) — use StorageEngine::Attach directly to observe
  /// them as Status.
  EngineBackend(std::shared_ptr<StorageEngine> engine, uint64_t n,
                size_t block_size, NamespaceId id = 0,
                AttachMode mode = AttachMode::kPrivate, unsigned tid = 0);

  uint64_t n() const override { return n_; }
  size_t block_size() const override { return block_size_; }
  NamespaceId namespace_id() const { return ns_.id(); }

  Status SetArray(std::vector<Block> blocks) override;
  Block PeekBlock(BlockId index) const override;
  void CorruptBlock(BlockId index) override;

  void BeginQuery() override { transcript_.BeginQuery(); }
  const Transcript& transcript() const override { return transcript_; }
  void ResetTranscript() override { transcript_.Clear(); }
  void SetTranscriptCountingOnly(bool counting_only) override {
    transcript_.SetCountingOnly(counting_only);
  }
  void SetFailureRate(double rate, uint64_t seed = 7) override;

 protected:
  StatusOr<StorageReply> Execute(StorageRequest request) override;

 private:
  std::shared_ptr<StorageEngine> engine_;
  NamespaceHandle ns_;
  uint64_t n_;
  size_t block_size_;
  unsigned tid_;
  Transcript transcript_;
  FaultInjector faults_;
};

}  // namespace dpstore

#endif  // DPSTORE_STORAGE_ENGINE_H_
