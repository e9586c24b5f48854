#include "storage/engine.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "crypto/dpf.h"
#include "storage/kernels.h"
#include "storage/persist/journal.h"
#include "storage/persist/mmap_arena.h"
#include "util/check.h"

namespace dpstore {

/// One namespace: a flat arena plus its stripe locks. Stored behind a
/// unique_ptr in the engine map so the address is stable for the life of
/// the namespace — handles cache it and the hot path never touches the
/// map.
struct NamespaceHandle::State {
  State(NamespaceId id_in, uint64_t n_in, size_t block_size_in,
        size_t stripes, bool private_in,
        std::unique_ptr<persist::MmapArena> marena_in = nullptr)
      : id(id_in),
        n(n_in),
        block_size(block_size_in),
        is_private(private_in),
        marena(std::move(marena_in)),
        arena(marena ? 0 : n_in * block_size_in, 0),
        base(marena ? marena->data() : arena.data()),
        stripe_count(std::max<size_t>(1, std::min({stripes, size_t{64},
                                                   size_t(n_in ? n_in : 1)}))),
        stripe_width((n_in + stripe_count - 1) / std::max<uint64_t>(
                         1, stripe_count)),
        locks(stripe_count) {}

  /// Stripe holding block `index`: contiguous ranges of `stripe_width`
  /// blocks, so run-coalesced copies cross as few locks as possible.
  size_t StripeOf(BlockId index) const {
    return stripe_width == 0 ? 0 : std::min(stripe_count - 1,
                                            size_t(index / stripe_width));
  }

  const uint8_t* Slot(BlockId index) const {
    return base + index * block_size;
  }
  uint8_t* Slot(BlockId index) { return base + index * block_size; }

  const NamespaceId id;
  const uint64_t n;
  const size_t block_size;
  const bool is_private;
  /// Non-null for a persistent (shared, engine-has-data-dir) namespace:
  /// `base` then aliases the MAP_PRIVATE working copy and the heap vector
  /// stays empty. The member order matters — base is computed from both.
  std::unique_ptr<persist::MmapArena> marena;
  std::vector<uint8_t> arena;  // n * block_size bytes, block i at i*bs
  uint8_t* const base;         // the live arena bytes, whichever backing
  const size_t stripe_count;
  const uint64_t stripe_width;
  /// Stripe i guards blocks [i*stripe_width, (i+1)*stripe_width). Mutable
  /// so Peek (logically const) can lock its stripe.
  mutable std::vector<std::mutex> locks;
  uint64_t handles = 0;  // guarded by the engine's namespaces_mu_
};

namespace {

/// RAII over the stripes an exchange touches: locks ascending (the
/// deadlock-freedom order shared by every exchange), unlocks descending.
/// The touched-set is a 64-bit mask — stack only, no allocation.
class StripeLockSet {
 public:
  StripeLockSet(NamespaceHandle::State* ns, uint64_t mask)
      : ns_(ns), mask_(mask) {
    for (size_t s = 0; s < ns_->stripe_count; ++s) {
      if (mask_ & (uint64_t{1} << s)) ns_->locks[s].lock();
    }
  }
  ~StripeLockSet() {
    for (size_t s = ns_->stripe_count; s-- > 0;) {
      if (mask_ & (uint64_t{1} << s)) ns_->locks[s].unlock();
    }
  }
  StripeLockSet(const StripeLockSet&) = delete;
  StripeLockSet& operator=(const StripeLockSet&) = delete;

 private:
  NamespaceHandle::State* ns_;
  uint64_t mask_;
};

uint64_t StripeMaskOf(const NamespaceHandle::State& ns,
                      const std::vector<BlockId>& indices) {
  uint64_t mask = 0;
  for (BlockId index : indices) {
    mask |= uint64_t{1} << ns.StripeOf(index);
  }
  return mask;
}

uint64_t AllStripesMask(const NamespaceHandle::State& ns) {
  return ns.stripe_count >= 64 ? ~uint64_t{0}
                               : (uint64_t{1} << ns.stripe_count) - 1;
}

/// Batches the run-coalesced copies of one exchange through the dispatched
/// CopyRuns kernel without allocating: runs accumulate in a stack array
/// and flush in groups.
class RunBatch {
 public:
  void Add(uint8_t* dst, const uint8_t* src, size_t len) {
    if (len == 0) return;
    runs_[count_++] = kernels::CopyRun{dst, src, len};
    if (count_ == runs_.size()) Flush();
  }
  void Flush() {
    if (count_ > 0) kernels::CopyRuns(runs_.data(), count_);
    count_ = 0;
  }

 private:
  std::array<kernels::CopyRun, 64> runs_;
  size_t count_ = 0;
};

}  // namespace

// --- NamespaceHandle ---------------------------------------------------------

NamespaceHandle::~NamespaceHandle() {
  if (engine_ != nullptr && state_ != nullptr) engine_->Detach(state_);
}

NamespaceHandle::NamespaceHandle(NamespaceHandle&& other) noexcept
    : engine_(std::move(other.engine_)), state_(other.state_) {
  other.state_ = nullptr;
}

NamespaceHandle& NamespaceHandle::operator=(NamespaceHandle&& other) noexcept {
  if (this != &other) {
    if (engine_ != nullptr && state_ != nullptr) engine_->Detach(state_);
    engine_ = std::move(other.engine_);
    state_ = other.state_;
    other.state_ = nullptr;
  }
  return *this;
}

NamespaceId NamespaceHandle::id() const {
  DPSTORE_CHECK(state_ != nullptr);
  return state_->id;
}

uint64_t NamespaceHandle::n() const {
  DPSTORE_CHECK(state_ != nullptr);
  return state_->n;
}

size_t NamespaceHandle::block_size() const {
  DPSTORE_CHECK(state_ != nullptr);
  return state_->block_size;
}

// --- StorageEngine -----------------------------------------------------------

std::shared_ptr<StorageEngine> StorageEngine::Create(
    StorageEngineOptions options) {
  StatusOr<std::shared_ptr<StorageEngine>> engine = Open(std::move(options));
  DPSTORE_CHECK_OK(engine.status());
  return std::move(*engine);
}

StatusOr<std::shared_ptr<StorageEngine>> StorageEngine::Open(
    StorageEngineOptions options) {
  // make_shared cannot reach the private constructor; the extra
  // allocation here is once per engine, not per exchange.
  auto engine = std::shared_ptr<StorageEngine>(new StorageEngine(options));
  if (!engine->persist_.data_dir.empty()) {
    DPSTORE_RETURN_IF_ERROR(engine->Recover());
  }
  return engine;
}

StorageEngine::StorageEngine(StorageEngineOptions options)
    : num_threads_(std::max<size_t>(1, options.num_threads)),
      lock_stripes_(std::max<size_t>(1, std::min<size_t>(64,
                                                         options.lock_stripes))),
      persist_(options.persist),
      pool_(std::make_shared<BufferPool>(/*max_free=*/4 * num_threads_)),
      // Private ids grow downward from the top of the id space so they
      // can never collide with client-chosen shared ids.
      next_private_id_(~NamespaceId{0}),
      tid_counters_(num_threads_) {}

StorageEngine::~StorageEngine() {
  if (journal_ != nullptr && persist_.checkpoint_on_close) {
    // Best-effort: success leaves an empty journal for an instant next
    // Open; failure just means that Open replays the journal instead.
    (void)Checkpoint();
  }
}

Status StorageEngine::Recover() {
  const std::string& dir = persist_.data_dir;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return InternalError("mkdir failed for " + dir + ": " +
                         std::strerror(errno));
  }

  // Map every arena file present. Arena files exist only for shared
  // namespaces, and are fsync'd (file and directory) before any journal
  // record can reference them — so an id the journal mentions but the
  // directory lacks is DataLoss, not a race.
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return InternalError("opendir failed for " + dir + ": " +
                         std::strerror(errno));
  }
  while (struct dirent* e = ::readdir(d)) {
    const size_t len = std::strlen(e->d_name);
    if (len > 9 && std::memcmp(e->d_name, "ns_", 3) == 0 &&
        std::memcmp(e->d_name + len - 6, ".arena", 6) == 0) {
      names.emplace_back(e->d_name);
    }
  }
  ::closedir(d);

  uint64_t max_durable_lsn = 0;
  for (const std::string& name : names) {
    DPSTORE_ASSIGN_OR_RETURN(std::unique_ptr<persist::MmapArena> arena,
                             persist::MmapArena::Open(dir + "/" + name));
    const NamespaceId id = arena->namespace_id();
    if (id == 0 || id >= kPrivateNamespaceBase) {
      return DataLossError("arena file " + name +
                           " claims non-shared namespace id " +
                           std::to_string(id));
    }
    if (FindLocked(id) != nullptr) {
      return DataLossError("duplicate arena file for namespace " +
                           std::to_string(id));
    }
    max_durable_lsn = std::max(max_durable_lsn, arena->durable_lsn());
    auto owned = std::make_unique<NamespaceHandle::State>(
        id, arena->n(), arena->block_size(), lock_stripes_,
        /*private_in=*/false, std::move(arena));
    DPSTORE_CHECK(namespaces_.emplace(id, std::move(owned)).second);
    ++namespaces_created_;
    ++recovered_namespaces_;
  }

  // Replay. Each record re-executes its mutation against the mapped
  // arena, skipping LSNs the arena already checkpointed (replay after a
  // torn checkpoint is idempotent because every skipped record's effect
  // is already in the durable image).
  auto apply = [this](const persist::JournalRecordView& r) -> Status {
    NamespaceHandle::State* state = FindLocked(r.namespace_id);
    if (state == nullptr || state->marena == nullptr) {
      return DataLossError("journal references unknown namespace " +
                           std::to_string(r.namespace_id));
    }
    if (r.lsn <= state->marena->durable_lsn()) return OkStatus();
    if (r.block_size != state->block_size) {
      return DataLossError("journal record lsn " + std::to_string(r.lsn) +
                           " block_size " + std::to_string(r.block_size) +
                           " != namespace block_size " +
                           std::to_string(state->block_size));
    }
    switch (r.op) {
      case persist::JournalOp::kUpload:
        for (uint64_t i = 0; i < r.count; ++i) {
          const uint64_t index = r.index(i);
          if (index >= state->n) {
            return DataLossError("journal upload index " +
                                 std::to_string(index) + " out of range");
          }
          std::memcpy(state->Slot(index), r.payload + i * state->block_size,
                      state->block_size);
        }
        break;
      case persist::JournalOp::kSetArray:
        if (r.count != state->n) {
          return DataLossError("journal set_array count " +
                               std::to_string(r.count) + " != n " +
                               std::to_string(state->n));
        }
        std::memcpy(state->base, r.payload, r.count * state->block_size);
        break;
      case persist::JournalOp::kCorrupt: {
        const uint64_t index = r.index(0);
        if (index >= state->n) {
          return DataLossError("journal corrupt index " +
                               std::to_string(index) + " out of range");
        }
        *state->Slot(index) ^= 0xFF;
        break;
      }
    }
    return OkStatus();
  };
  DPSTORE_ASSIGN_OR_RETURN(
      journal_,
      persist::Journal::Open(dir, persist_, max_durable_lsn + 1, apply));

  // Land the replayed state: every Open returns with durable arenas and
  // an empty journal, so recovery time is paid once, not compounded.
  return Checkpoint();
}

Status StorageEngine::Checkpoint() {
  if (journal_ == nullptr) return OkStatus();
  std::unique_lock<std::shared_mutex> lock(namespaces_mu_);
  const uint64_t lsn = journal_->last_lsn();
  if (checkpoints_ > 0 && lsn == last_checkpoint_lsn_) return OkStatus();
  // Order of record: journal durable first, then arena images, then the
  // durable-LSN bumps (inside MmapArena::Checkpoint). A crash between any
  // two steps replays from the old LSN and rewrites everything the torn
  // image could contain.
  DPSTORE_RETURN_IF_ERROR(journal_->Sync(lsn));
  for (auto& entry : namespaces_) {
    NamespaceHandle::State* state = entry.second.get();
    if (state->marena == nullptr) continue;
    StripeLockSet held(state, AllStripesMask(*state));
    DPSTORE_RETURN_IF_ERROR(state->marena->Checkpoint(lsn));
  }
  DPSTORE_RETURN_IF_ERROR(journal_->Truncate());
  ++checkpoints_;
  last_checkpoint_lsn_ = lsn;
  return OkStatus();
}

Status StorageEngine::SyncJournal() {
  if (journal_ == nullptr) return OkStatus();
  return journal_->Sync(journal_->last_lsn());
}

NamespaceHandle::State* StorageEngine::FindLocked(NamespaceId id) const {
  auto it = namespaces_.find(id);
  return it == namespaces_.end() ? nullptr : it->second.get();
}

StatusOr<NamespaceHandle> StorageEngine::Attach(NamespaceId id, uint64_t n,
                                                size_t block_size,
                                                AttachMode mode) {
  std::unique_lock<std::shared_mutex> lock(namespaces_mu_);
  NamespaceHandle::State* state = nullptr;
  if (mode == AttachMode::kPrivate) {
    const NamespaceId fresh = next_private_id_--;
    // The mint stays inside the reserved upper half of the id space
    // (2^63 private namespaces before exhaustion), so it cannot collide
    // with a shared id; the emplace check turns any latent counter bug
    // into a crash instead of a dangling State pointer.
    DPSTORE_CHECK(fresh >= kPrivateNamespaceBase);
    auto owned = std::make_unique<NamespaceHandle::State>(
        fresh, n, block_size, lock_stripes_, /*private_in=*/true);
    state = owned.get();
    DPSTORE_CHECK(namespaces_.emplace(fresh, std::move(owned)).second);
    ++namespaces_created_;
  } else {
    if (id == 0) {
      return InvalidArgumentError(
          "engine: shared namespace id 0 is reserved for private mode");
    }
    if (id >= kPrivateNamespaceBase) {
      return InvalidArgumentError(
          "engine: shared namespace id " + std::to_string(id) +
          " is in the range reserved for private namespaces");
    }
    state = FindLocked(id);
    if (state != nullptr) {
      if (state->is_private) {
        // Unreachable while the id partition holds (private ids never
        // pass the range check above); kept so a shared attach can never
        // reach another tenant's private arena even if minting changes.
        return FailedPreconditionError(
            "engine: namespace " + std::to_string(id) + " is private");
      }
      if (state->n != n || state->block_size != block_size) {
        return FailedPreconditionError(
            "engine: namespace " + std::to_string(id) +
            " exists with different geometry (n=" + std::to_string(state->n) +
            ", block_size=" + std::to_string(state->block_size) + ")");
      }
    } else {
      std::unique_ptr<persist::MmapArena> marena;
      if (journal_ != nullptr) {
        // Durable birth certificate before any journal record can name
        // this id: MmapArena::Create fsyncs the file and the directory.
        // Its durable LSN starts at the journal's current tip — no
        // earlier record can reference an id that did not exist yet.
        DPSTORE_ASSIGN_OR_RETURN(
            marena, persist::MmapArena::Create(persist_.data_dir, id, n,
                                               block_size,
                                               journal_->last_lsn()));
      }
      auto owned = std::make_unique<NamespaceHandle::State>(
          id, n, block_size, lock_stripes_, /*private_in=*/false,
          std::move(marena));
      state = owned.get();
      DPSTORE_CHECK(namespaces_.emplace(id, std::move(owned)).second);
      ++namespaces_created_;
    }
  }
  ++state->handles;
  ++attached_handles_;
  return NamespaceHandle(shared_from_this(), state);
}

void StorageEngine::Detach(NamespaceHandle::State* state) {
  std::unique_lock<std::shared_mutex> lock(namespaces_mu_);
  --attached_handles_;
  if (--state->handles == 0 && state->is_private) {
    // Private arenas die with their last handle (the PR 5 semantics);
    // shared ones persist for the next Attach.
    namespaces_.erase(state->id);
  }
}

StatusOr<StorageReply> StorageEngine::ExecuteBatch(
    unsigned tid, const NamespaceHandle& ns, const StorageRequest& request) {
  DPSTORE_CHECK(ns.valid());
  DPSTORE_RETURN_IF_ERROR(
      ValidateRequest(request, ns.state_->n, ns.state_->block_size));
  return ExecuteValidated(tid, ns, request);
}

StatusOr<StorageReply> StorageEngine::ExecuteValidated(
    unsigned tid, const NamespaceHandle& ns, const StorageRequest& request) {
  DPSTORE_CHECK(ns.valid());
  NamespaceHandle::State* state = ns.state_;
  const std::vector<BlockId>& indices = request.indices;
  const size_t count = indices.size();
  const size_t block_size = state->block_size;
  StorageReply reply;
  if (request.op == StorageRequest::Op::kDpfEval) {
    // Parse and bound-check the key before touching the arena: the bytes
    // may have crossed the wire from an untrusted client.
    const BlockView key_bytes = request.payload[0];
    StatusOr<crypto::DpfKey> key =
        crypto::DpfKey::Parse(key_bytes.data(), key_bytes.size());
    DPSTORE_RETURN_IF_ERROR(key.status());
    const uint64_t domain = uint64_t{1} << key->depth;
    if (request.dpf_offset >= domain || domain - request.dpf_offset < state->n) {
      return InvalidArgumentError(
          "dpf eval: key domain 2^" + std::to_string(key->depth) +
          " does not cover offset " + std::to_string(request.dpf_offset) +
          " + n=" + std::to_string(state->n));
    }
    // One fused pass under all stripes (the eval must see a consistent
    // snapshot, like SetArray): the range evaluator expands only this
    // arena's slice of the domain, a chunk of leaves at a time, and each
    // chunk's bits gate the scan of its blocks while they are in L1. No
    // selection vector is materialized.
    reply.blocks = BlockBuffer::FromPool(pool_, 1, block_size);
    MutableBlockView out = reply.blocks.Mutable(0);
    std::memset(out.data(), 0, out.size());
    if (state->n > 0 && block_size > 0) {
      crypto::DpfRangeEvaluator eval(*key, request.dpf_offset, state->n);
      StripeLockSet held(state, AllStripesMask(*state));
      const uint8_t* blocks = state->base;
      for (crypto::DpfRangeEvaluator::Chunk chunk; eval.Next(&chunk);) {
        kernels::SelectXorScan(out.data(), blocks, chunk.count, block_size,
                               chunk.bits, chunk.bit_offset);
        blocks += chunk.count * block_size;
      }
    }
    TidCounters& counters =
        tid_counters_[tid < num_threads_ ? tid : tid % num_threads_];
    counters.exchanges.fetch_add(1, std::memory_order_relaxed);
    counters.blocks_moved.fetch_add(1, std::memory_order_relaxed);
    return reply;
  }
  if (request.op == StorageRequest::Op::kDownload) {
    // Acquire the (pooled) reply slab BEFORE taking any stripe lock: a
    // cold allocation must not extend the critical section.
    reply.blocks = BlockBuffer::FromPool(pool_, count, block_size);
    uint8_t* out =
        reply.blocks.empty() ? nullptr : reply.blocks.Mutable(0).data();
    StripeLockSet held(state, StripeMaskOf(*state, indices));
    // Runs of consecutive addresses collapse into single copies through
    // the dispatched CopyRuns kernel: a scan exchange (trivial PIR,
    // linear ORAM) is ONE copy of the arena.
    RunBatch batch;
    for (size_t i = 0; i < count;) {
      size_t run = 1;
      while (i + run < count && indices[i + run] == indices[i] + run) ++run;
      batch.Add(out + i * block_size, state->Slot(indices[i]),
                run * block_size);
      i += run;
    }
    batch.Flush();
  } else {
    const uint8_t* in =
        request.payload.empty() ? nullptr : request.payload[0].data();
    uint64_t lsn = 0;
    {
      StripeLockSet held(state, StripeMaskOf(*state, indices));
      if (journal_ != nullptr && !state->is_private && count > 0) {
        // Write-ahead, inside the stripe locks: for any two conflicting
        // uploads the journal order equals the apply order, and an append
        // failure leaves memory untouched (the exchange just errors).
        DPSTORE_ASSIGN_OR_RETURN(
            lsn, journal_->Append(state->id, persist::JournalOp::kUpload,
                                  static_cast<uint32_t>(block_size), count,
                                  indices.data(), in, count * block_size));
      }
      RunBatch batch;
      for (size_t i = 0; i < count;) {
        size_t run = 1;
        while (i + run < count && indices[i + run] == indices[i] + run) ++run;
        batch.Add(state->Slot(indices[i]), in + i * block_size,
                  run * block_size);
        i += run;
      }
      batch.Flush();
    }
    // Durability ack outside the locks: group commit means concurrent
    // uploads (and the server's fused batches) share one fdatasync.
    if (lsn != 0 && persist_.sync_uploads) {
      DPSTORE_RETURN_IF_ERROR(journal_->Sync(lsn));
    }
  }
  TidCounters& counters =
      tid_counters_[tid < num_threads_ ? tid : tid % num_threads_];
  counters.exchanges.fetch_add(1, std::memory_order_relaxed);
  counters.blocks_moved.fetch_add(count, std::memory_order_relaxed);
  return reply;
}

Status StorageEngine::SetArray(const NamespaceHandle& ns,
                               const BlockBuffer& array) {
  DPSTORE_CHECK(ns.valid());
  NamespaceHandle::State* state = ns.state_;
  if (array.size() != state->n) {
    return InvalidArgumentError("SetArray: wrong block count");
  }
  if (!array.empty() &&
      (array.ragged() || array.block_size() != state->block_size)) {
    return InvalidArgumentError("SetArray: block size mismatch");
  }
  const size_t bytes = state->n * state->block_size;
  uint64_t lsn = 0;
  {
    StripeLockSet held(state, AllStripesMask(*state));
    if (journal_ != nullptr && !state->is_private && bytes > 0) {
      // Write-ahead, like uploads: the image is journaled from the
      // caller's flat buffer before the arena changes, so an append
      // failure (e.g. a record past the cap) leaves memory untouched.
      DPSTORE_ASSIGN_OR_RETURN(
          lsn, journal_->Append(state->id, persist::JournalOp::kSetArray,
                                static_cast<uint32_t>(state->block_size),
                                state->n, nullptr, array.AllBytes().data(),
                                bytes));
    }
    CopyBytes(state->base, array.AllBytes().data(), bytes);
  }
  if (lsn != 0 && persist_.sync_uploads) {
    DPSTORE_RETURN_IF_ERROR(journal_->Sync(lsn));
  }
  return OkStatus();
}

StatusOr<Block> StorageEngine::Peek(const NamespaceHandle& ns,
                                    BlockId index) const {
  DPSTORE_CHECK(ns.valid());
  NamespaceHandle::State* state = ns.state_;
  if (index >= state->n) {
    return OutOfRangeError("peek: index out of range");
  }
  std::lock_guard<std::mutex> held(state->locks[state->StripeOf(index)]);
  return Block(state->Slot(index), state->Slot(index) + state->block_size);
}

Status StorageEngine::Corrupt(const NamespaceHandle& ns, BlockId index) {
  DPSTORE_CHECK(ns.valid());
  NamespaceHandle::State* state = ns.state_;
  if (index >= state->n) {
    return OutOfRangeError("corrupt: index out of range");
  }
  if (state->block_size == 0) {
    return InvalidArgumentError("corrupt: zero-sized blocks");
  }
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> held(state->locks[state->StripeOf(index)]);
    if (journal_ != nullptr && !state->is_private) {
      const uint64_t journal_index = index;
      DPSTORE_ASSIGN_OR_RETURN(
          lsn, journal_->Append(state->id, persist::JournalOp::kCorrupt,
                                static_cast<uint32_t>(state->block_size), 1,
                                &journal_index, nullptr, 0));
    }
    *state->Slot(index) ^= 0xFF;
  }
  if (lsn != 0 && persist_.sync_uploads) {
    DPSTORE_RETURN_IF_ERROR(journal_->Sync(lsn));
  }
  return OkStatus();
}

StorageEngineCounters StorageEngine::Counters() const {
  StorageEngineCounters counters;
  {
    std::shared_lock<std::shared_mutex> lock(namespaces_mu_);
    counters.namespaces = namespaces_.size();
    counters.attached_handles = attached_handles_;
    counters.namespaces_created = namespaces_created_;
    counters.persist.checkpoints = checkpoints_;
    counters.persist.recovered_namespaces = recovered_namespaces_;
  }
  if (journal_ != nullptr) {
    const persist::PersistCounters j = journal_->SnapshotCounters();
    counters.persist.journal_appends = j.journal_appends;
    counters.persist.journal_bytes = j.journal_bytes;
    counters.persist.fsyncs = j.fsyncs;
    counters.persist.group_commit_riders = j.group_commit_riders;
    counters.persist.segments_rotated = j.segments_rotated;
    counters.persist.recovered_records = j.recovered_records;
  }
  for (const TidCounters& tid : tid_counters_) {
    counters.exchanges += tid.exchanges.load(std::memory_order_relaxed);
    counters.blocks_moved += tid.blocks_moved.load(std::memory_order_relaxed);
  }
  return counters;
}

// --- EngineBackend -----------------------------------------------------------

EngineBackend::EngineBackend(std::shared_ptr<StorageEngine> engine,
                             uint64_t n, size_t block_size, NamespaceId id,
                             AttachMode mode, unsigned tid)
    : engine_(std::move(engine)), n_(n), block_size_(block_size), tid_(tid) {
  StatusOr<NamespaceHandle> attached =
      engine_->Attach(id, n, block_size, mode);
  DPSTORE_CHECK_OK(attached.status());
  ns_ = std::move(*attached);
}

Status EngineBackend::SetArray(std::vector<Block> blocks) {
  return engine_->SetArray(ns_, BlockBuffer::Pack(blocks));
}

Block EngineBackend::PeekBlock(BlockId index) const {
  StatusOr<Block> block = engine_->Peek(ns_, index);
  DPSTORE_CHECK_OK(block.status());
  return std::move(*block);
}

void EngineBackend::CorruptBlock(BlockId index) {
  DPSTORE_CHECK_OK(engine_->Corrupt(ns_, index));
}

void EngineBackend::SetFailureRate(double rate, uint64_t seed) {
  faults_.Set(rate, seed);
}

StatusOr<StorageReply> EngineBackend::Execute(StorageRequest request) {
  // The client-side half of the exchange contract: validate, roll the
  // fault injector once, and only then touch shared storage — exactly the
  // order (and error bytes) of the PR 4 StorageServer, so transcripts and
  // failure patterns stay bit-identical through the shared engine. The
  // backend's (n_, block_size_) equal the namespace geometry it attached
  // with, so the engine's pre-validated entry point skips a second
  // identical O(indices) scan.
  DPSTORE_RETURN_IF_ERROR(ValidateRequest(request, n_, block_size_));
  DPSTORE_RETURN_IF_ERROR(faults_.MaybeInject());
  DPSTORE_ASSIGN_OR_RETURN(StorageReply reply,
                           engine_->ExecuteValidated(tid_, ns_, request));
  if (request.op == StorageRequest::Op::kDpfEval) {
    // One blocking exchange: the key up, one aggregate block down. The
    // adversary's view has no per-index events (see Transcript::RecordEval).
    transcript_.RecordRoundtrip();
    transcript_.RecordEval(request.payload.bytes());
  } else if (request.op == StorageRequest::Op::kDownload) {
    // The reply blocks, however many, travel in one message: one roundtrip.
    transcript_.RecordRoundtrip();
    transcript_.RecordMany(AccessEvent::Type::kDownload, request.indices);
  } else {
    transcript_.RecordMany(AccessEvent::Type::kUpload, request.indices);
  }
  return reply;
}

}  // namespace dpstore
