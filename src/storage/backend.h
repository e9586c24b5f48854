#ifndef DPSTORE_STORAGE_BACKEND_H_
#define DPSTORE_STORAGE_BACKEND_H_

/// \file
/// The storage transport seam: every scheme talks to untrusted storage
/// exclusively through StorageBackend, whose surface is message-shaped
/// (StorageRequest / StorageReply) and two-phase (Submit / Wait). This is
/// the first header a new contributor should read; the full layer map is
/// in docs/architecture.md and the wire encoding of these messages in
/// docs/wire-format.md.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "storage/block.h"
#include "storage/block_buffer.h"
#include "storage/transcript.h"
#include "util/random.h"
#include "util/statusor.h"

namespace dpstore {

/// Aggregate transport counters derived from one or more transcripts: the
/// paper's bandwidth axis (blocks/bytes) plus the roundtrip axis the cost
/// model prices separately. Schemes report these across *every* backend they
/// talk to (replicas, recursive position-map ORAMs, ...), so the workload
/// driver can compare constructions whose storage topology differs.
struct TransportStats {
  uint64_t blocks_moved = 0;
  uint64_t bytes_moved = 0;
  uint64_t roundtrips = 0;
  /// Opaque non-block query bytes shipped alongside the block traffic:
  /// serialized DPF keys for kDpfEval exchanges, xor_pir's selection
  /// vectors. Kept out of bytes_moved (which stays blocks x block_size, the
  /// paper's block-bandwidth axis) so the two query-compression regimes are
  /// directly comparable on one column.
  uint64_t aux_bytes = 0;
  /// MEASURED wall-clock milliseconds the transport spent completing
  /// exchanges (submit to reply-parked), summed per exchange. 0 for
  /// in-process backends, where an exchange is a function call; a real RPC
  /// transport (SocketBackend) reports its actual socket latency here, next
  /// to the modeled CostModel axes. Deliberately excluded from operator==:
  /// equality compares the adversary-visible modeled axes, which must be
  /// bit-identical across backends, while measured time never is.
  double measured_wall_ms = 0.0;
  /// Extra exchange attempts the transport made beyond the first try:
  /// RetryingBackend resubmissions plus SocketBackend reconnect attempts.
  /// Excluded from operator== for the same reason as measured_wall_ms —
  /// retries are an environmental artifact, not part of the adversary view
  /// (a retried query is freshly randomized, never a byte-identical
  /// resend).
  uint64_t retries = 0;

  TransportStats& operator+=(const TransportStats& other) {
    blocks_moved += other.blocks_moved;
    bytes_moved += other.bytes_moved;
    roundtrips += other.roundtrips;
    aux_bytes += other.aux_bytes;
    measured_wall_ms += other.measured_wall_ms;
    retries += other.retries;
    return *this;
  }
  friend TransportStats operator-(TransportStats a, const TransportStats& b) {
    a.blocks_moved -= b.blocks_moved;
    a.bytes_moved -= b.bytes_moved;
    a.roundtrips -= b.roundtrips;
    a.aux_bytes -= b.aux_bytes;
    a.measured_wall_ms -= b.measured_wall_ms;
    a.retries -= b.retries;
    return a;
  }
  friend bool operator==(const TransportStats& a, const TransportStats& b) {
    return a.blocks_moved == b.blocks_moved &&
           a.bytes_moved == b.bytes_moved && a.roundtrips == b.roundtrips &&
           a.aux_bytes == b.aux_bytes;
  }
};

/// Reads a backend transcript into TransportStats.
/// \param transcript  the adversary-view event/counter record to read
/// \param block_size  bytes per block, used to derive bytes_moved
/// \return modeled axes only; measured_wall_ms is left at 0 (callers that
///         want it use StorageBackend::Stats(), which fills it in)
TransportStats StatsFromTranscript(const Transcript& transcript,
                                   size_t block_size);

/// One storage exchange in message form: a batched download of `indices`, or
/// a batched fire-and-forget upload of `blocks[i]` to `indices[i]`. This is
/// the unit the whole transport prices: a download exchange is ONE roundtrip
/// no matter how many blocks it names; an upload exchange is a write-back
/// costing zero roundtrips. Making the exchange an explicit value (instead
/// of a blocking method call) is what lets backends defer, overlap, shard
/// and cache it — and is the wire format a future RPC transport serializes.
struct StorageRequest {
  /// kDpfEval is the one *compute* exchange: the client ships a serialized
  /// DPF key (crypto/dpf.h) instead of indices, and the server answers with
  /// a single block — the XOR of every arena block whose selection bit in
  /// the key's expanded domain is set. One roundtrip, O(lambda log n)
  /// upload, one block down: the query-compression regime xor_pir's
  /// 2n-bit selection vectors cannot reach.
  enum class Op : uint8_t { kDownload = 0, kUpload = 1, kDpfEval = 2 };

  Op op = Op::kDownload;
  /// Addresses touched, in request order. Duplicates are allowed. Empty
  /// for kDpfEval (the key addresses the whole arena).
  std::vector<BlockId> indices;
  /// Upload payloads as one flat buffer, block i aligned with indices[i].
  /// Empty for downloads. For kDpfEval: exactly one "block" whose
  /// block_size is the serialized key length. Flat (rather than
  /// vector-of-vectors) so an exchange is one allocation however many
  /// blocks it names — the transport's whole allocation-free discipline
  /// hangs off this field.
  BlockBuffer payload;
  /// kDpfEval only: where this backend's block 0 sits in the DPF domain.
  /// A sharded backend fans one eval out by bumping the offset per shard,
  /// so each shard XORs its own slice of the selection bits and the XOR of
  /// the shard answers equals the whole-arena answer.
  uint64_t dpf_offset = 0;
  /// Client-side completion budget in milliseconds, measured from Submit.
  /// 0 means no deadline. Carried client-side only (no wire framing
  /// change): a transport with real latency (SocketBackend) returns
  /// DeadlineExceeded from Wait once the budget elapses and discards the
  /// late reply when it eventually lands; in-process backends complete
  /// exchanges synchronously and never trip it.
  uint64_t deadline_ms = 0;
  /// Marks an upload safe to resubmit after an ambiguous failure (the
  /// request may already have been applied). Pure overwrites of
  /// client-owned blocks are idempotent; RetryingBackend refuses to retry
  /// uploads that do not set this, because a half-open connection cannot
  /// distinguish "never applied" from "applied, ack lost".
  bool idempotent = false;

  static StorageRequest DownloadOf(std::vector<BlockId> indices) {
    StorageRequest request;
    request.op = Op::kDownload;
    request.indices = std::move(indices);
    return request;
  }
  static StorageRequest UploadOf(std::vector<BlockId> indices,
                                 BlockBuffer payload) {
    StorageRequest request;
    request.op = Op::kUpload;
    request.indices = std::move(indices);
    request.payload = std::move(payload);
    return request;
  }
  /// Compat builder: packs owned blocks into the flat payload. Ragged
  /// block sizes survive until ValidateRequest, which rejects them exactly
  /// as the vector-of-vectors transport did.
  static StorageRequest UploadOf(std::vector<BlockId> indices,
                                 const std::vector<Block>& blocks) {
    return UploadOf(std::move(indices), BlockBuffer::Pack(blocks));
  }
  /// Builds a DPF evaluation exchange from a serialized key.
  static StorageRequest DpfEvalOf(const std::vector<uint8_t>& key_bytes,
                                  uint64_t dpf_offset = 0) {
    StorageRequest request;
    request.op = Op::kDpfEval;
    request.dpf_offset = dpf_offset;
    BlockBuffer key(key_bytes.size());
    key.Append(BlockView(key_bytes.data(), key_bytes.size()));
    request.payload = std::move(key);
    return request;
  }

  /// True for the requests that are free by contract (no RPC at all): an
  /// empty download and an empty upload.
  bool IsNoOp() const { return indices.empty() && payload.empty(); }
};

/// The server's answer to one exchange: downloaded blocks in request order
/// (empty for uploads, which carry no reply payload). One flat buffer,
/// typically recycled through the backend's BufferPool; read blocks through
/// views (`reply.blocks[i]`) and materialize owned Blocks only when a copy
/// must outlive the reply.
struct StorageReply {
  BlockBuffer blocks;
};

/// Handle for an exchange in flight between Submit and Wait.
using Ticket = uint64_t;

/// Validates an exchange against an array of `n` blocks of `block_size`
/// bytes: every index in range, upload payload count and sizes matching.
/// Shared by every backend so the whole transport rejects malformed
/// exchanges identically, before any fault roll or state change.
/// \param request     the exchange to validate (not modified)
/// \param n           array size the indices must stay below
/// \param block_size  required payload block size for uploads
/// \return OK, or InvalidArgument (payload/index count or size mismatch)
///         / OutOfRange (index >= n) with the offending value named
Status ValidateRequest(const StorageRequest& request, uint64_t n,
                       size_t block_size);

/// Shared dropped-RPC model for backend implementations: one Bernoulli roll
/// per exchange (single op or whole batch), so batched calls fail as a
/// unit. Kept in one place so every backend prices failures identically.
class FaultInjector {
 public:
  void Set(double rate, uint64_t seed) {
    failure_rate_ = rate;
    rng_ = Rng(seed);
  }

  /// Unavailable with probability failure_rate, else OK. Call exactly once
  /// per exchange, after validation and before any state changes.
  Status MaybeInject() {
    if (failure_rate_ > 0.0 && rng_.Bernoulli(failure_rate_)) {
      return UnavailableError("injected storage fault");
    }
    return OkStatus();
  }

 private:
  double failure_rate_ = 0.0;
  Rng rng_{7};
};

/// Abstract untrusted storage transport in the paper's balls-and-bins model
/// (Definition 3.1): a passive array of n equal-sized blocks exchanged with
/// the client in messages. Every scheme talks to storage exclusively through
/// this seam, so the array can live in memory (StorageServer), be
/// partitioned across shard ranges (ClusterBackend), sit behind a
/// write-back cache (WriteBackCacheBackend), or behind a real RPC
/// transport (SocketBackend), without the scheme noticing.
///
/// The transport surface is two-phase and message-shaped:
///
///   Ticket t = backend->Submit(StorageRequest::DownloadOf({3, 7, 7}));
///   ... submit more exchanges, overlap client work ...
///   StatusOr<StorageReply> reply = backend->Wait(t);
///
/// Submit never blocks on storage (an async backend puts the exchange on
/// the wire; a synchronous backend executes it eagerly and parks the
/// reply); Wait blocks until the reply is ready and surfaces any error. A
/// ticket is single-use: Wait consumes it. The classic narrow calls
/// (Download/Upload/DownloadMany/UploadMany) are thin wrappers implemented
/// once here as Submit immediately followed by Wait, so scheme hot loops can
/// migrate to explicit exchanges one at a time.
///
/// Cost accounting contract (see Transcript): each download exchange is one
/// roundtrip regardless of batch size; upload exchanges are fire-and-forget
/// write-backs costing zero roundtrips. Batching the blocks of one logical
/// access into a single exchange is therefore what turns a
/// Theta(Z log n)-message Path ORAM access into the single roundtrip the
/// schemes' RoundtripsPerAccess() contracts advertise. Exchanges are atomic:
/// on any error nothing is recorded and no storage changes. An exchange
/// naming zero blocks is free (no RPC at all).
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  // Polymorphic interface: copying through a base pointer would slice off
  // the implementation, so copy (and with it implicit move) is deleted.
  // Backends are identities, held by pointer or unique_ptr.
  StorageBackend() = default;
  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  virtual uint64_t n() const = 0;
  virtual size_t block_size() const = 0;

  /// Replaces the whole array (setup phase upload). All blocks must have
  /// size block_size(). Not recorded in the transcript: the paper treats the
  /// initial database as public input to the adversary's view. Must not be
  /// called with exchanges in flight.
  virtual Status SetArray(std::vector<Block> blocks) = 0;

  /// Starts one exchange and returns its ticket. Validation errors and
  /// injected faults are reported at Wait, so a pipelined submitter needs no
  /// error path of its own. The default implementation executes the
  /// exchange eagerly (synchronous transport) and parks the reply.
  /// \param request  the exchange, consumed (its payload moves to the wire)
  /// \return a fresh single-use ticket; never fails at this phase
  virtual Ticket Submit(StorageRequest request);

  /// Blocks until the exchange behind `ticket` completes and returns its
  /// reply (downloaded blocks in request order; empty for uploads).
  /// Consumes the ticket: a second Wait on it (or a Wait on a ticket never
  /// issued) is InvalidArgument, on every backend.
  /// \param ticket  a ticket returned by Submit and not yet waited on
  /// \return the reply, or the exchange's error (validation, injected
  ///         fault, transport failure) — in which case nothing was
  ///         recorded and no storage changed
  virtual StatusOr<StorageReply> Wait(Ticket ticket);

  /// One-shot exchange: Submit immediately followed by Wait.
  StatusOr<StorageReply> Exchange(StorageRequest request);

  // Classic narrow calls, implemented once over Exchange. Download /
  // DownloadMany are one-roundtrip exchanges; Upload / UploadMany are
  // fire-and-forget write-backs (zero roundtrips). Semantics (atomicity,
  // request-order replies, free empty batches) are the exchange contract
  // above.
  StatusOr<Block> Download(BlockId index);
  Status Upload(BlockId index, Block block);
  StatusOr<std::vector<Block>> DownloadMany(const std::vector<BlockId>& indices);
  Status UploadMany(const std::vector<BlockId>& indices,
                    std::vector<Block> blocks);

  /// Starts a new logical query in the transcript. Schemes call this once
  /// per client operation. Must not be called with exchanges in flight.
  virtual void BeginQuery() = 0;

  virtual const Transcript& transcript() const = 0;
  virtual void ResetTranscript() = 0;

  /// Forwards Transcript::SetCountingOnly to this backend (and any inner
  /// backends), bounding transcript memory under heavy traffic.
  virtual void SetTranscriptCountingOnly(bool counting_only) = 0;

  /// Direct unrecorded read, for test assertions and adversary "knowledge of
  /// the public database" - never used by schemes during queries. Returns a
  /// materialized copy: server memory is a flat arena, so there is no
  /// per-block vector to reference.
  virtual Block PeekBlock(BlockId index) const = 0;

  /// Flips one byte of the stored block; used to exercise tamper detection.
  virtual void CorruptBlock(BlockId index) = 0;

  /// Every exchange fails with this probability (default 0), modeling a
  /// dropped RPC. A batched exchange fails as a unit.
  virtual void SetFailureRate(double rate, uint64_t seed = 7) = 0;

  /// Total MEASURED wall-clock milliseconds spent completing exchanges,
  /// summed per exchange from submission to the reply being parked. The
  /// in-process default is 0.0 (an exchange is a function call, and the
  /// modeled CostModel latency is the interesting number); backends that
  /// cross a real wire (SocketBackend) override this with socket time, and
  /// Stats() surfaces it as TransportStats::measured_wall_ms.
  virtual double MeasuredWallMs() const { return 0.0; }

  /// Extra exchange attempts beyond the first try (RetryingBackend
  /// resubmissions, SocketBackend reconnects). 0 for backends that never
  /// retry; Stats() surfaces it as TransportStats::retries.
  virtual uint64_t RetriedAttempts() const { return 0; }

  // Convenience counters over transcript().
  uint64_t download_count() const { return transcript().download_count(); }
  uint64_t upload_count() const { return transcript().upload_count(); }
  uint64_t roundtrip_count() const { return transcript().roundtrip_count(); }
  uint64_t bytes_moved() const {
    return transcript().TotalBlocksMoved() * block_size();
  }
  TransportStats Stats() const {
    TransportStats stats = StatsFromTranscript(transcript(), block_size());
    stats.measured_wall_ms = MeasuredWallMs();
    stats.retries = RetriedAttempts();
    return stats;
  }

 protected:
  /// The one operation a synchronous implementation provides: run one
  /// non-empty exchange to completion (validate, roll the fault injector
  /// once, move the blocks, record the transcript). Backends that overlap
  /// exchanges (SocketBackend, ClusterBackend) override Submit/Wait and
  /// implement this as Submit+Wait.
  virtual StatusOr<StorageReply> Execute(StorageRequest request) = 0;

 private:
  Ticket next_ticket_ = 1;
  // Replies parked between Submit and Wait. Synchronous backends have at
  // most a handful in flight, so a flat vector beats a hash map.
  std::vector<std::pair<Ticket, StatusOr<StorageReply>>> ready_;
};

/// Constructs the storage behind a scheme: given the array geometry the
/// scheme computed, returns the backend it will query through. Schemes
/// default to an in-memory StorageServer when no factory is supplied; the
/// registry plugs in sharded / cached / socket / cluster topologies here.
using BackendFactory =
    std::function<std::unique_ptr<StorageBackend>(uint64_t n,
                                                  size_t block_size)>;

/// Factory for the in-memory StorageServer backend. With `counting_only`
/// the backend is born with a counting-only transcript (bench mode).
BackendFactory MemoryBackendFactory(bool counting_only = false);

/// Applies `factory` (or the in-memory default when null).
std::unique_ptr<StorageBackend> MakeBackend(const BackendFactory& factory,
                                            uint64_t n, size_t block_size);

}  // namespace dpstore

#endif  // DPSTORE_STORAGE_BACKEND_H_
