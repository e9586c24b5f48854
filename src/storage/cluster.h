#ifndef DPSTORE_STORAGE_CLUSTER_H_
#define DPSTORE_STORAGE_CLUSTER_H_

/// \file
/// Cluster mode: the step from "a client and a server" to "a deployment".
///
/// A ClusterConfig names N server processes (node name -> endpoint), carves
/// the slot space into contiguous shard ranges with optional replica
/// groups, and may hold warm spares. ClusterBackend reads that config and
/// fans every storage exchange out over per-node transport legs
/// (SocketBackend against real dpstore_server processes by default): async
/// submit to all touched legs, gather / XOR at Wait, per-leg deadlines,
/// and failover to a surviving replica or a configured spare when a node
/// dies — reusing the PR 9 failure semantics (a dead leg fails the whole
/// exchange atomically at Wait; nothing is recorded, nothing half-applies).
///
/// The normative description of the config format, the routing and
/// failover semantics, and the rebalance cost model is docs/cluster.md.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/backend.h"
#include "storage/block_buffer.h"
#include "util/statusor.h"

namespace dpstore {

/// One server process in the cluster: a unique name and a unique endpoint,
/// either `unix:<path>` or `tcp:<host>:<port>`.
struct ClusterNode {
  std::string name;
  /// Endpoint as written in the config ("unix:/tmp/a.sock"), for logs.
  std::string endpoint;
  /// Unix-domain socket path; empty for TCP nodes.
  std::string unix_path;
  /// TCP host; empty for Unix nodes.
  std::string host;
  uint16_t port = 0;
};

/// One contiguous shard range over the slot space: slots [lo, hi) served by
/// `members` (indices into ClusterConfig::nodes()). members[0] is the
/// primary — downloads and DPF evals go there; uploads mirror to every
/// member so replicas stay bit-identical and failover is lossless.
struct ClusterRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
  std::vector<size_t> members;
};

/// Parsed, validated cluster topology. Line-based text format (grammar in
/// docs/cluster.md):
///
///     # comment
///     slots 4                       # optional; defaults to the last hi
///     node a unix:/tmp/a.sock
///     node b tcp:127.0.0.1:47901
///     node c unix:/tmp/c.sock
///     node s unix:/tmp/s.sock
///     range 0 2 a                   # slots [0,2): primary a
///     range 2 4 b c                 # slots [2,4): primary b, replica c
///     spare s                       # warm spare, any range can fail over
///
/// Parse rejects — with a typed InvalidArgument Status, never a crash —
/// duplicate node names, duplicate endpoints, malformed endpoints,
/// overlapping / gapped / empty ranges not tiling [0, slots), references
/// to undeclared nodes, a node serving more than one range, a spare that
/// also serves a range, and declared-but-unused nodes.
class ClusterConfig {
 public:
  /// Parses and validates config text. All failures are InvalidArgument
  /// with the offending line quoted.
  static StatusOr<ClusterConfig> Parse(const std::string& text);
  /// Parse, from a file (NotFound if unreadable).
  static StatusOr<ClusterConfig> ParseFile(const std::string& path);

  /// Number of routing slots the ranges tile. Block addresses map onto
  /// slots uniformly: rows_per_slot = max(ceil(n / slots), 1). K
  /// single-slot ranges over in-memory legs is the registry's "sharded"
  /// backend (a K-way contiguous partition).
  uint64_t slots() const { return slots_; }
  const std::vector<ClusterNode>& nodes() const { return nodes_; }
  /// Ranges sorted by lo, tiling [0, slots()) with no gaps or overlaps.
  const std::vector<ClusterRange>& ranges() const { return ranges_; }
  /// Warm spares (indices into nodes()), in declaration order.
  const std::vector<size_t>& spares() const { return spares_; }

  /// Index of the node called `name`, or nodes().size() if absent.
  size_t NodeIndex(const std::string& name) const;

 private:
  Status Validate();

  uint64_t slots_ = 0;
  std::vector<ClusterNode> nodes_;
  std::vector<ClusterRange> ranges_;
  std::vector<size_t> spares_;
};

struct ClusterBackendOptions {
  /// Per-leg completion budget in ms, applied to every leg exchange whose
  /// parent request carries no deadline of its own. 0 = none. A leg that
  /// trips it fails the exchange (DeadlineExceeded) and — the node being
  /// unresponsive — triggers the same failover as a dead connection.
  uint64_t leg_deadline_ms = 0;
  /// Bounded auto-reconnect budget forwarded to every socket leg.
  int max_reconnects = 0;
  /// When nonzero, leg i attaches to SHARED namespace `namespace_base + i`
  /// on its server (attach-or-create); 0 keeps connection-private arenas.
  /// Must stay below 2^63 (upper half is server-minted private ids).
  uint64_t namespace_base = 0;
  /// Decorrelates leg reconnect backoff jitter.
  uint64_t reconnect_seed = 42;
  /// Builds the transport leg for `node` with an `n` x `block_size` arena.
  /// Null = real SocketBackend per the node's endpoint. The registry's
  /// "sharded" backend passes in-memory StorageServer legs here, and tests
  /// use the same seam to exercise routing/failover without processes.
  std::function<std::unique_ptr<StorageBackend>(
      size_t node_index, const ClusterNode& node, uint64_t n,
      size_t block_size)>
      leg_factory;
};

/// StorageBackend that shards the block array [0, n) across the cluster's
/// ranges and serves each range from its member nodes over per-node
/// transport legs.
///
/// Geometry: rows_per_slot = max(ceil(n / slots), 1); range [lo, hi) holds
/// global blocks [lo * rows_per_slot, hi * rows_per_slot) clipped to n.
/// Range members hold range-local arenas (local = global - range lo);
/// spares hold full-size arenas (local = global) so any spare can adopt
/// any range.
///
/// Exchange fan-out: Submit validates, rolls the fault injector once,
/// partitions the exchange and submits every leg without blocking (socket
/// legs are genuinely asynchronous; in-memory legs complete at Submit);
/// Wait gathers the legs, reassembles the reply in request order
/// (downloads; a batch that lands on one range is forwarded whole, its
/// leg's reply buffer moved rather than copied), XORs per-range answers
/// (kDpfEval), and only then records the global transcript — one
/// roundtrip per download/eval exchange, zero for uploads, events in
/// submission order. The adversary's view is therefore bit-identical to
/// the single-process `memory` backend for every scheme, on every
/// topology (cluster_test proves this as an equivalence matrix, forked
/// and in-process).
///
/// The registry's "sharded" backend is this class over `shards`
/// single-slot ranges with in-memory StorageServer legs.
///
/// Replication: uploads mirror to every member of a touched range AND to
/// every remaining spare (warm standby); downloads and evals go to
/// primaries only, so replication costs upload bandwidth, not roundtrips.
///
/// Failover: a leg failing Wait with Unavailable or DeadlineExceeded fails
/// the exchange atomically (nothing recorded, PR 9 semantics) and marks
/// the node dead: each range it served drops it, promoting the next member
/// to primary, or — when the group empties — adopting a warm spare. The
/// reconfiguration is appended to failover_log() and one
/// "dpstore_cluster:" line goes to stderr. Subsequent exchanges route
/// around the dead node; a range with no members left fails exchanges
/// with Unavailable until a spare is configured.
///
/// Thread safety: Submit/Wait and the control surface from one client
/// thread, as for every backend; the legs' internal threads are their own.
class ClusterBackend : public StorageBackend {
 public:
  /// Prices moving one shard range to another node: what a rebalance costs
  /// before you pay it. Execute with ExecuteRebalance; the measured
  /// wall-clock lands in a BENCH_loadgen cell (bench_loadgen --cluster).
  struct RebalancePlan {
    size_t range_index = 0;
    std::string from;  // current primary node name
    std::string to;    // destination node name (must be a spare)
    uint64_t lo_block = 0;
    uint64_t hi_block = 0;
    /// Blocks to copy = hi_block - lo_block.
    uint64_t blocks = 0;
    /// Bytes to copy = blocks * block_size.
    uint64_t bytes = 0;
    /// Copy exchanges = ceil(blocks / batch_blocks): each batch is one
    /// download exchange from the source + one upload exchange to the
    /// destination.
    uint64_t batches = 0;
    uint64_t batch_blocks = 0;
  };

  ClusterBackend(uint64_t n, size_t block_size, ClusterConfig config,
                 ClusterBackendOptions options = {});

  const ClusterConfig& config() const { return config_; }
  uint64_t rows_per_slot() const { return rows_per_slot_; }
  /// Global block range [lo, hi) of range `r` under this arena's n.
  std::pair<uint64_t, uint64_t> RangeBlocks(size_t r) const;
  /// The range serving global address `index`.
  size_t RangeOf(BlockId index) const;
  /// Current member node indices of range `r` (mutates on failover).
  const std::vector<size_t>& RangeMembers(size_t r) const {
    return members_[r];
  }
  /// The transport leg of node `i` (null for zero-size ranges' nodes).
  StorageBackend* leg(size_t i) { return legs_[i].get(); }

  /// Nodes declared dead so far (failovers handled).
  uint64_t failovers() const { return failovers_; }
  /// Human-readable reconfiguration history: one line per failover
  /// promotion, spare adoption, dead range, and executed rebalance.
  const std::vector<std::string>& failover_log() const {
    return failover_log_;
  }

  uint64_t n() const override { return n_; }
  size_t block_size() const override { return block_size_; }

  Status SetArray(std::vector<Block> blocks) override;

  Ticket Submit(StorageRequest request) override;
  StatusOr<StorageReply> Wait(Ticket ticket) override;

  void BeginQuery() override;

  const Transcript& transcript() const override { return transcript_; }
  void ResetTranscript() override;
  void SetTranscriptCountingOnly(bool counting_only) override;

  Block PeekBlock(BlockId index) const override;
  /// Corrupts the primary's copy only (replicas keep the clean block, so a
  /// failover un-corrupts — a test-only asymmetry, documented in
  /// docs/cluster.md).
  void CorruptBlock(BlockId index) override;

  /// One Bernoulli roll per exchange at Submit, before any leg is
  /// submitted. Never forwarded to the legs: a mid-fan-out inner failure
  /// would half-apply a spanning exchange. Do not inject faults into
  /// individual legs via leg(i) while schemes drive this backend, except
  /// to simulate a node death (which the failover path handles).
  void SetFailureRate(double rate, uint64_t seed = 7) override;

  /// Sum over completed exchanges of (gathered - submitted) plus the
  /// rebalance copy time: the cluster's real end-to-end latency.
  double MeasuredWallMs() const override { return measured_wall_ms_; }

  /// Reconnect/retry attempts summed over all legs.
  uint64_t RetriedAttempts() const override;

  /// Prices moving range `range_index` to spare node `to_node` in batches
  /// of `batch_blocks` blocks. InvalidArgument if the target is not a
  /// (remaining) spare or the range has no live members.
  StatusOr<RebalancePlan> PlanRebalance(size_t range_index,
                                        const std::string& to_node,
                                        uint64_t batch_blocks = 1024) const;

  /// Executes a plan: copies the range's blocks primary -> destination in
  /// `batches` download+upload exchange pairs (leg-local operator traffic —
  /// the cluster transcript, which is the scheme-level adversary view, does
  /// not move), then atomically reassigns the range to the destination.
  /// Must not be called with exchanges in flight. Returns the measured
  /// copy wall-clock in ms; the reassignment is appended to
  /// failover_log().
  StatusOr<double> ExecuteRebalance(const RebalancePlan& plan);

 protected:
  /// Never reached through the overridden Submit; provided so the class is
  /// concrete. Equivalent to a one-shot Submit+Wait.
  StatusOr<StorageReply> Execute(StorageRequest request) override;

 private:
  /// One leg of an in-flight exchange: the node it went to and, for
  /// downloads, where each reply block lands in the parent reply (empty
  /// when the leg carries the whole batch in request order).
  struct LegCall {
    size_t node = 0;
    Ticket ticket = 0;
    std::vector<size_t> positions;
  };

  /// One exchange between Submit and Wait.
  struct Flight {
    StorageRequest::Op op = StorageRequest::Op::kDownload;
    std::vector<BlockId> indices;
    uint64_t eval_key_bytes = 0;
    std::vector<LegCall> calls;
    /// Outcome decided at Submit (validation error, injected fault,
    /// no-op): nothing crossed any wire, nothing gets recorded.
    bool immediate = false;
    Status immediate_status;
    std::chrono::steady_clock::time_point submitted;
  };

  std::unique_ptr<StorageBackend> MakeLeg(size_t node_index, uint64_t leg_n);
  /// Files `flight` under a fresh ticket until Wait.
  Ticket Park(Flight flight);
  Ticket ParkImmediate(Status status);
  /// Marks `node` dead and repairs every range it served (promote the
  /// next member, else adopt a spare). Idempotent per node.
  void HandleNodeFailure(size_t node, const Status& why);
  /// Submits one leg request to `node`, tracking the call in `flight`.
  void SubmitLeg(Flight& flight, size_t node, StorageRequest leg_request,
                 std::vector<size_t> positions = {});

  ClusterConfig config_;
  ClusterBackendOptions options_;
  uint64_t n_ = 0;
  size_t block_size_ = 0;
  uint64_t rows_per_slot_ = 1;
  /// slot -> range index (O(1) routing).
  std::vector<size_t> slot_to_range_;
  /// Live members per range, primary first. Starts as the config's
  /// groups; failover and rebalance mutate it.
  std::vector<std::vector<size_t>> members_;
  /// Remaining warm spares (node indices), adoption order = config order.
  std::vector<size_t> spares_;
  /// Block offset of each node's local address 0 (range lo for members,
  /// 0 for full-size spares).
  std::vector<uint64_t> leg_base_;
  std::vector<std::unique_ptr<StorageBackend>> legs_;
  std::vector<bool> node_dead_;

  Ticket next_ticket_ = 1;
  /// Exchanges between Submit and Wait. Only a handful are ever in
  /// flight, so a flat vector (no per-exchange node allocation) beats a
  /// hash map.
  std::vector<std::pair<Ticket, Flight>> flights_;
  std::shared_ptr<BufferPool> pool_;

  Transcript transcript_;
  FaultInjector faults_;
  double measured_wall_ms_ = 0.0;
  uint64_t failovers_ = 0;
  std::vector<std::string> failover_log_;
};

/// BackendFactory producing ClusterBackends over a parsed config.
/// Counting-only transcripts on request (forwarded to the legs). When
/// `options.namespace_base` is nonzero, the k-th backend built gets base
/// `namespace_base + k * nodes` so concurrently built backends (scheme
/// replicas) never share a leg namespace.
BackendFactory ClusterBackendFactory(ClusterConfig config,
                                     ClusterBackendOptions options = {},
                                     bool counting_only = false);

}  // namespace dpstore

#endif  // DPSTORE_STORAGE_CLUSTER_H_
