#ifndef DPSTORE_ANALYSIS_DRIVER_H_
#define DPSTORE_ANALYSIS_DRIVER_H_

#include <cstdint>

#include "analysis/cost_model.h"
#include "analysis/workload.h"
#include "core/scheme.h"
#include "util/statusor.h"

namespace dpstore {

/// What one workload run measured: operations executed, perp results (the
/// allowed error branch of DP-IR-style schemes), and the transport delta the
/// scheme incurred (blocks/bytes/roundtrips across every backend it talks
/// to) plus host wall time. The per-op accessors and the cost-model hook
/// turn the delta into the paper's comparison axes.
struct WorkloadReport {
  uint64_t operations = 0;
  uint64_t perp_results = 0;
  TransportStats transport;
  double wall_ms = 0.0;

  double BlocksPerOp() const {
    return operations == 0
               ? 0.0
               : static_cast<double>(transport.blocks_moved) /
                     static_cast<double>(operations);
  }
  double BytesPerOp() const {
    return operations == 0 ? 0.0
                           : static_cast<double>(transport.bytes_moved) /
                                 static_cast<double>(operations);
  }
  double RoundtripsPerOp() const {
    return operations == 0 ? 0.0
                           : static_cast<double>(transport.roundtrips) /
                                 static_cast<double>(operations);
  }
  /// Modeled network latency per operation under `model` (LAN/WAN/...).
  double LatencyPerOpMs(const CostModel& model) const {
    return operations == 0
               ? 0.0
               : model.StatsLatencyMs(transport) /
                     static_cast<double>(operations);
  }
  /// MEASURED transport latency per operation: wall-clock the backend spent
  /// completing exchanges (TransportStats::measured_wall_ms). 0 for
  /// in-process backends; the number the modeled latencies finally get
  /// compared against on a real transport (SocketBackend).
  double MeasuredMsPerOp() const {
    return operations == 0
               ? 0.0
               : transport.measured_wall_ms /
                     static_cast<double>(operations);
  }
};

/// Runs `sequence` against any RAM-repertoire scheme through the unified
/// interface. Writes store MarkerBlock(index) payloads; on read-only schemes
/// writes degrade to reads so one sequence drives every scheme. Errors abort
/// the run; perp reads are counted, not errors.
StatusOr<WorkloadReport> RunRamWorkload(RamScheme* scheme,
                                        const RamSequence& sequence);

/// Runs `sequence` against any KVS scheme. Puts store
/// MarkerBlock(key, value_size) payloads; erases are skipped on schemes
/// without an erase repertoire; Gets of absent keys count as perp.
StatusOr<WorkloadReport> RunKvsWorkload(KvsScheme* scheme,
                                        const KvsSequence& sequence);

// --- Pipelined exchange replay ----------------------------------------------
//
// Schemes are synchronous clients: each narrow backend call is Submit
// immediately followed by Wait. Independent queries, however, need not
// serialize their *transport*: the adversary's view of a query is exactly
// its exchanges, so replaying a recorded transcript through Submit/Wait with
// several exchanges in flight measures what the access pattern costs on a
// backend that can overlap work (socket, cluster) — without perturbing
// the scheme's own results, which were produced when the transcript was
// recorded. This is the paper's separation of axes made operational:
// blocks/roundtrips stay identical at every depth; only wall-clock moves.

/// What one pipelined replay measured. `reply_hash` is a FNV-1a digest of
/// every downloaded byte in submission order — bit-identical replays (any
/// depth, any sharding) produce equal hashes.
struct PipelineReport {
  uint64_t exchanges = 0;
  TransportStats transport;
  double wall_ms = 0.0;
  uint64_t reply_hash = 0;

  double MsPerExchange() const {
    return exchanges == 0 ? 0.0 : wall_ms / static_cast<double>(exchanges);
  }
};

/// Rebuilds a recorded transcript as explicit exchange messages: per query,
/// one batched download of everything the query downloaded (one roundtrip,
/// the schemes' canonical shape) and one fire-and-forget write-back of
/// everything it uploaded (payloads are deterministic MarkerBlock(index)
/// bytes — replay measures transport, not contents). Requires a transcript
/// with events (not counting-only).
std::vector<StorageRequest> ExchangePlanFromTranscript(const Transcript& t,
                                                       size_t block_size);

/// Streams `plan` through backend->Submit/Wait keeping up to `depth` >= 1
/// exchanges in flight (depth 1 degenerates to the synchronous call
/// pattern). Waits in submission order, so transcripts and replayed data
/// are depth-invariant. Reports the transport delta and measured
/// wall-clock.
StatusOr<PipelineReport> RunExchangePipeline(StorageBackend* backend,
                                             std::vector<StorageRequest> plan,
                                             uint64_t depth);

}  // namespace dpstore

#endif  // DPSTORE_ANALYSIS_DRIVER_H_
