#ifndef DPSTORE_PIR_DPF_PIR_H_
#define DPSTORE_PIR_DPF_PIR_H_

/// \file
/// Two-server DPF-based PIR (Boyle-Gilboa-Ishai over the GGM tree in
/// crypto/dpf.h): the computational answer to xor_pir's Theta(n)-bit
/// queries. The client splits the point function at its index into two
/// keys of O(lambda log n) bytes, ships one key per replica, and each
/// server answers with ONE block — the XOR of the blocks its key's
/// expanded bit vector selects, computed in a single streaming pass over
/// its flat arena (StorageRequest::Op::kDpfEval, executed by the
/// SelectXorScan kernel). XORing the two answers yields the queried
/// block; each server's view is one pseudorandom key, computationally
/// independent of the index.
///
/// Per query per replica: crypto::DpfKeyBytes(ceil(log2 n)) query bytes
/// up (276 B at n = 2^20, versus xor_pir's n bits = 128 KiB), one block
/// down, one roundtrip. Server work stays Theta(n) — the PIR lower bound
/// the paper's introduction contrasts with — but moves from per-query
/// client bandwidth into the vectorized server scan.
///
/// Unlike xor_pir's bespoke compute servers, the replicas here are plain
/// StorageBackends, so the scheme runs unchanged over every topology in
/// the registry: memory, sharded and cluster (the eval fans out per range
/// and the partial XORs compose), cached (flushes then scans), and socket
/// (the key crosses the wire to a real dpstore_server process).
///
/// FAILOVER: the scheme accepts more than two replicas; the extras are
/// spares. A dead replica fails the in-flight query atomically at Wait
/// (nothing partial is returned), the failed slot is swapped for a spare,
/// and the NEXT query — including the caller's retry of the failed one —
/// runs against the new pair with FRESH keys from DpfGen. Retried traffic
/// is therefore freshly randomized by construction: a byte-identical
/// resend of a DPF key would hand the surviving server two correlated
/// views, which is exactly what the two-server hiding argument forbids
/// (and why RetryingBackend refuses to retry kDpfEval at the transport
/// level). Reconfigurations are recorded in failover_log().

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/backend.h"
#include "util/statusor.h"

namespace dpstore {

/// Client of the two-server DPF PIR. All backends must hold identical
/// replicas of the same geometry; replicas beyond the first two are
/// spares.
class TwoServerDpfPir {
 public:
  /// Key randomness comes from the system RNG (crypto/dpf.h), not a
  /// caller seed: unlike the statistical schemes there is no replayable
  /// noise to pin down, and fresh seeds per query are what the hiding
  /// argument needs.
  TwoServerDpfPir(StorageBackend* server0, StorageBackend* server1);
  /// `replicas.size() >= 2`; replicas [2..) are failover spares.
  explicit TwoServerDpfPir(std::vector<StorageBackend*> replicas);

  uint64_t n() const { return replicas_[active_[0]]->n(); }
  size_t block_size() const { return replicas_[active_[0]]->block_size(); }

  /// Tree depth of the keys: ceil(log2 n), floored at 1. The domain
  /// 2^depth rounds n up to a power of two; bits for points >= n land
  /// beyond both replicas' arenas and are never read, identically on
  /// both sides, so correctness and privacy are unaffected.
  uint8_t domain_depth() const { return depth_; }

  /// Serialized bytes each replica receives per query.
  uint64_t QueryBytesPerServer() const;

  StatusOr<Block> Query(BlockId index);

  /// Replica indices currently serving as (server0, server1).
  std::pair<size_t, size_t> active_replicas() const {
    return {active_[0], active_[1]};
  }
  size_t replica_count() const { return replicas_.size(); }
  /// Completed reconfigurations (slot swapped for a spare).
  uint64_t failovers() const { return failovers_; }
  /// Human-readable reconfiguration record, one entry per failed slot.
  const std::vector<std::string>& failover_log() const {
    return failover_log_;
  }

 private:
  /// Swaps `slot` for the next spare (if any) and records the event.
  void FailoverSlot(int slot, const Status& why);

  std::vector<StorageBackend*> replicas_;
  /// Indices into replicas_ of the live pair.
  size_t active_[2] = {0, 1};
  /// Unused replica indices, consumed in order on failover.
  std::vector<size_t> spares_;
  std::vector<std::string> failover_log_;
  uint64_t failovers_ = 0;
  uint64_t queries_ = 0;
  uint8_t depth_;
};

}  // namespace dpstore

#endif  // DPSTORE_PIR_DPF_PIR_H_
