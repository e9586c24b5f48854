#ifndef DPSTORE_CORE_SCHEME_REGISTRY_H_
#define DPSTORE_CORE_SCHEME_REGISTRY_H_

/// \file
/// SchemeConfig + SchemeRegistry: build any scheme in the library, on any
/// storage topology, by name from one config value. This is the header
/// every bench, test, and experiment driver goes through — "run every
/// scheme against every workload on every backend" is a loop over
/// RamSchemeNames() x backends, not a hand-written matrix. The layer map
/// is in docs/architecture.md.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "storage/backend.h"
#include "util/statusor.h"

namespace dpstore {

struct CacheStats;  // storage/write_back_cache.h

/// One configuration for building any registered scheme by name. The
/// registry translates the backend fields into a BackendFactory, so a single
/// config drives every cell of a schemes x backends sweep.
struct SchemeConfig {
  /// Records (RAM repertoire) or key capacity (KVS repertoire).
  uint64_t n = 256;
  /// Payload bytes per record / value.
  size_t value_size = 64;
  uint64_t seed = 1;

  /// Storage topology: "memory" (single in-memory server), "sharded"
  /// (ClusterBackend over `shards` single-slot ranges, each an in-memory
  /// StorageServer leg: a K-way contiguous partition of the block array,
  /// same routing law as "cluster" without the processes), "cached"
  /// (WriteBackCacheBackend
  /// of `cache_blocks` blocks over an in-memory server), "socket"
  /// (SocketBackend: the real RPC transport — exchanges serialized over a
  /// socket to a dpstore_server at `socket_path` / `socket_host:port`, or
  /// to an in-process socketpair server when neither is set), "cluster"
  /// (ClusterBackend: shard ranges + replica groups + warm spares over
  /// per-node SocketBackend legs against N real dpstore_server processes,
  /// parsed from `cluster_config`; docs/cluster.md), or "retry"
  /// (RetryingBackend decorating a `retry_inner` backend: bounded retry of
  /// exchanges that failed before any state change).
  std::string backend = "memory";
  uint64_t shards = 4;
  /// Write-back cache capacity in blocks (backend "cached").
  uint64_t cache_blocks = 64;
  /// Unix-domain path of a running dpstore_server (backend "socket").
  std::string socket_path;
  /// Second server process for the genuinely-two-server schemes
  /// (dpf_pir): replica 1 connects here instead of `socket_path`, so the
  /// two keys of one query really land in different processes. Empty =
  /// both replicas use the `socket_path` server (distinct private
  /// namespaces — still distinct arenas, one process).
  std::string socket_path2;
  /// TCP endpoint of a running dpstore_server (backend "socket"). With
  /// both this and `socket_path` empty, every backend the factory builds
  /// spawns its own in-process socketpair server.
  std::string socket_host;
  uint16_t socket_port = 0;
  /// Bounded auto-reconnect budget per socket backend (backend "socket");
  /// 0 keeps the classic latch-on-first-break semantics.
  int socket_reconnect_max = 0;
  /// When nonzero, each socket backend the factory builds attaches to the
  /// SHARED server namespace `socket_namespace_base + k` (k = build
  /// order) instead of a connection-private arena — required for
  /// reconnect to find its data again, since private namespaces are freed
  /// at disconnect. Ids must stay below 2^63.
  uint64_t socket_namespace_base = 0;
  /// Cluster topology text for backend "cluster" (a ClusterBackend fanning
  /// exchanges over per-node SocketBackend legs): the parsed config names
  /// node endpoints, shard ranges, replica groups, and warm spares. Format
  /// and semantics: docs/cluster.md. Parse errors surface from
  /// BackendFactoryFor as typed InvalidArgument.
  std::string cluster_config;
  /// Per-leg completion budget in ms for cluster legs (backend "cluster");
  /// 0 = none. A leg that trips it triggers the same failover as a dead
  /// connection.
  uint64_t cluster_leg_deadline_ms = 0;
  /// RetryingBackend knobs (backend "retry"): the decorated topology and
  /// the attempt/backoff policy. `retry_inner` accepts any backend name
  /// except "retry" itself.
  std::string retry_inner = "memory";
  int retry_max_attempts = 3;
  uint64_t retry_base_ms = 1;
  uint64_t retry_cap_ms = 100;
  /// Optional sink accumulating hit/miss counters across every cache the
  /// factory builds for this scheme (backend "cached").
  std::shared_ptr<CacheStats> cache_stats;
  /// Explicit factory override: when set it wins over `backend`, letting
  /// tests and benches interpose custom topologies (or observe the backends
  /// a scheme builds) without registering a new backend name.
  BackendFactory backend_factory;
  /// Born with counting-only transcripts (bench mode: tallies, no events).
  bool counting_only_transcript = false;

  /// DP-IR-family budget; 0 picks the scheme default eps = ln(n), the
  /// Theorem 5.1 constant-overhead regime.
  double epsilon = 0.0;
  /// DP-IR-family error probability.
  double alpha = 0.1;

  /// Replica endpoints built for the multi-server schemes (dpf_pir and
  /// multi_server_dp_ir*). The scheme's protocol width stays what it was
  /// (2 for dpf_pir, D for multi_server_dp_ir); endpoints beyond that are
  /// SPARES the scheme fails over to when an active replica dies.
  uint64_t replicas = 2;
};

/// Resolves SchemeConfig's backend fields. NotFound for unknown names.
StatusOr<BackendFactory> BackendFactoryFor(const SchemeConfig& config);

/// String-keyed factory over every scheme in the library. All RAM-repertoire
/// schemes come pre-seeded with the marker database MarkerBlock(i,
/// value_size) for i in [0, n), so a freshly built scheme is immediately
/// queryable and verifiable; KVS schemes start empty.
///
/// The registry is what makes "run every scheme against every workload on
/// every backend" a loop instead of a hand-written matrix: benches, the
/// workload driver and tests all construct through here.
class SchemeRegistry {
 public:
  using RamFactory =
      std::function<StatusOr<std::unique_ptr<RamScheme>>(const SchemeConfig&)>;
  using KvsFactory =
      std::function<StatusOr<std::unique_ptr<KvsScheme>>(const SchemeConfig&)>;

  /// The process-wide registry, pre-populated with every built-in scheme.
  static SchemeRegistry& Instance();

  /// Registers a factory under `name`; later registrations win, so tests
  /// and experiments can shadow a built-in.
  /// \param name     lookup key (conventionally snake_case scheme name)
  /// \param factory  builds a scheme from a SchemeConfig, or returns why
  ///                 it cannot (bad config values surface here)
  void RegisterRam(const std::string& name, RamFactory factory);
  void RegisterKvs(const std::string& name, KvsFactory factory);

  /// Builds the RAM scheme registered as `name`.
  /// \param name    a registered scheme name (see RamSchemeNames())
  /// \param config  geometry, seed, backend topology, DP parameters
  /// \return a ready-to-query scheme pre-seeded with the marker database,
  ///         NotFound for unknown names, or the factory's own error
  StatusOr<std::unique_ptr<RamScheme>> MakeRam(
      const std::string& name, const SchemeConfig& config) const;
  /// KVS counterpart of MakeRam; KVS schemes start empty.
  StatusOr<std::unique_ptr<KvsScheme>> MakeKvs(
      const std::string& name, const SchemeConfig& config) const;

  /// Registered names, sorted (deterministic sweep order).
  std::vector<std::string> RamSchemeNames() const;
  std::vector<std::string> KvsSchemeNames() const;

 private:
  SchemeRegistry();  // registers the built-ins

  std::vector<std::pair<std::string, RamFactory>> ram_;
  std::vector<std::pair<std::string, KvsFactory>> kvs_;
};

}  // namespace dpstore

#endif  // DPSTORE_CORE_SCHEME_REGISTRY_H_
