// Experiment E13, rebuilt on the exchange-shaped storage transport: a
// registry-driven throughput sweep over schemes x backends x workloads,
// a scale sweep locating where sharding pays on real hardware, a
// pipelined-replay sweep over exchange depths, and a raw transport
// microbench over batch sizes. Blocks-per-query is the paper's cost model;
// this harness confirms the ordering survives real execution (encryption,
// hashing, memory traffic) and reports measured wall-clock next to the
// modeled LAN/WAN latency on every cell.
//
// Cells emitted:
//   BENCH_throughput_<scheme>__<backend>.json        scheme sweep (n=256)
//   BENCH_throughput_scale_<scheme>_n<log2 n>_<backend>_s<shards>.json
//   BENCH_throughput_socket_<scheme>_n<log2 n>.json   modeled vs measured
//   BENCH_throughput_pipeline_s<shards>_d<depth>.json
//   BENCH_throughput_transport_<backend>_b<batch>.json
//   BENCH_throughput.json                            closing summary
//
// Scheme and scale cells run with counting-only transcripts, so the sweep's
// memory stays flat no matter how much traffic it pushes; the pipeline
// sweep needs per-event transcripts for its recording pass only.
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"

#include "analysis/cost_model.h"
#include "analysis/driver.h"
#include "analysis/workload.h"
#include "core/scheme_registry.h"
#include "storage/server.h"
#include "storage/write_back_cache.h"
#include "util/check.h"

namespace dpstore {
namespace {

constexpr uint64_t kRecords = 256;
constexpr size_t kRecordSize = 64;
constexpr size_t kOpsPerCell = 96;
constexpr double kWriteFraction = 0.25;
constexpr double kZipfTheta = 0.99;  // YCSB default skew
const char* const kBackends[] = {"memory", "sharded", "cached"};

SchemeConfig CellConfig(const std::string& backend) {
  SchemeConfig config;
  config.n = kRecords;
  config.value_size = kRecordSize;
  config.seed = 20260728;
  config.backend = backend;
  config.shards = 4;
  // Half the records fit: big enough that a Path ORAM path (Z*(L+1) ~ 40
  // blocks) fills rather than scan-bypasses, small enough that hit rates
  // still discriminate between schemes.
  config.cache_blocks = kRecords / 2;
  config.counting_only_transcript = true;
  return config;
}

void EmitCell(const std::string& scheme, const std::string& backend,
              const std::string& workload, const WorkloadReport& report,
              const WorkloadReport* uniform_reference = nullptr,
              const CacheStats* cache = nullptr) {
  bench::BenchJson json("throughput_" + scheme + "__" + backend);
  json.Metric("scheme", scheme);
  json.Metric("backend", backend);
  json.Metric("workload", workload);
  json.Metric("ops", report.operations);
  json.Metric("perp_results", report.perp_results);
  json.Metric("blocks_per_op", report.BlocksPerOp());
  json.Metric("bytes_per_op", report.BytesPerOp());
  json.Metric("roundtrips_per_op", report.RoundtripsPerOp());
  json.Metric("lan_ms_per_op", report.LatencyPerOpMs(kLanModel));
  json.Metric("wan_ms_per_op", report.LatencyPerOpMs(kWanModel));
  json.Metric("host_wall_ms", report.wall_ms);
  json.Metric("host_ops_per_sec",
              report.wall_ms > 0.0
                  ? 1000.0 * static_cast<double>(report.operations) /
                        report.wall_ms
                  : 0.0);
  if (uniform_reference != nullptr) {
    json.Metric("uniform_blocks_per_op", uniform_reference->BlocksPerOp());
    json.Metric("uniform_roundtrips_per_op",
                uniform_reference->RoundtripsPerOp());
  }
  if (cache != nullptr) {
    // How the write-back cache interacted with this scheme's (privacy-
    // mandated) traffic on the skewed workload: schemes whose transcripts
    // are dummy-heavy or re-randomized defeat their own hits.
    json.Metric("cache_hits", cache->download_hits);
    json.Metric("cache_misses", cache->download_misses);
    json.Metric("cache_hit_rate", cache->HitRate());
    json.Metric("cache_uploads_absorbed", cache->uploads_absorbed);
    json.Metric("cache_writeback_blocks", cache->writeback_blocks);
  }
  json.Emit();
}

int SweepRamSchemes() {
  int cells = 0;
  for (const char* backend : kBackends) {
    for (const std::string& name :
         SchemeRegistry::Instance().RamSchemeNames()) {
      SchemeConfig config = CellConfig(backend);
      if (config.backend == "cached") {
        config.cache_stats = std::make_shared<CacheStats>();
      }
      auto scheme = SchemeRegistry::Instance().MakeRam(name, config);
      DPSTORE_CHECK_OK(scheme.status());
      // Each cell runs the skewed Zipf(0.99) scenario after a uniform pass;
      // the emitted line reports the Zipf run with the uniform blocks/
      // roundtrips per op as reference metrics (they should agree: every
      // scheme's transcript shape is query-independent).
      Rng rng(config.seed);
      auto uniform = MakeRamWorkload("uniform", &rng, config.n, kOpsPerCell,
                                     kWriteFraction);
      DPSTORE_CHECK_OK(uniform.status());
      auto uniform_report = RunRamWorkload(scheme->get(), *uniform);
      DPSTORE_CHECK_OK(uniform_report.status());
      // Snapshot the cache counters so the emitted cell meters the Zipf
      // pass alone (the uniform pass doubles as cache warm-up).
      CacheStats cache_before;
      if (config.cache_stats != nullptr) cache_before = *config.cache_stats;
      auto zipf = MakeRamWorkload("zipf:0.99", &rng, config.n, kOpsPerCell,
                                  kWriteFraction);
      DPSTORE_CHECK_OK(zipf.status());
      auto zipf_report = RunRamWorkload(scheme->get(), *zipf);
      DPSTORE_CHECK_OK(zipf_report.status());
      CacheStats zipf_cache;
      if (config.cache_stats != nullptr) {
        zipf_cache = *config.cache_stats - cache_before;
      }
      EmitCell(name, backend, "zipf:0.99", *zipf_report, &*uniform_report,
               config.cache_stats != nullptr ? &zipf_cache : nullptr);
      ++cells;
    }
  }
  return cells;
}

int SweepKvsSchemes() {
  int cells = 0;
  for (const char* backend : kBackends) {
    for (const std::string& name :
         SchemeRegistry::Instance().KvsSchemeNames()) {
      SchemeConfig config = CellConfig(backend);
      if (config.backend == "cached") {
        config.cache_stats = std::make_shared<CacheStats>();
      }
      auto scheme = SchemeRegistry::Instance().MakeKvs(name, config);
      DPSTORE_CHECK_OK(scheme.status());
      Rng rng(config.seed + 1);
      // YCSB-B-style: 75% reads over Zipf(0.99)-skewed keys.
      KvsSequence ops = YcsbKvsSequence(&rng, config.n / 2, kOpsPerCell,
                                        /*read_fraction=*/0.75, kZipfTheta);
      auto report = RunKvsWorkload(scheme->get(), ops);
      DPSTORE_CHECK_OK(report.status());
      EmitCell(name, backend, "ycsb_b_zipf:0.99", *report, nullptr,
               config.cache_stats.get());
      ++cells;
    }
  }
  return cells;
}

// --- Scale sweep: where does sharding pay? -----------------------------------

struct ScaleCase {
  const char* scheme;
  uint64_t log2_n;
  size_t ops;
};

/// Batched schemes at growing n. trivial_pir (one n-block exchange per
/// query) reaches n = 2^20, where a query moves 64 MiB and the per-shard
/// fan-out is pure transport; the crypto-heavy schemes stop earlier to keep
/// the sweep affordable under sanitizer CI runs. Op counts are sized so the
/// steady state dominates: since the transport recycles exchange buffers
/// through a BufferPool, the first op of a cell additionally pays the
/// pool's cold allocations (page-faulting in ~100 MiB at n = 2^20), which
/// at 2 ops/cell would be half the measurement instead of a fraction.
constexpr ScaleCase kScaleCases[] = {
    {"trivial_pir", 12, 16}, {"trivial_pir", 16, 8}, {"trivial_pir", 20, 8},
    {"path_oram", 12, 32},   {"path_oram", 14, 16},
    {"linear_oram", 12, 8},  {"linear_oram", 16, 4},
};
constexpr uint64_t kScaleShards[] = {1, 4, 16, 64};

int SweepScale() {
  int cells = 0;
  for (const ScaleCase& scale : kScaleCases) {
    for (uint64_t shards : kScaleShards) {
      SchemeConfig config;
      config.n = uint64_t{1} << scale.log2_n;
      config.value_size = kRecordSize;
      config.seed = 31337;
      config.backend = "sharded";
      config.shards = shards;
      config.counting_only_transcript = true;  // bounds sweep memory
      auto scheme = SchemeRegistry::Instance().MakeRam(scale.scheme, config);
      DPSTORE_CHECK_OK(scheme.status());
      Rng rng(config.seed);
      auto workload = MakeRamWorkload("uniform", &rng, config.n, scale.ops,
                                      /*write_fraction=*/0.0);
      DPSTORE_CHECK_OK(workload.status());
      auto report = RunRamWorkload(scheme->get(), *workload);
      DPSTORE_CHECK_OK(report.status());
      bench::BenchJson json("throughput_scale_" + std::string(scale.scheme) +
                            "_n" + std::to_string(scale.log2_n) +
                            "_sharded_s" + std::to_string(shards));
      json.Metric("scheme", std::string(scale.scheme));
      json.Metric("backend", std::string("sharded"));
      json.Metric("log2_n", scale.log2_n);
      json.Metric("shards", shards);
      json.Metric("ops", report->operations);
      json.Metric("blocks_per_op", report->BlocksPerOp());
      json.Metric("roundtrips_per_op", report->RoundtripsPerOp());
      json.Metric("lan_ms_per_op", report->LatencyPerOpMs(kLanModel));
      json.Metric("wan_ms_per_op", report->LatencyPerOpMs(kWanModel));
      json.Metric("wall_ms_per_op",
                  report->operations == 0
                      ? 0.0
                      : report->wall_ms /
                            static_cast<double>(report->operations));
      json.Emit();
      ++cells;
    }
  }
  return cells;
}

// --- Socket transport: modeled vs measured -----------------------------------

/// The real-RPC cells: the same scale-sweep shape, but over the `socket`
/// backend (in-process dpstore_server dispatch loop over a socketpair), so
/// every cell reports MEASURED wall-clock per exchange next to the modeled
/// LAN/WAN numbers the CostModel has been standing in with. n stays modest:
/// these cells also run under the sanitizer CI sweeps, where socket I/O
/// pays 5-10x.
constexpr ScaleCase kSocketCases[] = {
    {"trivial_pir", 12, 16},      {"trivial_pir", 16, 8},
    {"path_oram", 12, 32},        {"dp_ram_retrieval", 12, 64},
    {"linear_oram", 12, 8},
};

int SweepSocket() {
  int cells = 0;
  for (const ScaleCase& scale : kSocketCases) {
    SchemeConfig config;
    config.n = uint64_t{1} << scale.log2_n;
    config.value_size = kRecordSize;
    config.seed = 31337;
    config.backend = "socket";  // socketpair fallback: no external server
    config.counting_only_transcript = true;
    auto scheme = SchemeRegistry::Instance().MakeRam(scale.scheme, config);
    DPSTORE_CHECK_OK(scheme.status());
    Rng rng(config.seed);
    auto workload = MakeRamWorkload("uniform", &rng, config.n, scale.ops,
                                    /*write_fraction=*/0.0);
    DPSTORE_CHECK_OK(workload.status());
    auto report = RunRamWorkload(scheme->get(), *workload);
    DPSTORE_CHECK_OK(report.status());
    bench::BenchJson json("throughput_socket_" + std::string(scale.scheme) +
                          "_n" + std::to_string(scale.log2_n));
    json.Metric("scheme", std::string(scale.scheme));
    json.Metric("backend", std::string("socket"));
    json.Metric("log2_n", scale.log2_n);
    json.Metric("ops", report->operations);
    json.Metric("blocks_per_op", report->BlocksPerOp());
    json.Metric("roundtrips_per_op", report->RoundtripsPerOp());
    // The comparison this transport exists for: modeled vs measured.
    json.Metric("lan_ms_per_op_modeled", report->LatencyPerOpMs(kLanModel));
    json.Metric("wan_ms_per_op_modeled", report->LatencyPerOpMs(kWanModel));
    json.Metric("measured_socket_ms_per_op", report->MeasuredMsPerOp());
    json.Metric("wall_ms_per_op",
                report->operations == 0
                    ? 0.0
                    : report->wall_ms /
                          static_cast<double>(report->operations));
    json.Emit();
    ++cells;
  }
  return cells;
}

// --- Pipelined exchange replay ----------------------------------------------

/// Records one Path ORAM main-tree transcript, then replays its per-query
/// exchanges through Submit/Wait at growing pipeline depth on the sharded
/// backend. Depth moves measured wall-clock only — the transport axes (and
/// the replayed bytes) are depth-invariant by contract.
int SweepPipeline() {
  SchemeConfig config;
  config.n = uint64_t{1} << 12;
  config.value_size = kRecordSize;
  config.seed = 271828;
  std::vector<StorageBackend*> observed;
  config.backend_factory = [&observed](uint64_t n, size_t block_size) {
    auto backend = std::make_unique<StorageServer>(n, block_size);
    observed.push_back(backend.get());
    return backend;
  };
  auto scheme = SchemeRegistry::Instance().MakeRam("path_oram", config);
  DPSTORE_CHECK_OK(scheme.status());
  Rng rng(config.seed);
  auto workload = MakeRamWorkload("uniform", &rng, config.n, 64,
                                  /*write_fraction=*/0.25);
  DPSTORE_CHECK_OK(workload.status());
  DPSTORE_CHECK_OK(RunRamWorkload(scheme->get(), *workload).status());
  DPSTORE_CHECK(!observed.empty());
  StorageBackend* main_tree = observed[0];  // built before the posmap orams
  std::vector<StorageRequest> plan = ExchangePlanFromTranscript(
      main_tree->transcript(), main_tree->block_size());

  int cells = 0;
  for (uint64_t shards : {uint64_t{1}, uint64_t{4}, uint64_t{16}}) {
    SchemeConfig sharded;
    sharded.backend = "sharded";
    sharded.shards = shards;
    auto factory = BackendFactoryFor(sharded);
    DPSTORE_CHECK_OK(factory.status());
    for (uint64_t depth : {uint64_t{1}, uint64_t{2}, uint64_t{4},
                           uint64_t{8}}) {
      std::unique_ptr<StorageBackend> backend =
          (*factory)(main_tree->n(), main_tree->block_size());
      auto report = RunExchangePipeline(backend.get(), plan, depth);
      DPSTORE_CHECK_OK(report.status());
      bench::BenchJson json("throughput_pipeline_s" + std::to_string(shards) +
                            "_d" + std::to_string(depth));
      json.Metric("scheme", std::string("path_oram_replay"));
      json.Metric("shards", shards);
      json.Metric("depth", depth);
      json.Metric("exchanges", report->exchanges);
      json.Metric("blocks", report->transport.blocks_moved);
      json.Metric("roundtrips", report->transport.roundtrips);
      json.Metric("wall_ms", report->wall_ms);
      json.Metric("ms_per_exchange", report->MsPerExchange());
      json.Metric("lan_ms_modeled",
                  kLanModel.StatsLatencyMs(report->transport));
      json.Metric("wan_ms_modeled",
                  kWanModel.StatsLatencyMs(report->transport));
      json.Metric("reply_hash", report->reply_hash);
      json.Emit();
      ++cells;
    }
  }
  return cells;
}

// --- Raw transport batches ---------------------------------------------------

std::unique_ptr<StorageBackend> MakeTransportBackend(
    const std::string& backend, uint64_t n, size_t block_size) {
  SchemeConfig config = CellConfig(backend);
  auto factory = BackendFactoryFor(config);
  DPSTORE_CHECK_OK(factory.status());
  return (*factory)(n, block_size);
}

/// Raw transport sweep: how batching amortizes the per-exchange cost on
/// each backend topology. One cell per backend x batch size.
int SweepTransportBatches() {
  constexpr uint64_t kN = 4096;
  constexpr size_t kTransfers = 4096;  // blocks downloaded per cell
  int cells = 0;
  for (const char* backend : kBackends) {
    for (size_t batch : {size_t{1}, size_t{16}, size_t{256}}) {
      auto storage = MakeTransportBackend(backend, kN, kRecordSize);
      Rng rng(7 + batch);
      bench::BenchJson json("throughput_transport_" + std::string(backend) +
                            "_b" + std::to_string(batch));
      storage->BeginQuery();
      for (size_t moved = 0; moved < kTransfers; moved += batch) {
        std::vector<BlockId> indices(batch);
        for (BlockId& index : indices) index = rng.Uniform(kN);
        auto blocks = storage->DownloadMany(indices);
        DPSTORE_CHECK_OK(blocks.status());
      }
      json.Metric("backend", std::string(backend));
      json.Metric("batch", batch);
      json.Metric("blocks", storage->download_count());
      json.Metric("roundtrips", storage->roundtrip_count());
      json.Metric("lan_ms_total",
                  kLanModel.TranscriptLatencyMs(storage->transcript()));
      json.Metric("wan_ms_total",
                  kWanModel.TranscriptLatencyMs(storage->transcript()));
      json.Emit();
      ++cells;
    }
  }
  return cells;
}

}  // namespace
}  // namespace dpstore

int main() {
  dpstore::bench::BenchJson json("throughput");
  int cells = 0;
  cells += dpstore::SweepRamSchemes();
  cells += dpstore::SweepKvsSchemes();
  cells += dpstore::SweepScale();
  cells += dpstore::SweepSocket();
  cells += dpstore::SweepPipeline();
  cells += dpstore::SweepTransportBatches();
  json.Metric("cells", cells);
  json.Emit();
  return 0;
}
