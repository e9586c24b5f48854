// The registry's "sharded" backend as an asynchronous exchange backend: a
// ClusterBackend of `shards` single-slot ranges over in-memory
// StorageServer legs. Covers routing across shard counts (K | n, K not
// dividing n, K > n), request order with duplicates on both the
// whole-batch forwarding path and the reassembling path, many exchanges
// submitted before any is waited on, faults rolled once per exchange at
// Submit, counting-only transcripts reaching every leg, and the in-process
// proof that every RAM and KVS scheme on "sharded" answers bit-identically
// to "memory" with equal aggregate transport.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/workload.h"
#include "core/scheme_registry.h"
#include "storage/block.h"
#include "storage/cluster.h"
#include "util/random.h"

namespace dpstore {
namespace {

constexpr uint64_t kN = 64;
constexpr size_t kBlockSize = 32;

std::vector<Block> MakeDatabase(uint64_t n, size_t block_size) {
  std::vector<Block> db(n);
  for (uint64_t i = 0; i < n; ++i) db[i] = MarkerBlock(i, block_size);
  return db;
}

// --- Routing and exchanges ---------------------------------------------------

/// The registry's "sharded" backend: a ClusterBackend over `shards`
/// single-slot ranges with in-memory legs. Null (after a test failure) if
/// the registry refuses the config.
std::unique_ptr<ClusterBackend> MakeSharded(uint64_t n, size_t block_size,
                                            uint64_t shards,
                                            bool counting_only = false) {
  SchemeConfig config;
  config.backend = "sharded";
  config.shards = shards;
  config.counting_only_transcript = counting_only;
  auto factory = BackendFactoryFor(config);
  EXPECT_TRUE(factory.ok()) << factory.status();
  if (!factory.ok()) return nullptr;
  std::unique_ptr<StorageBackend> backend = (*factory)(n, block_size);
  auto* cluster = dynamic_cast<ClusterBackend*>(backend.get());
  EXPECT_NE(cluster, nullptr);
  if (cluster == nullptr) return nullptr;
  backend.release();
  return std::unique_ptr<ClusterBackend>(cluster);
}

TEST(ShardedRoutingTest, RoutesEveryAddressAcrossShardCounts) {
  constexpr uint64_t n = 10;
  // Includes the non-divisible cases (3, 4, 7) and K > n (13).
  for (uint64_t shards : {1u, 2u, 3u, 4u, 7u, 10u, 13u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::unique_ptr<ClusterBackend> backend = MakeSharded(n, 8, shards);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->n(), n);
    ASSERT_EQ(backend->config().ranges().size(), shards);
    for (BlockId i = 0; i < n; ++i) {
      ASSERT_TRUE(backend->Upload(i, MarkerBlock(i, 8)).ok());
    }
    // The ranges tile [0, n): legs hold exactly n blocks between them, and
    // the trailing ranges of a K > n partition hold none (and no leg).
    uint64_t total_held = 0;
    for (size_t r = 0; r < shards; ++r) {
      auto [lo, hi] = backend->RangeBlocks(r);
      StorageBackend* leg = backend->leg(r);
      EXPECT_EQ(leg == nullptr ? 0 : leg->n(), hi - lo) << "range " << r;
      total_held += hi - lo;
    }
    EXPECT_EQ(total_held, n);
    for (BlockId i = 0; i < n; ++i) {
      auto got = backend->Download(i);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(IsMarkerBlock(*got, i)) << "i=" << i;
      EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(i), i));
    }
    EXPECT_EQ(backend->Download(n).status().code(), StatusCode::kOutOfRange);
  }
}

TEST(ShardedRoutingTest, SetArraySplitsAcrossShards) {
  constexpr uint64_t n = 7;
  std::unique_ptr<ClusterBackend> backend = MakeSharded(n, 8, 3);
  ASSERT_NE(backend, nullptr);
  ASSERT_TRUE(backend->SetArray(MakeDatabase(n, 8)).ok());
  EXPECT_EQ(backend->leg(0)->n(), 3u);  // ranges hold 3, 3, 1
  EXPECT_EQ(backend->leg(2)->n(), 1u);
  for (BlockId i = 0; i < n; ++i) {
    EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(i), i));
  }
  // Setup is not part of the adversary's view.
  EXPECT_EQ(backend->transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(backend->SetArray(MakeDatabase(n - 1, 8)).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedRoutingTest, BatchedSpanningShardsMatchesSequential) {
  constexpr uint64_t n = 10;
  std::unique_ptr<ClusterBackend> batched = MakeSharded(n, 8, 3);
  std::unique_ptr<ClusterBackend> sequential = MakeSharded(n, 8, 3);
  ASSERT_NE(batched, nullptr);
  ASSERT_NE(sequential, nullptr);
  ASSERT_TRUE(batched->SetArray(MakeDatabase(n, 8)).ok());
  ASSERT_TRUE(sequential->SetArray(MakeDatabase(n, 8)).ok());

  // Spans all three shards, out of order, with duplicates.
  const std::vector<BlockId> indices = {9, 0, 4, 5, 0, 8, 2};
  batched->BeginQuery();
  sequential->BeginQuery();
  auto many = batched->DownloadMany(indices);
  ASSERT_TRUE(many.ok());
  std::vector<Block> singles;
  for (BlockId index : indices) {
    auto one = sequential->Download(index);
    ASSERT_TRUE(one.ok());
    singles.push_back(*one);
  }
  EXPECT_EQ(*many, singles);
  // The top-level transcript records global addresses in request order.
  EXPECT_EQ(batched->transcript().events(), sequential->transcript().events());
  // Batched fan-out is ONE roundtrip regardless of shards touched.
  EXPECT_EQ(batched->roundtrip_count(), 1u);
  EXPECT_EQ(sequential->roundtrip_count(), indices.size());
}

TEST(ShardedRoutingTest, BatchedUploadRoutesAndRecords) {
  constexpr uint64_t n = 10;
  std::unique_ptr<ClusterBackend> backend = MakeSharded(n, 8, 4);
  ASSERT_NE(backend, nullptr);
  const std::vector<BlockId> indices = {7, 1, 9};
  std::vector<Block> blocks;
  for (BlockId index : indices) blocks.push_back(MarkerBlock(50 + index, 8));
  backend->BeginQuery();
  ASSERT_TRUE(backend->UploadMany(indices, std::move(blocks)).ok());
  for (BlockId index : indices) {
    EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(index), 50 + index));
  }
  EXPECT_EQ(backend->upload_count(), indices.size());
  EXPECT_EQ(backend->roundtrip_count(), 0u);
}

/// Whole-batch exchanges on one shard forward their leg's reply buffer;
/// every other shape reassembles. Both must answer in request order.
TEST(ShardedRoutingTest, DownloadResultsMatchRequestOrderWithDupes) {
  constexpr uint64_t n = 12;
  for (uint64_t shards : {1u, 5u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::unique_ptr<ClusterBackend> backend = MakeSharded(n, 8, shards);
    ASSERT_NE(backend, nullptr);
    ASSERT_TRUE(backend->SetArray(MakeDatabase(n, 8)).ok());
    // Spanning (5 shards) and whole-batch on shard 0 (both topologies).
    for (const std::vector<BlockId>& indices :
         {std::vector<BlockId>{11, 0, 5, 5, 3, 11, 7},
          std::vector<BlockId>{2, 0, 2, 1}}) {
      auto got = backend->DownloadMany(indices);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), indices.size());
      for (size_t i = 0; i < indices.size(); ++i) {
        EXPECT_TRUE(IsMarkerBlock((*got)[i], indices[i])) << i;
      }
    }
    EXPECT_EQ(backend->roundtrip_count(), 2u);
  }
}

TEST(ShardedRoutingTest, ManyExchangesInFlightResolveCorrectly) {
  constexpr uint64_t n = 64;
  std::unique_ptr<ClusterBackend> backend = MakeSharded(n, 8, 4);
  ASSERT_NE(backend, nullptr);
  ASSERT_TRUE(backend->SetArray(MakeDatabase(n, 8)).ok());

  // Submit 32 download exchanges before waiting on any.
  std::vector<Ticket> tickets;
  std::vector<std::vector<BlockId>> wanted;
  for (uint64_t q = 0; q < 32; ++q) {
    std::vector<BlockId> indices = {q % n, (3 * q + 1) % n, (7 * q) % n};
    tickets.push_back(backend->Submit(StorageRequest::DownloadOf(indices)));
    wanted.push_back(std::move(indices));
  }
  for (size_t q = 0; q < tickets.size(); ++q) {
    auto reply = backend->Wait(tickets[q]);
    ASSERT_TRUE(reply.ok()) << q;
    ASSERT_EQ(reply->blocks.size(), wanted[q].size());
    for (size_t i = 0; i < wanted[q].size(); ++i) {
      EXPECT_TRUE(IsMarkerBlock(reply->blocks[i], wanted[q][i]));
    }
  }
  // 32 exchanges, one roundtrip each, all events recorded.
  EXPECT_EQ(backend->roundtrip_count(), 32u);
  EXPECT_EQ(backend->download_count(), 96u);
}

TEST(ShardedRoutingTest, CorruptRoutesToShards) {
  std::unique_ptr<ClusterBackend> backend = MakeSharded(6, 8, 2);
  ASSERT_NE(backend, nullptr);
  ASSERT_TRUE(backend->SetArray(MakeDatabase(6, 8)).ok());
  backend->CorruptBlock(5);
  EXPECT_FALSE(IsMarkerBlock(backend->PeekBlock(5), 5));
  EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(4), 4));
}

TEST(ShardedRoutingTest, InjectedFaultsFailSpanningBatchesAtomically) {
  constexpr uint64_t n = 6;
  std::unique_ptr<ClusterBackend> backend = MakeSharded(n, 8, 2);
  ASSERT_NE(backend, nullptr);
  ASSERT_TRUE(backend->SetArray(MakeDatabase(n, 8)).ok());
  backend->SetFailureRate(1.0);
  EXPECT_EQ(backend->Download(0).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(backend->DownloadMany({0, 5}).status().code(),
            StatusCode::kUnavailable);
  // A failed spanning write-back must leave EVERY shard untouched: faults
  // are rolled once per exchange at Submit, never mid-fan-out.
  EXPECT_EQ(backend->UploadMany({0, 5}, {ZeroBlock(8), ZeroBlock(8)}).code(),
            StatusCode::kUnavailable);
  for (BlockId i = 0; i < n; ++i) {
    EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(i), i)) << i;
  }
  EXPECT_EQ(backend->transcript().TotalBlocksMoved(), 0u);
  // An injected fault is not a dead node.
  EXPECT_EQ(backend->failovers(), 0u);
  backend->SetFailureRate(0.0);
  EXPECT_TRUE(backend->Download(0).ok());
}

TEST(ShardedRoutingTest, CountingOnlyPropagatesToShards) {
  // Switched on after construction, and born counting-only via the
  // registry's counting_only_transcript.
  for (bool born_counting : {false, true}) {
    SCOPED_TRACE(born_counting ? "born counting-only" : "switched");
    std::unique_ptr<ClusterBackend> backend =
        MakeSharded(6, 8, 2, born_counting);
    ASSERT_NE(backend, nullptr);
    if (!born_counting) backend->SetTranscriptCountingOnly(true);
    backend->BeginQuery();
    ASSERT_TRUE(backend->DownloadMany({0, 5}).ok());
    EXPECT_TRUE(backend->transcript().events().empty());
    EXPECT_TRUE(backend->leg(0)->transcript().events().empty());
    EXPECT_TRUE(backend->leg(1)->transcript().events().empty());
    EXPECT_EQ(backend->download_count(), 2u);
    EXPECT_EQ(backend->leg(0)->download_count(), 1u);
    EXPECT_EQ(backend->leg(1)->download_count(), 1u);
  }
}

TEST(ShardedRoutingTest, RegistryRejectsZeroShards) {
  SchemeConfig config;
  config.backend = "sharded";
  config.shards = 0;
  EXPECT_EQ(BackendFactoryFor(config).status().code(),
            StatusCode::kInvalidArgument);
}

// --- sharded == memory, every scheme, in-process -----------------------------

/// The shard counts the in-process equivalence covers: K = 1 (the
/// whole-batch forwarding path), K | n, K not dividing n, and K > n for the
/// schemes' smaller auxiliary arenas.
constexpr uint64_t kShardCounts[] = {1, 3, 4, 7, 13};

SchemeConfig ShardedConfig(uint64_t seed, uint64_t shards) {
  SchemeConfig config;
  config.n = kN;
  config.value_size = kBlockSize;
  config.seed = seed;
  config.shards = shards;
  return config;
}

/// Every RAM scheme on "sharded" answers bit-identically to the same
/// scheme on "memory" (schemes draw their coins from the seed, never from
/// the backend), with equal aggregate transport.
TEST(ShardedEquivalenceTest, EveryRamSchemeMatchesMemory) {
  for (uint64_t shards : kShardCounts) {
    for (const std::string& name :
         SchemeRegistry::Instance().RamSchemeNames()) {
      SCOPED_TRACE(name + " shards=" + std::to_string(shards));
      SchemeConfig config = ShardedConfig(20260728, shards);
      auto memory = SchemeRegistry::Instance().MakeRam(name, config);
      ASSERT_TRUE(memory.ok()) << memory.status();
      config.backend = "sharded";
      auto sharded = SchemeRegistry::Instance().MakeRam(name, config);
      ASSERT_TRUE(sharded.ok()) << sharded.status();

      Rng workload_rng(7);
      auto workload = MakeRamWorkload("zipf:0.99", &workload_rng, kN, 20,
                                      /*write_fraction=*/0.25);
      ASSERT_TRUE(workload.ok());
      for (const RamQuery& query : *workload) {
        if (query.is_write && (*memory)->SupportsWrite()) {
          Block value = MarkerBlock(1000 + query.index, kBlockSize);
          ASSERT_TRUE((*memory)->QueryWrite(query.index, value).ok());
          ASSERT_TRUE((*sharded)->QueryWrite(query.index, value).ok());
          continue;
        }
        auto want = (*memory)->QueryRead(query.index);
        auto got = (*sharded)->QueryRead(query.index);
        ASSERT_TRUE(want.ok()) << want.status();
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(want->has_value(), got->has_value());
        if (want->has_value()) {
          EXPECT_EQ(**want, **got);
        }
      }
      EXPECT_TRUE((*memory)->TransportTotals() ==
                  (*sharded)->TransportTotals());
    }
  }
}

TEST(ShardedEquivalenceTest, EveryKvsSchemeMatchesMemory) {
  for (uint64_t shards : kShardCounts) {
    for (const std::string& name :
         SchemeRegistry::Instance().KvsSchemeNames()) {
      SCOPED_TRACE(name + " shards=" + std::to_string(shards));
      SchemeConfig config = ShardedConfig(99, shards);
      auto memory = SchemeRegistry::Instance().MakeKvs(name, config);
      ASSERT_TRUE(memory.ok()) << memory.status();
      config.backend = "sharded";
      auto sharded = SchemeRegistry::Instance().MakeKvs(name, config);
      ASSERT_TRUE(sharded.ok()) << sharded.status();

      Rng rng(5);
      KvsSequence ops = YcsbKvsSequence(&rng, 32, 40, /*read_fraction=*/0.5,
                                        /*zipf_s=*/0.99);
      for (const KvsOp& op : ops) {
        switch (op.type) {
          case KvsOp::Type::kGet: {
            auto want = (*memory)->Get(op.key);
            auto got = (*sharded)->Get(op.key);
            ASSERT_TRUE(want.ok() && got.ok());
            ASSERT_EQ(want->has_value(), got->has_value());
            if (want->has_value()) {
              EXPECT_EQ(**want, **got);
            }
            break;
          }
          case KvsOp::Type::kPut: {
            KvsScheme::Value value = MarkerBlock(op.key, kBlockSize);
            ASSERT_TRUE((*memory)->Put(op.key, value).ok());
            ASSERT_TRUE((*sharded)->Put(op.key, value).ok());
            break;
          }
          case KvsOp::Type::kErase:
            if ((*memory)->SupportsErase()) {
              ASSERT_TRUE((*memory)->Erase(op.key).ok());
              ASSERT_TRUE((*sharded)->Erase(op.key).ok());
            }
            break;
        }
      }
      EXPECT_TRUE((*memory)->TransportTotals() ==
                  (*sharded)->TransportTotals());
    }
  }
}

}  // namespace
}  // namespace dpstore
