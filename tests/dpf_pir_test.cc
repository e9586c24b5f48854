// Two-server DPF PIR suite. The load-bearing properties: dpf_pir answers
// are bit-identical to xor_pir's and trivial_pir's on every storage
// topology in the registry (the kDpfEval exchange composes through
// sharding, caching and the socket codec without changing a byte), each
// replica's transcript shows exactly one O(lambda log n) key up and one
// block down per query, and the multi_server_dp_ir DPF mode keeps its
// correctness/alpha contract. When DPSTORE_SERVER_BIN names the
// dpstore_server binary, the two keys of one query additionally cross
// into two genuinely separate server processes.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/multi_server_dp_ir.h"
#include "core/scheme_registry.h"
#include "crypto/dpf.h"
#include "pir/dpf_pir.h"
#include "server_harness.h"
#include "storage/server.h"

namespace dpstore {
namespace {

constexpr uint64_t kN = 64;
constexpr size_t kBlockSize = 32;

std::vector<Block> MakeDatabase(uint64_t n, size_t block_size) {
  std::vector<Block> db(n);
  for (uint64_t i = 0; i < n; ++i) db[i] = MarkerBlock(i, block_size);
  return db;
}

std::unique_ptr<StorageServer> MakeReplica(uint64_t n, size_t block_size) {
  auto server = std::make_unique<StorageServer>(n, block_size);
  DPSTORE_CHECK_OK(server->SetArray(MakeDatabase(n, block_size)));
  return server;
}

SchemeConfig SmallConfig(const std::string& backend) {
  SchemeConfig config;
  config.n = kN;
  config.value_size = kBlockSize;
  config.seed = 42;
  config.backend = backend;
  config.shards = 3;  // does not divide the arena evenly
  config.cache_blocks = 16;
  return config;
}

TEST(DpfPirTest, RecoversEveryBlock) {
  auto s0 = MakeReplica(kN, kBlockSize);
  auto s1 = MakeReplica(kN, kBlockSize);
  TwoServerDpfPir pir(s0.get(), s1.get());
  EXPECT_EQ(pir.n(), kN);
  EXPECT_EQ(pir.block_size(), kBlockSize);
  EXPECT_EQ(pir.domain_depth(), 6);
  for (BlockId i = 0; i < kN; ++i) {
    auto got = pir.Query(i);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(IsMarkerBlock(*got, i)) << "block " << i;
  }
}

TEST(DpfPirTest, NonPowerOfTwoDomainsRoundUp) {
  // n = 100 -> depth 7: selection bits for points in [100, 128) land
  // beyond both arenas and are never read, identically on both sides.
  auto s0 = MakeReplica(100, kBlockSize);
  auto s1 = MakeReplica(100, kBlockSize);
  TwoServerDpfPir pir(s0.get(), s1.get());
  EXPECT_EQ(pir.domain_depth(), 7);
  for (BlockId i : {BlockId{0}, BlockId{63}, BlockId{64}, BlockId{99}}) {
    auto got = pir.Query(i);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(IsMarkerBlock(*got, i)) << "block " << i;
  }
  // n = 1 is the depth floor.
  auto t0 = MakeReplica(1, kBlockSize);
  auto t1 = MakeReplica(1, kBlockSize);
  TwoServerDpfPir tiny(t0.get(), t1.get());
  EXPECT_EQ(tiny.domain_depth(), 1);
  auto got = tiny.Query(0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(IsMarkerBlock(*got, 0));
}

TEST(DpfPirTest, PerReplicaTranscriptIsOneKeyUpOneBlockDown) {
  auto s0 = MakeReplica(kN, kBlockSize);
  auto s1 = MakeReplica(kN, kBlockSize);
  TwoServerDpfPir pir(s0.get(), s1.get());
  EXPECT_EQ(pir.QueryBytesPerServer(), crypto::DpfKeyBytes(6));

  const TransportStats before0 = s0->Stats();
  const TransportStats before1 = s1->Stats();
  ASSERT_TRUE(pir.Query(17).ok());
  for (const TransportStats& delta :
       {s0->Stats() - before0, s1->Stats() - before1}) {
    EXPECT_EQ(delta.roundtrips, 1u);
    EXPECT_EQ(delta.blocks_moved, 1u);
    EXPECT_EQ(delta.bytes_moved, kBlockSize);
    EXPECT_EQ(delta.aux_bytes, pir.QueryBytesPerServer());
  }
  // The acceptance bound the bench measures at n = 2^20: a key is still
  // well under 4 KiB per replica there (and at the depth cap).
  EXPECT_LE(crypto::DpfKeyBytes(20), 4096u);
  EXPECT_LE(crypto::DpfKeyBytes(crypto::kMaxDpfDepth), 4096u);
}

// The cross-scheme equivalence matrix: on every registered topology, the
// same marker database must come back byte-for-byte identical through
// dpf_pir, xor_pir, and trivial_pir. The socket leg pushes the serialized
// key through the full wire codec into the in-process socketpair server.
TEST(DpfPirTest, AnswersBitIdenticalToXorAndTrivialPirOnEveryBackend) {
  for (const std::string& backend :
       {std::string("memory"), std::string("sharded"), std::string("cached"),
        std::string("socket")}) {
    SCOPED_TRACE(backend);
    auto dpf = SchemeRegistry::Instance().MakeRam("dpf_pir",
                                                  SmallConfig(backend));
    ASSERT_TRUE(dpf.ok()) << dpf.status();
    auto xorp = SchemeRegistry::Instance().MakeRam("xor_pir",
                                                   SmallConfig(backend));
    ASSERT_TRUE(xorp.ok()) << xorp.status();
    auto trivial = SchemeRegistry::Instance().MakeRam("trivial_pir",
                                                      SmallConfig(backend));
    ASSERT_TRUE(trivial.ok()) << trivial.status();
    for (BlockId id : {BlockId{0}, BlockId{1}, BlockId{kN / 2},
                       BlockId{kN - 1}}) {
      auto a = (*dpf)->QueryRead(id);
      auto b = (*xorp)->QueryRead(id);
      auto c = (*trivial)->QueryRead(id);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok() && c.ok());
      ASSERT_TRUE(a->has_value() && b->has_value() && c->has_value());
      EXPECT_EQ(**a, **b) << "dpf_pir vs xor_pir at " << id;
      EXPECT_EQ(**a, **c) << "dpf_pir vs trivial_pir at " << id;
      EXPECT_TRUE(IsMarkerBlock(**a, id));
    }
    EXPECT_EQ((*dpf)->QueryRead(kN).status().code(),
              StatusCode::kOutOfRange);
    // Query compression, visible in the transport ledger: dpf_pir ships
    // two short keys per query where xor_pir ships 2n selection bits.
    const TransportStats dpf_stats = (*dpf)->TransportTotals();
    const TransportStats xor_stats = (*xorp)->TransportTotals();
    EXPECT_GT(dpf_stats.aux_bytes, 0u);
    EXPECT_EQ(dpf_stats.aux_bytes % (2 * crypto::DpfKeyBytes(6)), 0u);
    EXPECT_GT(xor_stats.aux_bytes, 0u);
    EXPECT_EQ(dpf_stats.bytes_moved % dpf_stats.blocks_moved, 0u);
  }
}

TEST(MultiServerDpIrDpfTest, DpfModeReturnsRealBlockOrErrorBranch) {
  auto r0 = MakeReplica(128, kBlockSize);
  auto r1 = MakeReplica(128, kBlockSize);
  MultiServerDpIrOptions options;
  options.num_servers = 2;
  options.epsilon = 3.0;
  options.alpha = 0.2;
  options.seed = 11;
  options.use_dpf = true;
  MultiServerDpIr ir({r0.get(), r1.get()}, options);
  int answered = 0, errors = 0;
  constexpr int kTrials = 600;
  for (int t = 0; t < kTrials; ++t) {
    BlockId q = static_cast<BlockId>(t) % 128;
    auto got = ir.Query(q);
    ASSERT_TRUE(got.ok()) << got.status();
    if (got->has_value()) {
      EXPECT_TRUE(IsMarkerBlock(**got, q)) << "block " << q;
      ++answered;
    } else {
      ++errors;
    }
  }
  // Error branch fires with probability alpha = 0.2.
  EXPECT_NEAR(static_cast<double>(errors) / kTrials, 0.2, 0.06);
  EXPECT_GT(answered, 0);
  EXPECT_EQ(ir.Query(128).status().code(), StatusCode::kOutOfRange);
}

TEST(MultiServerDpIrDpfTest, TranscriptShapeIsBranchIndependent) {
  // Both the real and the alpha-error branch must submit the same
  // exchange shape per replica: one K-subset download plus one eval.
  auto r0 = MakeReplica(64, kBlockSize);
  auto r1 = MakeReplica(64, kBlockSize);
  MultiServerDpIrOptions options;
  options.num_servers = 2;
  options.epsilon = 2.0;
  options.alpha = 0.5;  // both branches taken often
  options.seed = 3;
  options.use_dpf = true;
  MultiServerDpIr ir({r0.get(), r1.get()}, options);
  for (int t = 0; t < 40; ++t) {
    const TransportStats before0 = r0->Stats();
    const TransportStats before1 = r1->Stats();
    ASSERT_TRUE(ir.Query(9).ok());
    for (const TransportStats& delta :
         {r0->Stats() - before0, r1->Stats() - before1}) {
      // K downloaded blocks + 1 eval block, 2 roundtrips (subset + eval),
      // one key of aux bytes — identically whichever branch was rolled.
      EXPECT_EQ(delta.blocks_moved, ir.k() + 1);
      EXPECT_EQ(delta.roundtrips, 2u);
      EXPECT_EQ(delta.aux_bytes, crypto::DpfKeyBytes(6));
    }
  }
}

// --- Two genuinely separate server processes ---------------------------------
// Process plumbing (spawn/stop) lives in server_harness.h, shared with the
// crash-recovery suite.

using test::SpawnServer;
using test::StopServer;

TEST(DpfPirTest, TwoSeparateServerProcessesAnswerEquivalently) {
  const std::string bin = test::ServerBinary();
  if (bin.empty()) {
    GTEST_SKIP() << "set DPSTORE_SERVER_BIN to the dpstore_server binary "
                    "to run the two-process test";
  }
  const std::string path0 =
      "/tmp/dpstore_dpf_pir_a_" + std::to_string(getpid()) + ".sock";
  const std::string path1 =
      "/tmp/dpstore_dpf_pir_b_" + std::to_string(getpid()) + ".sock";
  const pid_t pid0 = SpawnServer(bin, path0);
  ASSERT_GT(pid0, 0) << "failed to launch " << bin;
  const pid_t pid1 = SpawnServer(bin, path1);
  if (pid1 <= 0) StopServer(pid0);
  ASSERT_GT(pid1, 0) << "failed to launch second " << bin;

  {
    // socket_path2 routes replica 1 to the second process, so the two
    // keys of each query genuinely land in different address spaces.
    SchemeConfig config = SmallConfig("socket");
    config.socket_path = path0;
    config.socket_path2 = path1;
    auto dpf = SchemeRegistry::Instance().MakeRam("dpf_pir", config);
    ASSERT_TRUE(dpf.ok()) << dpf.status();
    auto reference = SchemeRegistry::Instance().MakeRam(
        "trivial_pir", SmallConfig("memory"));
    ASSERT_TRUE(reference.ok());
    for (BlockId id : {BlockId{0}, BlockId{7}, BlockId{kN - 1}}) {
      auto got = (*dpf)->QueryRead(id);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(got->has_value());
      auto want = (*reference)->QueryRead(id);
      ASSERT_TRUE(want.ok() && want->has_value());
      EXPECT_EQ(**got, **want) << "block " << id;
    }
    // Backends must be destroyed (connections closed) before SIGTERM so
    // the graceful drain sees no live clients.
  }
  StopServer(pid0);
  StopServer(pid1);
  std::remove(path0.c_str());
  std::remove(path1.c_str());
}

}  // namespace
}  // namespace dpstore
