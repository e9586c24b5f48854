// Allocation-regression suite for the flat BlockBuffer transport: the
// counting global allocator (counting_allocator.cc, linked into this binary
// only) meters operator-new calls around steady-state Submit/Wait windows.
//
// The property under test is the tentpole's whole point: once the
// BufferPool has warmed up, an exchange's allocation count is O(1) — a
// small constant independent of how many blocks the exchange names — where
// the vector-of-vectors transport allocated one vector PER BLOCK. The
// assertions compare small-batch and large-batch windows rather than
// pinning absolute counts, so toolchain-dependent incidental allocations
// (status strings, gtest internals) cannot flake the suite.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "counting_allocator.h"
#include "crypto/dpf.h"
#include "storage/block_buffer.h"
#include "storage/engine.h"
#include "storage/server.h"

namespace dpstore {
namespace {

// Allocations per steady-state download exchange of `batch` blocks against
// a warmed-up in-memory server, averaged over `rounds`.
int64_t AllocsPerExchange(StorageServer* server, size_t batch,
                          int rounds = 8) {
  std::vector<BlockId> indices(batch);
  std::iota(indices.begin(), indices.end(), BlockId{0});
  // Warm-up: first exchange pays the pool's cold slab and the ready-queue
  // growth; none of that is steady state.
  for (int i = 0; i < 2; ++i) {
    auto reply = server->Exchange(StorageRequest::DownloadOf(indices));
    EXPECT_TRUE(reply.ok());
  }
  test::AllocationWindow window;
  for (int i = 0; i < rounds; ++i) {
    auto reply = server->Exchange(StorageRequest::DownloadOf(indices));
    EXPECT_TRUE(reply.ok());
  }
  return window.Delta() / rounds;
}

TEST(AllocationTest, CounterSeesAllocations) {
  test::AllocationWindow window;
  auto* p = new std::vector<int>(100);
  delete p;
  EXPECT_GE(window.Delta(), 1);
}

TEST(AllocationTest, SteadyStateExchangeAllocationsAreO1NotOBlocks) {
  StorageServer server(4096, 64);
  server.SetTranscriptCountingOnly(true);  // event recording is O(blocks)

  const int64_t small = AllocsPerExchange(&server, 16);
  const int64_t large = AllocsPerExchange(&server, 2048);

  // O(1): the per-exchange allocation count must not grow with the batch.
  // (The old transport allocated one vector per block: small=16ish,
  // large=2048ish. The flat transport allocates the request's index vector
  // and nothing else once the reply pool is warm.)
  EXPECT_EQ(small, large) << "per-exchange allocations scale with batch size";
  EXPECT_LE(large, 4) << "steady-state exchange should be allocation-free "
                         "beyond the caller's own index vector";
}

TEST(AllocationTest, SteadyStateUploadAllocationsAreO1) {
  StorageServer server(4096, 64);
  server.SetTranscriptCountingOnly(true);

  auto allocs_per_upload = [&server](size_t batch, int rounds = 8) {
    std::vector<BlockId> indices(batch);
    std::iota(indices.begin(), indices.end(), BlockId{0});
    BlockBuffer payload = BlockBuffer::Zeroed(batch, 64);
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(
          server.Exchange(StorageRequest::UploadOf(indices, payload)).ok());
    }
    test::AllocationWindow window;
    for (int i = 0; i < rounds; ++i) {
      EXPECT_TRUE(
          server.Exchange(StorageRequest::UploadOf(indices, payload)).ok());
    }
    return window.Delta() / rounds;
  };

  const int64_t small = allocs_per_upload(16);
  const int64_t large = allocs_per_upload(2048);
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 6);
}

TEST(AllocationTest, BufferPoolRecyclesReplySlabs) {
  StorageServer server(1024, 32);
  server.SetTranscriptCountingOnly(true);
  std::vector<BlockId> indices(512);
  std::iota(indices.begin(), indices.end(), BlockId{0});
  // One cold exchange, then the reply slab must round-trip through the
  // pool: repeated equal-size exchanges with the reply destroyed between
  // them never allocate a fresh slab.
  { auto r = server.Exchange(StorageRequest::DownloadOf(indices)); }
  test::AllocationWindow window;
  for (int i = 0; i < 4; ++i) {
    auto reply = server.Exchange(StorageRequest::DownloadOf(indices));
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->blocks.size(), indices.size());
  }
  // The request's own index-vector copy is the only allocation allowed.
  EXPECT_LE(window.Delta(), 4 * 2);
}

TEST(AllocationTest, DpfEvalAllocationsDoNotGrowWithTheDomain) {
  // A kDpfEval exchange evaluates its key fused with the scan, a chunk of
  // leaves at a time in a fixed buffer, so nothing it allocates scales
  // with 2^depth: the same number of allocations and the same bytes at
  // depth 20 (where a materialized selection vector would be 128 KiB) as
  // at depth 14.
  struct PerExchange {
    int64_t allocations;
    int64_t bytes;
  };
  auto per_eval = [](uint8_t depth, int rounds = 8) {
    StorageServer server(uint64_t{1} << depth, 16);
    server.SetTranscriptCountingOnly(true);
    auto keys = crypto::DpfGen(3, depth);
    EXPECT_TRUE(keys.ok());
    const StorageRequest request =
        StorageRequest::DpfEvalOf(keys->key0.Serialize());
    for (int i = 0; i < 2; ++i) {  // warm the reply pool
      EXPECT_TRUE(server.Exchange(request).ok());
    }
    test::AllocationWindow window;
    for (int i = 0; i < rounds; ++i) {
      EXPECT_TRUE(server.Exchange(request).ok());
    }
    return PerExchange{window.Delta() / rounds, window.DeltaBytes() / rounds};
  };
  const PerExchange small = per_eval(14);
  const PerExchange large = per_eval(20);
  EXPECT_EQ(small.allocations, large.allocations)
      << "per-eval allocations scale with the DPF domain";
  // Only the key grows with depth: the request copy by 17 B and the parsed
  // correction words by 18 B per tree level, 210 B over these 6 levels. A
  // selection vector would add 126 KiB.
  EXPECT_LT(large.bytes - small.bytes, 1024)
      << "per-eval bytes scale with the DPF domain (depth 14: " << small.bytes
      << " B, depth 20: " << large.bytes << " B)";
}

TEST(AllocationTest, JournalAppendPathIsAllocationFreeInSteadyState) {
  // PR 8 extends the zero-steady-state-allocation invariant to the
  // durability path: a journaled upload encodes into the journal's
  // scratch buffer (which only grows, never reallocates once warm), so
  // per-exchange allocations must stay O(1) in the batch size with
  // persistence on, exactly as in-memory.
  char tmpl[] = "/tmp/dpstore_alloc_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);

  StorageEngineOptions options;
  options.persist.data_dir = dir;
  // Group commit is exercised via SyncJournal below; rotation is pushed
  // out of the measurement window (its open()/path strings are amortized
  // over journal_segment_bytes, not steady state).
  options.persist.sync_uploads = false;
  options.persist.journal_segment_bytes = 256u << 20;
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto ns = (*engine)->Attach(1, 4096, 64, AttachMode::kAttachOrCreate);
  ASSERT_TRUE(ns.ok()) << ns.status();

  auto allocs_per_upload = [&](size_t batch, int rounds = 8) {
    std::vector<BlockId> indices(batch);
    std::iota(indices.begin(), indices.end(), BlockId{0});
    const StorageRequest request =
        StorageRequest::UploadOf(indices, BlockBuffer::Zeroed(batch, 64));
    for (int i = 0; i < 2; ++i) {  // warm pool + journal scratch
      EXPECT_TRUE((*engine)->ExecuteBatch(0, *ns, request).ok());
      EXPECT_TRUE((*engine)->SyncJournal().ok());
    }
    test::AllocationWindow window;
    for (int i = 0; i < rounds; ++i) {
      EXPECT_TRUE((*engine)->ExecuteBatch(0, *ns, request).ok());
      EXPECT_TRUE((*engine)->SyncJournal().ok());
    }
    return window.Delta() / rounds;
  };

  const int64_t small = allocs_per_upload(16);
  const int64_t large = allocs_per_upload(2048);
  EXPECT_EQ(small, large)
      << "journaled upload allocations scale with batch size";
  EXPECT_LE(large, 4) << "journal append path allocates in steady state";

  *ns = NamespaceHandle();  // detach before the engine checkpoints
  engine->reset();
  // Best-effort cleanup of the data dir this test created under /tmp.
  const std::string base = dir;
  if (DIR* d = opendir(base.c_str())) {
    while (dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") {
        std::remove((base + "/" + name).c_str());
      }
    }
    closedir(d);
  }
  rmdir(base.c_str());
}

}  // namespace
}  // namespace dpstore
