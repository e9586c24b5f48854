// Tests for the storage transport seam: batched-vs-sequential equivalence,
// roundtrip accounting, counting-only transcripts, the Submit/Wait
// contract (ticket misuse, free no-op exchanges) uniformly across the
// registry's backends, and pipeline-depth invariance of replayed
// exchange plans. Sharded routing itself is covered in cluster_test.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/cost_model.h"
#include "analysis/driver.h"
#include "analysis/workload.h"
#include "storage/backend.h"
#include "storage/server.h"
#include "core/scheme_registry.h"

namespace dpstore {
namespace {

std::vector<Block> MakeDatabase(uint64_t n, size_t block_size) {
  std::vector<Block> db(n);
  for (uint64_t i = 0; i < n; ++i) db[i] = MarkerBlock(i, block_size);
  return db;
}

// --- Batched vs sequential equivalence --------------------------------------

TEST(BatchedOpsTest, DownloadManyMatchesSequentialDownloads) {
  constexpr uint64_t kN = 16;
  StorageServer batched(kN, 8);
  StorageServer sequential(kN, 8);
  ASSERT_TRUE(batched.SetArray(MakeDatabase(kN, 8)).ok());
  ASSERT_TRUE(sequential.SetArray(MakeDatabase(kN, 8)).ok());

  const std::vector<BlockId> indices = {3, 0, 15, 3, 7};  // dupes allowed
  batched.BeginQuery();
  sequential.BeginQuery();
  auto many = batched.DownloadMany(indices);
  ASSERT_TRUE(many.ok());
  std::vector<Block> singles;
  for (BlockId index : indices) {
    auto one = sequential.Download(index);
    ASSERT_TRUE(one.ok());
    singles.push_back(*one);
  }

  // Identical results and identical transcript events, in order.
  EXPECT_EQ(*many, singles);
  EXPECT_EQ(batched.transcript().events(), sequential.transcript().events());
  EXPECT_EQ(batched.download_count(), indices.size());
  // The batch is ONE roundtrip; the sequential run paid one per block.
  EXPECT_EQ(batched.roundtrip_count(), 1u);
  EXPECT_EQ(sequential.roundtrip_count(), indices.size());
}

TEST(BatchedOpsTest, UploadManyMatchesSequentialUploads) {
  constexpr uint64_t kN = 8;
  StorageServer batched(kN, 8);
  StorageServer sequential(kN, 8);

  const std::vector<BlockId> indices = {1, 4, 6};
  std::vector<Block> blocks;
  for (BlockId index : indices) blocks.push_back(MarkerBlock(100 + index, 8));

  batched.BeginQuery();
  sequential.BeginQuery();
  ASSERT_TRUE(batched.UploadMany(indices, blocks).ok());
  for (size_t i = 0; i < indices.size(); ++i) {
    ASSERT_TRUE(sequential.Upload(indices[i], blocks[i]).ok());
  }

  EXPECT_EQ(batched.transcript().events(), sequential.transcript().events());
  for (BlockId index : indices) {
    EXPECT_EQ(batched.PeekBlock(index), sequential.PeekBlock(index));
    EXPECT_TRUE(IsMarkerBlock(batched.PeekBlock(index), 100 + index));
  }
  // Uploads are fire-and-forget write-backs: no roundtrips either way.
  EXPECT_EQ(batched.roundtrip_count(), 0u);
  EXPECT_EQ(sequential.roundtrip_count(), 0u);
}

TEST(BatchedOpsTest, EmptyBatchesAreFree) {
  StorageServer server(4, 8);
  auto result = server.DownloadMany({});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  ASSERT_TRUE(server.UploadMany({}, {}).ok());
  EXPECT_EQ(server.transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(server.roundtrip_count(), 0u);
}

TEST(BatchedOpsTest, BatchValidationIsAtomic) {
  StorageServer server(4, 8);
  // One bad index poisons the whole batch: nothing is recorded.
  EXPECT_EQ(server.DownloadMany({0, 1, 9}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(server.UploadMany({0, 9}, {ZeroBlock(8), ZeroBlock(8)}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(server.UploadMany({0, 1}, {ZeroBlock(8)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.UploadMany({0, 1}, {ZeroBlock(8), ZeroBlock(7)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(server.roundtrip_count(), 0u);
}

TEST(BatchedOpsTest, InjectedFaultFailsBatchAsAUnit) {
  StorageServer server(8, 8);
  server.SetFailureRate(1.0);
  EXPECT_EQ(server.DownloadMany({0, 1, 2}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(server.UploadMany({0}, {ZeroBlock(8)}).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(server.transcript().TotalBlocksMoved(), 0u);
}

// --- The two-phase exchange surface -----------------------------------------

TEST(ExchangeApiTest, SubmitWaitRoundTripsDownloads) {
  StorageServer server(8, 8);
  ASSERT_TRUE(server.SetArray(MakeDatabase(8, 8)).ok());
  Ticket t = server.Submit(StorageRequest::DownloadOf({5, 1, 5}));
  auto reply = server.Wait(t);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->blocks.size(), 3u);
  EXPECT_TRUE(IsMarkerBlock(reply->blocks[0], 5));
  EXPECT_TRUE(IsMarkerBlock(reply->blocks[1], 1));
  EXPECT_TRUE(IsMarkerBlock(reply->blocks[2], 5));
  EXPECT_EQ(server.roundtrip_count(), 1u);
}

TEST(ExchangeApiTest, UploadExchangeRepliesEmptyAndApplies) {
  StorageServer server(8, 8);
  Ticket t = server.Submit(
      StorageRequest::UploadOf({2, 6}, {MarkerBlock(42, 8), MarkerBlock(46, 8)}));
  auto reply = server.Wait(t);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->blocks.empty());
  EXPECT_TRUE(IsMarkerBlock(server.PeekBlock(2), 42));
  EXPECT_TRUE(IsMarkerBlock(server.PeekBlock(6), 46));
  EXPECT_EQ(server.roundtrip_count(), 0u);  // write-backs are free
}

TEST(ExchangeApiTest, TicketsAreSingleUseAndUnknownTicketsRejected) {
  StorageServer server(4, 8);
  Ticket t = server.Submit(StorageRequest::DownloadOf({0}));
  ASSERT_TRUE(server.Wait(t).ok());
  EXPECT_EQ(server.Wait(t).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Wait(424242).status().code(), StatusCode::kInvalidArgument);
}

TEST(ExchangeApiTest, SeveralTicketsMayBeInFlightAndWaitInAnyOrder) {
  StorageServer server(8, 8);
  ASSERT_TRUE(server.SetArray(MakeDatabase(8, 8)).ok());
  Ticket a = server.Submit(StorageRequest::DownloadOf({1}));
  Ticket b = server.Submit(StorageRequest::DownloadOf({2}));
  Ticket c = server.Submit(StorageRequest::DownloadOf({3}));
  auto rb = server.Wait(b);
  auto ra = server.Wait(a);
  auto rc = server.Wait(c);
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok());
  EXPECT_TRUE(IsMarkerBlock(ra->blocks[0], 1));
  EXPECT_TRUE(IsMarkerBlock(rb->blocks[0], 2));
  EXPECT_TRUE(IsMarkerBlock(rc->blocks[0], 3));
}

TEST(ExchangeApiTest, ErrorsSurfaceAtWaitNotSubmit) {
  StorageServer server(4, 8);
  Ticket bad = server.Submit(StorageRequest::DownloadOf({0, 99}));
  EXPECT_EQ(server.Wait(bad).status().code(), StatusCode::kOutOfRange);
  Ticket mixed = server.Submit(
      StorageRequest::UploadOf({0, 1}, {ZeroBlock(8)}));
  EXPECT_EQ(server.Wait(mixed).status().code(), StatusCode::kInvalidArgument);
  // A download exchange must not smuggle payloads.
  StorageRequest confused = StorageRequest::DownloadOf({0});
  confused.payload.Append(ZeroBlock(8));
  EXPECT_EQ(server.Exchange(std::move(confused)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.transcript().TotalBlocksMoved(), 0u);
}

TEST(ExchangeApiTest, NoOpExchangesAreFree) {
  StorageServer server(4, 8);
  server.SetFailureRate(1.0);  // even a dead wire cannot fail a no-op
  auto download = server.Exchange(StorageRequest::DownloadOf({}));
  ASSERT_TRUE(download.ok());
  EXPECT_TRUE(download->blocks.empty());
  ASSERT_TRUE(
      server.Exchange(StorageRequest::UploadOf({}, BlockBuffer())).ok());
  EXPECT_EQ(server.transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(server.roundtrip_count(), 0u);
}

// --- Roundtrip accounting ---------------------------------------------------

TEST(TranscriptRoundtripTest, DownloadsCostRoundtripsUploadsDoNot) {
  StorageServer server(8, 8);
  server.BeginQuery();
  ASSERT_TRUE(server.Download(0).ok());
  ASSERT_TRUE(server.Upload(1, ZeroBlock(8)).ok());
  ASSERT_TRUE(server.DownloadMany({2, 3, 4}).ok());
  ASSERT_TRUE(server.UploadMany({5, 6}, {ZeroBlock(8), ZeroBlock(8)}).ok());
  EXPECT_EQ(server.roundtrip_count(), 2u);  // 1 single + 1 batched download
  EXPECT_EQ(server.transcript().RoundtripsPerQuery(), 2.0);
}

TEST(TranscriptRoundtripTest, CostModelPricesRoundtripsAndBlocks) {
  Transcript t;
  t.BeginQuery();
  t.RecordRoundtrip();
  t.Record(AccessEvent::Type::kDownload, 0);
  t.Record(AccessEvent::Type::kDownload, 1);
  t.Record(AccessEvent::Type::kUpload, 0);
  const CostModel model{10.0, 0.5};
  EXPECT_DOUBLE_EQ(model.TranscriptLatencyMs(t), 10.0 + 3 * 0.5);
}

// --- Counting-only transcripts ----------------------------------------------

TEST(CountingOnlyTranscriptTest, TalliesAdvanceWithoutStoredEvents) {
  StorageServer counting(8, 8);
  StorageServer full(8, 8);
  counting.SetTranscriptCountingOnly(true);
  for (StorageServer* server : {&counting, &full}) {
    server->BeginQuery();
    ASSERT_TRUE(server->DownloadMany({1, 2}).ok());
    ASSERT_TRUE(server->Upload(3, ZeroBlock(8)).ok());
    server->BeginQuery();
    ASSERT_TRUE(server->Download(4).ok());
  }
  // Same tallies...
  EXPECT_EQ(counting.transcript().query_count(), full.transcript().query_count());
  EXPECT_EQ(counting.download_count(), full.download_count());
  EXPECT_EQ(counting.upload_count(), full.upload_count());
  EXPECT_EQ(counting.roundtrip_count(), full.roundtrip_count());
  EXPECT_DOUBLE_EQ(counting.transcript().BlocksPerQuery(),
                   full.transcript().BlocksPerQuery());
  // ...but no per-event memory.
  EXPECT_TRUE(counting.transcript().events().empty());
  EXPECT_EQ(full.transcript().events().size(), 4u);
}

TEST(CountingOnlyTranscriptTest, EnablingDropsStoredEventsKeepsCounters) {
  Transcript t;
  t.BeginQuery();
  t.Record(AccessEvent::Type::kDownload, 7);
  t.SetCountingOnly(true);
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.download_count(), 1u);
  EXPECT_EQ(t.query_count(), 1u);
}

TEST(CountingOnlyTranscriptTest, DisablingStartsCleanSoQuerySlicesStaySound) {
  // Queries that ran while events were off have no recorded boundaries, so
  // turning events back on must not leave query_count ahead of the stored
  // query starts (QueryEvents would slice the wrong query).
  Transcript t;
  t.SetCountingOnly(true);
  t.BeginQuery();
  t.Record(AccessEvent::Type::kDownload, 1);
  t.SetCountingOnly(false);
  EXPECT_EQ(t.query_count(), 0u);
  EXPECT_EQ(t.download_count(), 0u);
  t.BeginQuery();
  t.Record(AccessEvent::Type::kDownload, 5);
  EXPECT_EQ(t.query_count(), 1u);
  EXPECT_EQ(t.QueryDownloads(0), (std::vector<BlockId>{5}));
}

// --- The Submit/Wait contract, uniformly across the backend matrix ---------

/// Every registry backend that runs without an external process ("socket"
/// spawns an in-process pair server).
constexpr const char* kBackendNames[] = {"memory", "sharded", "cached",
                                         "socket", "retry"};

std::unique_ptr<StorageBackend> MakeNamedBackend(const char* name) {
  SchemeConfig config;
  config.backend = name;
  auto factory = BackendFactoryFor(config);
  EXPECT_TRUE(factory.ok()) << factory.status();
  if (!factory.ok()) return nullptr;
  std::unique_ptr<StorageBackend> backend = (*factory)(8, 8);
  EXPECT_TRUE(backend->SetArray(MakeDatabase(8, 8)).ok());
  return backend;
}

/// Every registered backend topology must reject Wait on a never-issued
/// ticket and on an already-consumed ticket with the SAME code
/// (InvalidArgument: the caller broke the Submit/Wait contract; NotFound
/// stays reserved for missing data), and must stay fully usable after the
/// misuse — a bad Wait is a caller bug, not a transport failure.
TEST(TicketMisuseTest, EveryBackendRejectsUnknownAndConsumedTicketsAlike) {
  for (const char* name : kBackendNames) {
    SCOPED_TRACE(name);
    std::unique_ptr<StorageBackend> backend = MakeNamedBackend(name);
    ASSERT_NE(backend, nullptr);

    // Never-issued ticket.
    EXPECT_EQ(backend->Wait(987654321).status().code(),
              StatusCode::kInvalidArgument);

    // Already-consumed ticket.
    Ticket t = backend->Submit(StorageRequest::DownloadOf({3}));
    ASSERT_TRUE(backend->Wait(t).ok());
    EXPECT_EQ(backend->Wait(t).status().code(),
              StatusCode::kInvalidArgument);

    // The backend shrugged it off: a fresh exchange still round-trips.
    auto fine = backend->Wait(backend->Submit(StorageRequest::DownloadOf({5})));
    ASSERT_TRUE(fine.ok()) << fine.status();
    EXPECT_TRUE(IsMarkerBlock(fine->blocks[0], 5));
  }
}

/// An exchange naming zero blocks is free by contract: no RPC, no fault
/// roll, no transcript event — so even at failure rate 1.0 it succeeds and
/// leaves the transcript empty.
TEST(NoOpExchangeTest, EveryBackendSkipsTheFaultRollOnEmptyExchanges) {
  for (const char* name : kBackendNames) {
    SCOPED_TRACE(name);
    std::unique_ptr<StorageBackend> backend = MakeNamedBackend(name);
    ASSERT_NE(backend, nullptr);
    backend->SetFailureRate(1.0);
    backend->BeginQuery();
    auto download = backend->Exchange(StorageRequest::DownloadOf({}));
    ASSERT_TRUE(download.ok()) << download.status();
    EXPECT_TRUE(download->blocks.empty());
    auto upload =
        backend->Exchange(StorageRequest::UploadOf({}, BlockBuffer(8)));
    ASSERT_TRUE(upload.ok()) << upload.status();
    EXPECT_TRUE(backend->transcript().events().empty());
    EXPECT_EQ(backend->transcript().TotalBlocksMoved(), 0u);
    EXPECT_EQ(backend->roundtrip_count(), 0u);
  }
}

// --- Pipelined replay --------------------------------------------------------

class PipelineReplayTest : public ::testing::Test {
 protected:
  // Records a real scheme transcript by interposing the backend factory:
  // the first backend a Path ORAM builds is its main tree.
  void SetUp() override {
    SchemeConfig config;
    config.n = 128;
    config.value_size = 32;
    config.seed = 11;
    std::vector<StorageBackend*> observed;
    config.backend_factory = [&observed](uint64_t n, size_t block_size) {
      auto backend = std::make_unique<StorageServer>(n, block_size);
      observed.push_back(backend.get());
      return backend;
    };
    auto scheme = SchemeRegistry::Instance().MakeRam("path_oram", config);
    ASSERT_TRUE(scheme.ok());
    Rng rng(3);
    auto workload = MakeRamWorkload("uniform", &rng, config.n, 24,
                                    /*write_fraction=*/0.25);
    ASSERT_TRUE(workload.ok());
    ASSERT_TRUE(RunRamWorkload(scheme->get(), *workload).ok());
    ASSERT_FALSE(observed.empty());
    main_tree_ = observed[0];
    plan_ = ExchangePlanFromTranscript(main_tree_->transcript(),
                                       main_tree_->block_size());
    ASSERT_FALSE(plan_.empty());
    n_ = main_tree_->n();
    block_size_ = main_tree_->block_size();
    // Keep the scheme alive until the plan is copied out.
    scheme_ = std::move(*scheme);
  }

  std::unique_ptr<RamScheme> scheme_;
  StorageBackend* main_tree_ = nullptr;
  std::vector<StorageRequest> plan_;
  uint64_t n_ = 0;
  size_t block_size_ = 0;
};

TEST_F(PipelineReplayTest, DepthAndBackendInvariantReplay) {
  // Reference: the in-memory server at depth 1.
  StorageServer reference(n_, block_size_);
  auto ref_report = RunExchangePipeline(&reference, plan_, 1);
  ASSERT_TRUE(ref_report.ok());
  EXPECT_EQ(ref_report->exchanges, plan_.size());
  EXPECT_GT(ref_report->transport.roundtrips, 0u);

  for (uint64_t shards : {1u, 3u, 4u}) {
    SchemeConfig config;
    config.backend = "sharded";
    config.shards = shards;
    auto factory = BackendFactoryFor(config);
    ASSERT_TRUE(factory.ok()) << factory.status();
    for (uint64_t depth : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " depth=" + std::to_string(depth));
      std::unique_ptr<StorageBackend> backend = (*factory)(n_, block_size_);
      auto report = RunExchangePipeline(backend.get(), plan_, depth);
      ASSERT_TRUE(report.ok()) << report.status();
      // Pipeline depth moves wall-clock only: the replayed data and the
      // transport axes are bit-for-bit depth- and topology-invariant.
      EXPECT_EQ(report->reply_hash, ref_report->reply_hash);
      EXPECT_EQ(report->transport, ref_report->transport);
      EXPECT_EQ(report->exchanges, ref_report->exchanges);
    }
  }
}

TEST_F(PipelineReplayTest, RejectsZeroDepth) {
  StorageServer backend(n_, block_size_);
  EXPECT_EQ(RunExchangePipeline(&backend, plan_, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExchangePlanTest, RebuildsPerQueryBatchedShape) {
  StorageServer server(16, 8);
  server.BeginQuery();
  ASSERT_TRUE(server.DownloadMany({1, 2, 3}).ok());
  ASSERT_TRUE(server.Upload(2, ZeroBlock(8)).ok());
  server.BeginQuery();
  ASSERT_TRUE(server.Download(9).ok());

  std::vector<StorageRequest> plan =
      ExchangePlanFromTranscript(server.transcript(), 8);
  ASSERT_EQ(plan.size(), 3u);  // q0: download + upload, q1: download
  EXPECT_EQ(plan[0].op, StorageRequest::Op::kDownload);
  EXPECT_EQ(plan[0].indices, (std::vector<BlockId>{1, 2, 3}));
  EXPECT_EQ(plan[1].op, StorageRequest::Op::kUpload);
  EXPECT_EQ(plan[1].indices, (std::vector<BlockId>{2}));
  EXPECT_EQ(plan[2].indices, (std::vector<BlockId>{9}));

  // Replaying the plan reproduces the transcript's tallies exactly.
  StorageServer replay(16, 8);
  auto report = RunExchangePipeline(&replay, plan, 4);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transport.blocks_moved,
            server.transcript().TotalBlocksMoved());
  EXPECT_EQ(report->transport.roundtrips, server.roundtrip_count());
}

}  // namespace
}  // namespace dpstore
