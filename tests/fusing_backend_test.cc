// Server-side exchange fusion suite: StorageService's cross-connection
// batch scheduler (ProcessLocked in src/server/storage_service.cc).
//
// A worker that takes one connection's head request also harvests the
// same-direction requests queued behind it on that connection, and the
// queue heads of other connections bound for the same shared namespace,
// and runs them as ONE engine exchange. The load-bearing property: fusion
// changes how many engine exchanges the server runs and nothing any
// client receives. For every fusion budget, each client gets per request
// frame, in its own request order, the ticket and reply bytes an unfused
// server would send. A kDpfEval frame or a frame that would fail never
// joins a group, so an error reply lands on exactly the frame that caused
// it.
//
// Fusion only happens to frames that queue while the worker is busy. The
// tests arrange that by construction rather than by timing: a one-thread
// service is held inside the write of a 4 MiB reply to a "gate"
// connection that does not read it yet; every client's frames queue
// behind it; then the gate reads its reply and lets the worker go. Each
// client's batch ends in a Peek frame, so once the service's end of a
// socket has been read dry, every request frame before the Peek is
// queued — and so the groups the worker forms are the same on every run.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/dpf.h"
#include "server/storage_service.h"
#include "storage/server.h"
#include "storage/wire.h"
#include "util/random.h"

namespace dpstore {
namespace {

constexpr uint64_t kSharedId = 7;
constexpr uint64_t kN = 64;
constexpr uint32_t kBlockSize = 16;
constexpr uint8_t kDpfDepth = 6;  // domain 2^6 = kN
/// The gate's one download reply is 4 MiB, far more than the 64 KiB send
/// buffer its socket gets, so the worker writing it stays blocked until
/// the gate reads.
constexpr uint64_t kGateBlocks = 1024;
constexpr uint32_t kGateBlockSize = 4096;
constexpr int kGateSendBuffer = 64 << 10;
constexpr uint64_t kBudgets[] = {1, 3, 17, 256};

std::vector<Block> MarkerDatabase() {
  std::vector<Block> db;
  for (BlockId i = 0; i < kN; ++i) db.push_back(MarkerBlock(i, kBlockSize));
  return db;
}

std::string DescribeBlocks(uint64_t ticket, const BlockBuffer& blocks) {
  static const char kHex[] = "0123456789abcdef";
  std::string out = "t=";
  out.append(std::to_string(ticket)).append(" blocks=");
  out.append(std::to_string(blocks.size())).append(" ");
  for (uint8_t byte : blocks.AllBytes()) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 15]);
  }
  return out;
}

std::string DescribeError(uint64_t ticket, StatusCode code) {
  std::string out = "t=";
  return out.append(std::to_string(ticket))
      .append(" error=")
      .append(StatusCodeToString(code));
}

/// One reply frame as a client sees it: its ticket, then its blocks or
/// its error code.
std::string Describe(const wire::DecodedFrame& frame) {
  switch (frame.header.type) {
    case wire::FrameType::kReplyBlocks:
      return DescribeBlocks(frame.header.ticket, frame.payload);
    case wire::FrameType::kReplyError:
      return DescribeError(frame.header.ticket,
                           static_cast<StatusCode>(frame.header.code));
    default: {
      std::string out = "unexpected frame type ";
      return out.append(std::to_string(static_cast<int>(frame.header.type)));
    }
  }
}

/// What one client sends in a round: pipelined requests, then a Peek of
/// block `peek` as the sentinel.
struct Plan {
  std::vector<StorageRequest> requests;
  BlockId peek = 0;
};

/// The replies an unfused server sends for `plan`, with the tickets the
/// round assigned (one per request, then the Peek's), computed on an
/// in-memory StorageServer one exchange at a time.
std::vector<std::string> Expected(StorageServer* model, const Plan& plan,
                                  const std::vector<uint64_t>& tickets) {
  std::vector<std::string> out;
  for (size_t i = 0; i < plan.requests.size(); ++i) {
    StatusOr<StorageReply> reply = model->Exchange(plan.requests[i]);
    out.push_back(reply.ok()
                      ? DescribeBlocks(tickets[i], reply->blocks)
                      : DescribeError(tickets[i], reply.status().code()));
  }
  BlockBuffer peeked(kBlockSize);
  peeked.Append(model->PeekBlock(plan.peek));
  out.push_back(DescribeBlocks(tickets.back(), peeked));
  return out;
}

struct Client {
  int fd = -1;         ///< the test's end of the socketpair
  int server_fd = -1;  ///< the service's end, watched for unread bytes
  std::vector<uint8_t> scratch;
  uint64_t next_ticket = 1;
};

bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// A one-worker StorageService with `clients` connections on one shared
/// namespace of kN x kBlockSize marker blocks, plus the gate connection on
/// a private namespace of its own.
class FusionHarness {
 public:
  ~FusionHarness() {
    for (const Client& client : clients_) ::close(client.fd);
    if (gate_.fd >= 0) ::close(gate_.fd);
    if (service_) service_->Drain();
  }

  void Start(uint64_t fuse_blocks, size_t clients) {
    StorageServiceOptions options;
    options.num_threads = 1;
    options.fuse_blocks = fuse_blocks;
    service_ = std::make_unique<StorageService>(options);
    ASSERT_NO_FATAL_FAILURE(Connect(&gate_, kGateSendBuffer));
    ASSERT_NO_FATAL_FAILURE(
        RoundTripOk(&gate_, wire::EncodeOpen(gate_.next_ticket++, kGateBlocks,
                                             kGateBlockSize, 0, /*mode=*/0)));
    clients_.resize(clients);
    for (Client& client : clients_) {
      ASSERT_NO_FATAL_FAILURE(Connect(&client, 0));
      ASSERT_NO_FATAL_FAILURE(RoundTripOk(
          &client, wire::EncodeOpen(client.next_ticket++, kN, kBlockSize,
                                    kSharedId, /*mode=*/1)));
    }
    const BlockBuffer array = BlockBuffer::Pack(MarkerDatabase());
    ASSERT_NO_FATAL_FAILURE(RoundTripOk(
        &clients_[0],
        wire::EncodeSetArray(array, clients_[0].next_ticket++)));
  }

  /// Queues every client's plan behind the held worker, releases it, and
  /// collects each client's replies (`replies`) and the tickets it sent
  /// (`tickets`), in order.
  void RunRound(const std::vector<Plan>& plans,
                std::vector<std::vector<std::string>>* replies,
                std::vector<std::vector<uint64_t>>* tickets) {
    ASSERT_EQ(plans.size(), clients_.size());
    replies->assign(plans.size(), {});
    tickets->assign(plans.size(), {});

    // Hold the worker: once the gate's reply starts arriving, the worker
    // is inside a write that cannot finish until the gate reads.
    std::vector<BlockId> all(kGateBlocks);
    for (BlockId i = 0; i < kGateBlocks; ++i) all[i] = i;
    const StorageRequest gate_download = StorageRequest::DownloadOf(all);
    ASSERT_TRUE(wire::WriteFrame(gate_.fd, wire::EncodeRequest(
                                               gate_download,
                                               gate_.next_ticket++))
                    .ok());
    pollfd readable{gate_.fd, POLLIN, 0};
    ASSERT_EQ(::poll(&readable, 1, 20000), 1) << "the gate reply never began";

    // Queue each client's frames, one client at a time so the order in
    // which connections become ready is fixed too.
    for (size_t c = 0; c < plans.size(); ++c) {
      Client& client = clients_[c];
      for (const StorageRequest& request : plans[c].requests) {
        (*tickets)[c].push_back(client.next_ticket);
        ASSERT_TRUE(wire::WriteFrame(client.fd,
                                     wire::EncodeRequest(request,
                                                         client.next_ticket++))
                        .ok());
      }
      (*tickets)[c].push_back(client.next_ticket);
      ASSERT_TRUE(wire::WriteFrame(client.fd, wire::EncodeControl(
                                                  wire::FrameType::kPeek,
                                                  client.next_ticket++,
                                                  plans[c].peek, 0))
                      .ok());
      ASSERT_TRUE(WaitFor([&client] {
        int unread = -1;
        return ::ioctl(client.server_fd, FIONREAD, &unread) == 0 &&
               unread == 0;
      })) << "client " << c << "'s frames were never read";
    }

    // Release the worker.
    StatusOr<wire::DecodedFrame> gate_reply =
        wire::ReadFrame(gate_.fd, &gate_.scratch);
    ASSERT_TRUE(gate_reply.ok()) << gate_reply.status();
    ASSERT_EQ(gate_reply->payload.size(), kGateBlocks);

    for (size_t c = 0; c < plans.size(); ++c) {
      for (size_t f = 0; f < (*tickets)[c].size(); ++f) {
        StatusOr<wire::DecodedFrame> reply =
            wire::ReadFrame(clients_[c].fd, &clients_[c].scratch);
        ASSERT_TRUE(reply.ok()) << reply.status();
        (*replies)[c].push_back(Describe(*reply));
      }
    }
  }

  StorageServiceCounters Counters() const { return service_->Counters(); }

 private:
  void Connect(Client* client, int send_buffer) {
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    if (send_buffer > 0) {
      ASSERT_EQ(::setsockopt(pair[1], SOL_SOCKET, SO_SNDBUF, &send_buffer,
                             sizeof(send_buffer)),
                0);
    }
    client->fd = pair[0];
    client->server_fd = pair[1];
    ASSERT_TRUE(service_->HandleConnection(pair[1]));
  }

  static void RoundTripOk(Client* client, const wire::EncodedFrame& frame) {
    ASSERT_TRUE(wire::WriteFrame(client->fd, frame).ok());
    StatusOr<wire::DecodedFrame> reply =
        wire::ReadFrame(client->fd, &client->scratch);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->header.type, wire::FrameType::kReplyBlocks)
        << reply->message;
  }

  std::unique_ptr<StorageService> service_;
  Client gate_;
  std::vector<Client> clients_;
};

StorageRequest Upload(std::vector<BlockId> indices, uint8_t fill) {
  BlockBuffer payload(kBlockSize);
  for (size_t i = 0; i < indices.size(); ++i) {
    payload.Append(Block(kBlockSize, static_cast<uint8_t>(fill + i)));
  }
  return StorageRequest::UploadOf(std::move(indices), std::move(payload));
}

/// Four clients pipeline uploads into disjoint quarters of the shared
/// namespace, then downloads (duplicates included) across all of it. Every
/// client's replies and tickets must equal an unfused server's — and so
/// each other's — at every budget; budget 1 must fuse nothing, and every
/// larger budget must fuse.
TEST(ServerFusionTest, RepliesAndTicketsIdenticalAcrossBudgets) {
  constexpr size_t kClients = 4;
  constexpr uint64_t kQuarter = kN / kClients;
  const std::vector<size_t> kUploadSizes = {1, 2, 5, 3, 1, 4};  // sum 16
  const std::vector<size_t> kDownloadSizes = {3, 1, 4, 1, 5, 2};

  std::vector<Plan> uploads(kClients);
  std::vector<Plan> downloads(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    BlockId next = c * kQuarter;
    for (size_t f = 0; f < kUploadSizes.size(); ++f) {
      std::vector<BlockId> indices;
      for (size_t i = 0; i < kUploadSizes[f]; ++i) indices.push_back(next++);
      uploads[c].requests.push_back(
          Upload(std::move(indices), static_cast<uint8_t>(16 * c + 8 * f)));
    }
    uploads[c].peek = c * kQuarter;
    Rng rng(100 + c);
    for (size_t size : kDownloadSizes) {
      std::vector<BlockId> indices;
      for (size_t i = 0; i < size; ++i) indices.push_back(rng.Uniform(kN));
      downloads[c].requests.push_back(
          StorageRequest::DownloadOf(std::move(indices)));
    }
    downloads[c].peek = kN - 1 - c;
  }

  for (uint64_t budget : kBudgets) {
    SCOPED_TRACE(testing::Message() << "fuse_blocks " << budget);
    FusionHarness harness;
    ASSERT_NO_FATAL_FAILURE(harness.Start(budget, kClients));
    StorageServer model(kN, kBlockSize);
    ASSERT_TRUE(model.SetArray(MarkerDatabase()).ok());

    for (const std::vector<Plan>* round : {&uploads, &downloads}) {
      std::vector<std::vector<std::string>> replies;
      std::vector<std::vector<uint64_t>> tickets;
      ASSERT_NO_FATAL_FAILURE(harness.RunRound(*round, &replies, &tickets));
      for (size_t c = 0; c < kClients; ++c) {
        EXPECT_EQ(replies[c], Expected(&model, (*round)[c], tickets[c]))
            << "client " << c;
      }
    }

    const StorageServiceCounters counters = harness.Counters();
    if (budget == 1) {
      EXPECT_EQ(counters.fused_frames, 0u);
      EXPECT_EQ(counters.fused_batches, 0u);
    } else {
      EXPECT_GT(counters.fused_frames, 0u);
      EXPECT_GT(counters.fused_batches, 0u);
    }
  }
}

/// kDpfEval frames and a frame that would fail sit between fusable
/// downloads. Neither may join a group: the DPF answers must be the
/// one-block answers of single evals, and the out-of-range frame's error
/// must land on its own ticket while every download around it succeeds.
TEST(ServerFusionTest, NeverFusesDpfEvalOrFailingFrames) {
  auto keys = crypto::DpfGen(/*alpha=*/5, kDpfDepth);
  ASSERT_TRUE(keys.ok()) << keys.status();
  Plan a;
  a.requests = {StorageRequest::DownloadOf({1, 2}),
                StorageRequest::DownloadOf({3}),
                StorageRequest::DpfEvalOf(keys->key0.Serialize()),
                StorageRequest::DpfEvalOf(keys->key1.Serialize()),
                StorageRequest::DownloadOf({4, 5})};
  a.peek = 9;
  Plan b;
  b.requests = {StorageRequest::DownloadOf({6}),
                StorageRequest::DownloadOf({7, kN + 3}),  // out of range
                StorageRequest::DownloadOf({8})};
  b.peek = 10;
  const std::vector<Plan> plans = {a, b};

  for (uint64_t budget : kBudgets) {
    SCOPED_TRACE(testing::Message() << "fuse_blocks " << budget);
    FusionHarness harness;
    ASSERT_NO_FATAL_FAILURE(harness.Start(budget, plans.size()));
    StorageServer model(kN, kBlockSize);
    ASSERT_TRUE(model.SetArray(MarkerDatabase()).ok());

    std::vector<std::vector<std::string>> replies;
    std::vector<std::vector<uint64_t>> tickets;
    ASSERT_NO_FATAL_FAILURE(harness.RunRound(plans, &replies, &tickets));
    for (size_t c = 0; c < plans.size(); ++c) {
      EXPECT_EQ(replies[c], Expected(&model, plans[c], tickets[c]))
          << "client " << c;
    }
    // The one error reply is the out-of-range frame's, on its ticket.
    EXPECT_EQ(replies[1][1], DescribeError(tickets[1][1],
                                           StatusCode::kOutOfRange));

    // At budget 256 the groups are fixed by the queue order: a's two
    // leading downloads fuse with b's first download, and the frame
    // behind each (a DPF eval, the failing download) ends its harvest.
    // Nothing after them finds a partner, so exactly one group of three.
    const StorageServiceCounters counters = harness.Counters();
    if (budget == 256) {
      EXPECT_EQ(counters.fused_batches, 1u);
      EXPECT_EQ(counters.fused_frames, 3u);
    }
    if (budget == 1) {
      EXPECT_EQ(counters.fused_frames, 0u);
    }
  }
}

}  // namespace
}  // namespace dpstore
