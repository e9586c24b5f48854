// Crash-consistency suite (PR 8): forks the REAL dpstore_server binary
// with --data-dir, drives a write-heavy workload over the wire, SIGKILLs
// the process at varied points, restarts it over the same data dir, and
// checks the recovered arena bit-for-bit against the client-side model.
//
// The durability contract under test: an upload whose ack the client has
// SEEN is journal-durable before the ack was written (ack-after-durable),
// so the recovered arena must equal the model after all `acked` ops —
// plus possibly the one op that was in flight when the kill landed
// (journaled and maybe applied, ack lost). With one synchronous client
// there are exactly those two candidate states, so the check is exact,
// not statistical.
//
// Requires DPSTORE_SERVER_BIN (ctest sets it); every test GTEST_SKIPs
// without it. Tenancy-across-restart tests (shared namespace persists
// byte-identically, private namespaces leave no files) ride along here
// because they need the same process harness.

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server_harness.h"
#include "storage/socket_backend.h"

namespace dpstore {
namespace {

constexpr uint64_t kNamespace = 9;
constexpr uint64_t kN = 64;
constexpr size_t kBlockSize = 32;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/dpstore_crash_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveTree(const std::string& dir) {
  if (dir.empty()) return;
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      std::remove((dir + "/" + name).c_str());
    }
    closedir(d);
  }
  rmdir(dir.c_str());
}

struct TempDir {
  TempDir() : path(MakeTempDir()) {}
  ~TempDir() { RemoveTree(path); }
  std::string path;
};

std::vector<std::string> ArenaFiles(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name.size() > 6 &&
          name.compare(name.size() - 6, 6, ".arena") == 0) {
        names.push_back(name);
      }
    }
    closedir(d);
  }
  return names;
}

std::unique_ptr<SocketBackend> AttachShared(const std::string& socket_path) {
  SocketBackendOptions options;
  options.socket_path = socket_path;
  options.namespace_id = kNamespace;
  options.attach_or_create = true;
  return std::make_unique<SocketBackend>(kN, kBlockSize, options);
}

/// Deterministic payload of write op `op` (distinct from MarkerBlock so a
/// stale SetArray image can never masquerade as an upload).
Block OpBlock(uint64_t op) {
  Block block(kBlockSize);
  for (size_t i = 0; i < kBlockSize; ++i) {
    block[i] = static_cast<uint8_t>(op * 151 + i * 29 + 13);
  }
  return block;
}

/// Applies write op `op` to the client-side model: op k overwrites block
/// k mod n.
void ApplyOp(std::vector<Block>* model, uint64_t op) {
  (*model)[op % kN] = OpBlock(op);
}

/// Downloads the whole arena and expects it to equal `model`.
::testing::AssertionResult ArenaEquals(SocketBackend* backend,
                                       const std::vector<Block>& model) {
  std::vector<BlockId> all(kN);
  for (uint64_t i = 0; i < kN; ++i) all[i] = i;
  auto got = backend->DownloadMany(all);
  if (!got.ok()) {
    return ::testing::AssertionFailure()
           << "download failed: " << got.status();
  }
  for (uint64_t i = 0; i < kN; ++i) {
    if ((*got)[i] != model[i]) {
      return ::testing::AssertionFailure() << "block " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CrashRecoveryTest, SigkillMidWorkloadRecoversBitIdenticalArena) {
  const std::string bin = test::ServerBinary();
  if (bin.empty()) {
    GTEST_SKIP() << "set DPSTORE_SERVER_BIN to run the crash suite";
  }
  // Each iteration kills at a different point in the workload: delays
  // sweep from "almost immediately" to "after tens of acked ops".
  for (int iteration = 0; iteration < 6; ++iteration) {
    SCOPED_TRACE(iteration);
    TempDir dir;
    const std::string socket_path = "/tmp/dpstore_crash_" +
                                    std::to_string(getpid()) + "_" +
                                    std::to_string(iteration) + ".sock";
    pid_t pid = test::SpawnServer(bin, socket_path,
                                  {"--data-dir", dir.path, "--threads", "2"});
    ASSERT_GT(pid, 0) << "failed to launch " << bin;

    std::vector<Block> model(kN, Block(kBlockSize, 0));
    uint64_t acked = 0;
    {
      auto backend = AttachShared(socket_path);
      ASSERT_TRUE(backend->ConnectionStatus().ok());
      // Kill from a side thread while the main thread streams synchronous
      // uploads; the upload that breaks marks the acked count.
      std::thread killer([pid, iteration] {
        usleep((iteration * 7 + 1) * 900);
        test::KillServer(pid);
      });
      // The cap only bounds the test if the kill somehow never lands;
      // normally the broken connection ends the loop long before it.
      for (uint64_t op = 1; op <= 1000000; ++op) {
        const Status status =
            backend->Upload((op - 1) % kN, OpBlock(op - 1));
        if (!status.ok()) break;
        ApplyOp(&model, op - 1);
        acked = op;
      }
      killer.join();
    }
    std::remove(socket_path.c_str());

    // Restart over the same data dir; recovery must succeed.
    pid = test::SpawnServer(bin, socket_path,
                            {"--data-dir", dir.path, "--threads", "2"});
    ASSERT_GT(pid, 0) << "server refused to restart after crash";
    {
      auto backend = AttachShared(socket_path);
      ASSERT_TRUE(backend->ConnectionStatus().ok());
      // Exactly two candidate states: every acked op, or those plus the
      // single op in flight when the kill landed.
      ::testing::AssertionResult at_acked = ArenaEquals(backend.get(), model);
      if (!at_acked) {
        std::vector<Block> plus_one = model;
        ApplyOp(&plus_one, acked);
        EXPECT_TRUE(ArenaEquals(backend.get(), plus_one))
            << "arena matches neither acked=" << acked << " ops nor acked+1"
            << " (acked check: " << at_acked.message() << ")";
        model = std::move(plus_one);
      }
      // The recovered server must accept further durable writes.
      for (uint64_t op = 0; op < 8; ++op) {
        ASSERT_TRUE(backend->Upload(op, OpBlock(5000 + op)).ok());
        model[op] = OpBlock(5000 + op);
      }
      EXPECT_TRUE(ArenaEquals(backend.get(), model));
    }
    test::StopServer(pid);

    // Third generation: a clean drain checkpointed, so this recovery
    // replays nothing and still serves the same bytes.
    pid = test::SpawnServer(bin, socket_path,
                            {"--data-dir", dir.path, "--threads", "2"});
    ASSERT_GT(pid, 0);
    {
      auto backend = AttachShared(socket_path);
      EXPECT_TRUE(ArenaEquals(backend.get(), model));
    }
    test::StopServer(pid);
    std::remove(socket_path.c_str());
  }
}

TEST(CrashRecoveryTest, SharedNamespacePersistsAcrossCleanRestart) {
  const std::string bin = test::ServerBinary();
  if (bin.empty()) {
    GTEST_SKIP() << "set DPSTORE_SERVER_BIN to run the restart suite";
  }
  TempDir dir;
  const std::string socket_path =
      "/tmp/dpstore_restart_" + std::to_string(getpid()) + ".sock";
  pid_t pid =
      test::SpawnServer(bin, socket_path, {"--data-dir", dir.path});
  ASSERT_GT(pid, 0);
  std::vector<Block> model(kN);
  for (uint64_t i = 0; i < kN; ++i) model[i] = OpBlock(700 + i);
  {
    auto backend = AttachShared(socket_path);
    ASSERT_TRUE(backend->SetArray(model).ok());
    ASSERT_TRUE(backend->Upload(3, OpBlock(999)).ok());
    model[3] = OpBlock(999);
  }
  test::StopServer(pid);

  pid = test::SpawnServer(bin, socket_path, {"--data-dir", dir.path});
  ASSERT_GT(pid, 0);
  {
    auto backend = AttachShared(socket_path);
    EXPECT_TRUE(ArenaEquals(backend.get(), model));
  }
  test::StopServer(pid);
  std::remove(socket_path.c_str());
}

TEST(CrashRecoveryTest, PrivateNamespacesLeaveNoStaleFiles) {
  const std::string bin = test::ServerBinary();
  if (bin.empty()) {
    GTEST_SKIP() << "set DPSTORE_SERVER_BIN to run the restart suite";
  }
  TempDir dir;
  const std::string socket_path =
      "/tmp/dpstore_private_" + std::to_string(getpid()) + ".sock";
  const pid_t pid =
      test::SpawnServer(bin, socket_path, {"--data-dir", dir.path});
  ASSERT_GT(pid, 0);
  {
    // Default options: a connection-private namespace.
    SocketBackendOptions options;
    options.socket_path = socket_path;
    SocketBackend backend(kN, kBlockSize, options);
    ASSERT_TRUE(backend.ConnectionStatus().ok());
    for (uint64_t op = 0; op < 16; ++op) {
      ASSERT_TRUE(backend.Upload(op % kN, OpBlock(op)).ok());
    }
  }
  test::StopServer(pid);
  EXPECT_TRUE(ArenaFiles(dir.path).empty())
      << "private namespaces must never persist";
  std::remove(socket_path.c_str());
}

// Sanitizer allocators (ASan's quarantine, TSan's shadow) keep freed
// memory resident, so a peak-memory bound measures them, not the server.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedAllocator = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedAllocator = true;
#else
constexpr bool kSanitizedAllocator = false;
#endif
#else
constexpr bool kSanitizedAllocator = false;
#endif

/// Peak resident set (VmHWM) of process `pid` in KiB, or -1.
long PeakRssKiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(CrashRecoveryTest, BulkLoadPeakMemoryIsArenasPlusOneArray) {
  // Two 32 MiB namespaces bulk-loaded one after the other (both clients
  // stay connected): the server's peak may grow by the two arenas plus
  // the one array in flight, and 8 MiB of slack — no per-connection read
  // buffer sized to the largest frame, no per-block copy of the array,
  // no journal staging copy of it.
  const std::string bin = test::ServerBinary();
  if (bin.empty()) {
    GTEST_SKIP() << "set DPSTORE_SERVER_BIN to run the peak-memory test";
  }
  constexpr uint64_t kLoadN = 8192;
  constexpr size_t kLoadBlockSize = 4096;
  constexpr long kArrayKiB = kLoadN * kLoadBlockSize / 1024;
  constexpr long kBoundKiB = 2 * kArrayKiB + kArrayKiB + 8 * 1024;
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "--data-dir" : "in memory");
    TempDir dir;
    const std::string socket_path = "/tmp/dpstore_peak_" +
                                    std::to_string(getpid()) +
                                    (durable ? "_d" : "_m") + ".sock";
    std::vector<std::string> args = {"--threads", "2"};
    if (durable) args.insert(args.end(), {"--data-dir", dir.path});
    const pid_t pid = test::SpawnServer(bin, socket_path, args);
    ASSERT_GT(pid, 0);
    const long idle = PeakRssKiB(pid);
    ASSERT_GT(idle, 0);

    auto array = [](uint64_t ns) {
      std::vector<Block> blocks(kLoadN);
      for (uint64_t i = 0; i < kLoadN; ++i) {
        blocks[i] = MarkerBlock(ns * kLoadN + i, kLoadBlockSize);
      }
      return blocks;
    };
    std::vector<std::unique_ptr<SocketBackend>> clients;
    for (uint64_t ns = 1; ns <= 2; ++ns) {
      SocketBackendOptions options;
      options.socket_path = socket_path;
      options.namespace_id = 100 + ns;
      options.attach_or_create = true;
      clients.push_back(
          std::make_unique<SocketBackend>(kLoadN, kLoadBlockSize, options));
      ASSERT_TRUE(clients.back()->SetArray(array(ns)).ok());
    }
    const long grown = PeakRssKiB(pid) - idle;
    std::printf("bulk-load peak growth (%s): %.1f MiB, bound %.1f MiB\n",
                durable ? "durable" : "in memory", grown / 1024.0,
                kBoundKiB / 1024.0);
    if (kSanitizedAllocator) {
      std::printf("sanitizer allocator: peak-memory bound not checked\n");
    } else {
      EXPECT_LE(grown, kBoundKiB);
    }

    // The arrays landed intact — read back after the measurement, since a
    // whole-arena reply is itself an array in flight.
    std::vector<BlockId> all(kLoadN);
    for (uint64_t i = 0; i < kLoadN; ++i) all[i] = i;
    for (uint64_t ns = 1; ns <= 2; ++ns) {
      auto got = clients[ns - 1]->DownloadMany(all);
      ASSERT_TRUE(got.ok()) << got.status();
      for (uint64_t i = 0; i < kLoadN; ++i) {
        ASSERT_TRUE(IsMarkerBlock((*got)[i], ns * kLoadN + i)) << i;
      }
    }
    clients.clear();
    test::StopServer(pid);
    std::remove(socket_path.c_str());
  }
}

}  // namespace
}  // namespace dpstore
