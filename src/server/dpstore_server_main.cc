// dpstore_server: a standalone storage server process speaking the wire
// codec (storage/wire.h, spec in docs/wire-format.md) over a Unix-domain
// or TCP socket. All connections are tenants of ONE shared StorageEngine
// (each bound to the namespace its Open frame names — private by
// default, shared by id), served by a bounded worker pool instead of a
// thread per connection.
//
// Usage:
//   dpstore_server --unix /tmp/dpstore.sock [--threads N] [--max-conns N]
//   dpstore_server --port 47777 [--host 127.0.0.1] [--threads N] ...
//   ... [--data-dir /var/lib/dpstore]   # durable shared namespaces
//
// With --data-dir, shared namespaces live in mmap-backed arena files with
// a write-ahead journal (docs/persistence.md): startup recovers whatever
// a previous process — cleanly drained or SIGKILLed mid-write — left
// there, and prints a "recovered" line CI and the crash suite grep for.
//
// Prints one "dpstore_server: listening on ..." line to stdout when ready
// (CI waits for it), then serves until SIGINT/SIGTERM — on which it stops
// accepting, finishes every in-flight exchange, prints the
// connection/namespace accounting (ending in the process's peak resident
// set, peak_rss_mib), and exits 0.

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/storage_service.h"

namespace {

volatile sig_atomic_t g_stop = 0;
volatile int g_listen_fd = -1;

// SIGINT/SIGTERM: flag the drain and wake the accept loop. shutdown() on
// the listening socket makes the blocked accept() return immediately.
void HandleStopSignal(int /*signo*/) {
  g_stop = 1;
  const int fd = g_listen_fd;
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s --unix <path> | --port <port> [--host <addr>]\n"
               "          [--threads <n>] [--max-conns <n>]\n"
               "\n"
               "  --unix <path>    listen on a Unix-domain socket\n"
               "  --port <port>    listen on TCP (with --host, default "
               "127.0.0.1)\n"
               "  --threads <n>    storage worker threads (default 4)\n"
               "  --max-conns <n>  concurrent connection cap (default 64;\n"
               "                   also sizes the listen backlog)\n"
               "  --data-dir <d>   persist shared namespaces under <d>\n"
               "                   (mmap arenas + write-ahead journal;\n"
               "                   recovers on startup, checkpoints on "
               "drain)\n"
               "  --shed-after-ms <n>  answer requests queued longer than\n"
               "                   <n> ms with DEADLINE_EXCEEDED instead of\n"
               "                   executing them (0 sheds everything "
               "queued;\n"
               "                   default: shedding off)\n"
               "  --help           print this help and exit\n",
               argv0);
}

int Usage(const char* argv0) {
  PrintUsage(stderr, argv0);
  return 2;
}

// The process's peak resident set (VmHWM) in MiB, or -1 when
// /proc/self/status is unreadable.
double PeakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1.0;
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib < 0 ? kib : kib / 1024.0;
}

int ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "dpstore_server: socket path too long: %s\n",
                 path.c_str());
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    std::perror("dpstore_server: unix listen");
    if (fd >= 0) ::close(fd);
    return -1;
  }
  return fd;
}

int ListenTcp(const std::string& host, uint16_t port, int backlog) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "dpstore_server: bad --host %s\n", host.c_str());
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("dpstore_server: socket");
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    std::perror("dpstore_server: tcp listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Parses a positive integer flag value; returns -1 on garbage.
long ParseCount(const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value <= 0) return -1;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  std::string host = "127.0.0.1";
  std::string data_dir;
  int port = -1;
  long threads = 4;
  long max_conns = 64;
  long shed_after_ms = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout, argv[0]);
      return 0;
    } else if (arg == "--unix" && i + 1 < argc) {
      unix_path = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = ParseCount(argv[++i]);
      if (threads < 0) return Usage(argv[0]);
    } else if (arg == "--max-conns" && i + 1 < argc) {
      max_conns = ParseCount(argv[++i]);
      if (max_conns < 0) return Usage(argv[0]);
    } else if (arg == "--data-dir" && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (arg == "--shed-after-ms" && i + 1 < argc) {
      // 0 is meaningful here (shed every queued request), so ParseCount's
      // positive-only contract doesn't fit.
      char* end = nullptr;
      shed_after_ms = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || shed_after_ms < 0) {
        return Usage(argv[0]);
      }
    } else {
      // Unknown flag (or a flag missing its value): refuse loudly rather
      // than silently serving with a misconfiguration.
      std::fprintf(stderr, "dpstore_server: unknown argument: %s\n",
                   arg.c_str());
      return Usage(argv[0]);
    }
  }
  // Exactly one of --unix / --port.
  if (unix_path.empty() == (port < 0)) return Usage(argv[0]);

  // The kernel clamps to SOMAXCONN anyway; clamping ourselves keeps the
  // number honest in the log. A full backlog means clients see ECONNREFUSED
  // instead of silently queueing behind a cap we would reject anyway.
  const int backlog =
      static_cast<int>(std::min<long>(max_conns, SOMAXCONN));
  int listen_fd = -1;
  std::string where;
  if (!unix_path.empty()) {
    listen_fd = ListenUnix(unix_path, backlog);
    where = "unix:" + unix_path;
  } else {
    if (port <= 0 || port > 65535) return Usage(argv[0]);
    listen_fd = ListenTcp(host, static_cast<uint16_t>(port), backlog);
    where = host + ":" + std::to_string(port);
  }
  if (listen_fd < 0) return 1;

  g_listen_fd = listen_fd;
  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // broken clients surface as write errors

  dpstore::StorageServiceOptions options;
  options.num_threads = static_cast<size_t>(threads);
  options.max_conns = static_cast<size_t>(max_conns);
  options.persist.data_dir = data_dir;
  options.shed_after_ms = shed_after_ms;
  dpstore::StatusOr<std::unique_ptr<dpstore::StorageService>> made =
      dpstore::StorageService::Make(options);
  if (!made.ok()) {
    // Typically DataLoss from a corrupt journal/arena: refuse to serve
    // rather than invent state the clients never wrote.
    std::fprintf(stderr, "dpstore_server: recovery failed: %s\n",
                 made.status().message().c_str());
    ::close(listen_fd);
    if (!unix_path.empty()) ::unlink(unix_path.c_str());
    return 1;
  }
  dpstore::StorageService& service = **made;

  if (!data_dir.empty()) {
    const dpstore::StorageServiceCounters at_start = service.Counters();
    std::printf("dpstore_server: recovered %" PRIu64 " namespace(s), %" PRIu64
                " journal record(s) from %s\n",
                at_start.engine.persist.recovered_namespaces,
                at_start.engine.persist.recovered_records, data_dir.c_str());
  }
  std::printf("dpstore_server: listening on %s (threads=%ld max-conns=%ld)\n",
              where.c_str(), threads, max_conns);
  std::fflush(stdout);

  while (g_stop == 0) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (g_stop != 0) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Log and keep serving on transient resource exhaustion; anything
      // else is a programming or environment error worth dying loudly on.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        std::fprintf(stderr, "dpstore_server: accept: %s (retrying)\n",
                     std::strerror(errno));
        continue;
      }
      std::perror("dpstore_server: accept");
      break;
    }
    if (!service.HandleConnection(conn)) {
      std::fprintf(stderr,
                   "dpstore_server: refused connection (at --max-conns or "
                   "draining)\n");
    }
  }

  // Graceful drain: stop accepting, finish in-flight exchanges, report.
  ::close(listen_fd);
  if (!unix_path.empty()) ::unlink(unix_path.c_str());
  service.Drain();
  const dpstore::StorageServiceCounters counters = service.Counters();
  std::printf(
      "dpstore_server: drained: conns accepted=%" PRIu64 " rejected=%" PRIu64
      " | frames=%" PRIu64 " exchanges=%" PRIu64 " (fused %" PRIu64
      " in %" PRIu64 " batches, shed %" PRIu64 ") | namespaces live=%" PRIu64
      " created=%" PRIu64 " | blocks moved=%" PRIu64
      " | peak_rss_mib=%.1f\n",
      counters.connections_accepted, counters.connections_rejected,
      counters.frames_served, counters.exchanges_served,
      counters.fused_frames, counters.fused_batches, counters.frames_shed,
      counters.engine.namespaces, counters.engine.namespaces_created,
      counters.engine.blocks_moved, PeakRssMiB());
  if (!data_dir.empty()) {
    const dpstore::persist::PersistCounters& p = counters.engine.persist;
    std::printf("dpstore_server: durability: journal appends=%" PRIu64
                " bytes=%" PRIu64 " | fsyncs=%" PRIu64 " (riders %" PRIu64
                ") | segments rotated=%" PRIu64 " checkpoints=%" PRIu64 "\n",
                p.journal_appends, p.journal_bytes, p.fsyncs,
                p.group_commit_riders, p.segments_rotated, p.checkpoints);
  }
  std::fflush(stdout);
  return 0;
}
