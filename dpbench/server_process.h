#ifndef DPBENCH_SERVER_PROCESS_H_
#define DPBENCH_SERVER_PROCESS_H_

// A forked dpstore_server process for dpstore_bench: start it on a Unix
// socket, read its CPU time and peak RSS from /proc, stop it with a
// checked graceful drain, and parse the drain line it prints.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/status.h"

namespace dpstore {
namespace bench {

/// Service counters from the "dpstore_server: drained:" line.
struct DrainCounters {
  uint64_t exchanges = 0;
  uint64_t fused_frames = 0;
  uint64_t shed = 0;
};

/// Finds and parses the drain line in a server's log, if it printed one.
inline std::optional<DrainCounters> ParseDrainLine(const std::string& log) {
  std::ifstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    const size_t at = line.find("frames=");
    if (line.rfind("dpstore_server: drained:", 0) != 0 ||
        at == std::string::npos) {
      continue;
    }
    DrainCounters c;
    if (std::sscanf(line.c_str() + at,
                    "frames=%*u exchanges=%" SCNu64 " (fused %" SCNu64
                    " in %*u batches, shed %" SCNu64 ")",
                    &c.exchanges, &c.fused_frames, &c.shed) == 3) {
      return c;
    }
  }
  return std::nullopt;
}

/// One dpstore_server child. Owns the process: the destructor SIGKILLs
/// and reaps it if Stop() did not already.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Forks `bin --unix socket args...` with stdout and stderr appended to
  /// `log`, then polls the socket until it accepts (or the child dies, or
  /// 15 s pass). The child gets SIGKILL if this process dies first.
  Status Start(const std::string& bin, const std::string& socket,
               const std::vector<std::string>& args, const std::string& log) {
    socket_ = socket;
    log_ = log;
    std::vector<std::string> words = {bin, "--unix", socket};
    words.insert(words.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& word : words) argv.push_back(word.data());
    argv.push_back(nullptr);
    ::unlink(socket.c_str());
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) return InternalError("fork failed");
    if (pid == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(126);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pid_ = pid;
    if (!WaitForListener()) {
      Kill();
      return UnavailableError("dpstore_server did not start listening on " +
                              socket + " (log: " + log + ")");
    }
    return OkStatus();
  }

  /// Graceful stop: SIGTERM, then reap. OK only for a clean drain (exit 0).
  Status Stop() {
    if (pid_ < 0) return OkStatus();
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return InternalError("dpstore_server did not drain cleanly (log: " +
                           log_ + ")");
    }
    return OkStatus();
  }

  /// Crash stop: SIGKILL and reap. No-op when not running.
  void Kill() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    ::unlink(socket_.c_str());  // a killed server cannot remove its own
  }

  const std::string& socket() const { return socket_; }
  const std::string& log() const { return log_; }

  /// User plus system CPU time of every thread the server ever ran, from
  /// /proc/<pid>/stat (clock-tick resolution).
  double CpuMs() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0.0;
    // Fields after "pid (comm)" start at field 3 (state); utime and stime
    // are fields 14 and 15.
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int index = 3; index <= 15 && rest >> field; ++index) {
      if (index >= 14) ticks += std::stod(field);
    }
    return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMiB() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;
      }
    }
    return 0.0;
  }

 private:
  bool WaitForListener() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    useconds_t backoff_us = 1000;
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      socket_.c_str());
        const int rc =
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
        ::close(fd);
        if (rc == 0) return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;  // died before listening; already reaped
        return false;
      }
      if (std::chrono::steady_clock::now() >= deadline) return false;
      ::usleep(backoff_us);
      backoff_us = std::min<useconds_t>(backoff_us * 2, 20 * 1000);
    }
  }

  pid_t pid_ = -1;
  std::string socket_;
  std::string log_;
};

}  // namespace bench
}  // namespace dpstore

#endif  // DPBENCH_SERVER_PROCESS_H_
