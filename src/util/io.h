#ifndef DPSTORE_UTIL_IO_H_
#define DPSTORE_UTIL_IO_H_

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>

namespace dpstore {
namespace io {

/// EINTR-safe wrappers around the raw I/O syscalls.
///
/// Every blocking syscall in the transport and durability layers can return
/// -1/EINTR when a signal lands mid-call (the SIGTERM drain path makes this
/// routine, not hypothetical). These helpers retry on EINTR and otherwise
/// return the raw result unchanged, so callers keep their existing
/// short-read/short-write and errno handling. They deliberately do NOT loop
/// on partial transfers — that policy (clean-EOF handling, total-byte
/// accounting) stays with the caller.

inline ssize_t ReadEintr(int fd, void* buf, size_t len) {
  for (;;) {
    ssize_t n = ::read(fd, buf, len);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

inline ssize_t WriteEintr(int fd, const void* buf, size_t len) {
  for (;;) {
    ssize_t n = ::write(fd, buf, len);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

inline ssize_t PreadEintr(int fd, void* buf, size_t len, off_t offset) {
  for (;;) {
    ssize_t n = ::pread(fd, buf, len, offset);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

inline ssize_t PwriteEintr(int fd, const void* buf, size_t len, off_t offset) {
  for (;;) {
    ssize_t n = ::pwrite(fd, buf, len, offset);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

/// Advances a vectored transfer past `done` bytes: drops the legs that
/// completed and trims the first partial one. The bookkeeping every caller
/// that loops readv/writev/sendmsg over short transfers shares.
inline void AdvanceIov(struct iovec** iov, int* iovcnt, size_t done) {
  while (*iovcnt > 0 && done >= (*iov)->iov_len) {
    done -= (*iov)->iov_len;
    ++*iov;
    --*iovcnt;
  }
  if (*iovcnt > 0) {
    (*iov)->iov_base = static_cast<char*>((*iov)->iov_base) + done;
    (*iov)->iov_len -= done;
  }
}

inline ssize_t ReadvEintr(int fd, const struct iovec* iov, int iovcnt) {
  for (;;) {
    ssize_t n = ::readv(fd, iov, iovcnt);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

inline ssize_t WritevEintr(int fd, const struct iovec* iov, int iovcnt) {
  for (;;) {
    ssize_t n = ::writev(fd, iov, iovcnt);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

inline ssize_t SendmsgEintr(int fd, const struct msghdr* msg, int flags) {
  for (;;) {
    ssize_t n = ::sendmsg(fd, msg, flags);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

inline int AcceptEintr(int fd, struct sockaddr* addr, socklen_t* addrlen) {
  for (;;) {
    int n = ::accept(fd, addr, addrlen);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

}  // namespace io
}  // namespace dpstore

#endif  // DPSTORE_UTIL_IO_H_
