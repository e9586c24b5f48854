#ifndef DPBENCH_LOAD_GEN_H_
#define DPBENCH_LOAD_GEN_H_

// Load-generation primitives for dpstore_bench: the open-loop arrival
// schedule, the generator's wake-up discipline, and the percentile rule
// every reported latency follows.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

namespace dpstore {
namespace bench {

using Clock = std::chrono::steady_clock;

/// Sets the calling thread's timer slack to 1 ns. The Linux default
/// (50 us) lets every sleep_until wake up to 50 us late, which an open
/// loop books as latency: at 10k ops/s it inflates dp_ir's p50 by ~70%.
/// Threads created afterwards inherit the value, so calling this once in
/// main before any client thread starts covers them all.
inline bool SetTightTimerSlack() {
  return ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL) == 0;
}

/// A reported percentile needs at least this many samples above it;
/// with fewer, the "percentile" is just one of the few largest samples.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(permille * N / 1000). Empty when fewer than kMinSamplesBeyond
/// samples lie beyond that rank, so 400 samples never yield a "p999".
/// Per-mille (500 = p50, 990 = p99) keeps the rank in exact integer
/// arithmetic.
inline std::optional<double> Percentile(const std::vector<double>& sorted,
                                        uint32_t permille) {
  const size_t n = sorted.size();
  if (n == 0 || permille == 0 || permille > 1000) return std::nullopt;
  const size_t rank = (static_cast<size_t>(permille) * n + 999) / 1000;
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  return sorted[rank - 1];
}

/// Evenly spaced arrivals for client `client` of `clients` generators
/// that share an offered load of `rate` ops/s. Client c's i-th op is due
/// at start + (i + c / clients) * clients / rate, so the merged arrival
/// stream is evenly spaced instead of `clients` synchronized bursts.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate, unsigned clients,
                   unsigned client)
      : interval_(static_cast<int64_t>(1e9 * clients / rate)),
        base_(start + interval_ * client / clients) {}

  Clock::time_point Due(uint64_t i) const {
    return base_ + interval_ * static_cast<int64_t>(i);
  }

 private:
  std::chrono::nanoseconds interval_;
  Clock::time_point base_;
};

/// Sleeps until `due`. Returns how late the generator woke, in us, when
/// it had to wait; empty when `due` had already passed (the previous op
/// overran its slot — queueing the op's latency counts, not generator
/// lateness).
inline std::optional<double> SleepUntilDue(Clock::time_point due) {
  if (Clock::now() >= due) return std::nullopt;
  std::this_thread::sleep_until(due);
  return std::chrono::duration<double, std::micro>(Clock::now() - due)
      .count();
}

}  // namespace bench
}  // namespace dpstore

#endif  // DPBENCH_LOAD_GEN_H_
