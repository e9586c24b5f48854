#ifndef DPSTORE_TESTS_COUNTING_ALLOCATOR_H_
#define DPSTORE_TESTS_COUNTING_ALLOCATOR_H_

#include <cstdint>

// Instrumented global allocator for allocation-regression tests: linking
// counting_allocator.cc into a test binary replaces the global operator
// new/delete with counting versions. Counting is process-wide and always
// on; tests snapshot the counter around the window they care about.
//
// Works under ASan/TSan (the replacement operators forward to malloc/free,
// which the sanitizers intercept), but the absolute counts can differ by a
// few allocations across toolchains — assert on DIFFERENCES between
// comparable windows, not on absolute values, wherever possible.

namespace dpstore {
namespace test {

/// Total operator-new invocations so far (process-wide, thread-safe).
int64_t AllocationCount();

/// Total bytes requested from operator new so far (frees not subtracted).
int64_t AllocatedBytes();

/// Allocations (and bytes requested) between two snapshots.
struct AllocationWindow {
  int64_t start;
  int64_t start_bytes;
  AllocationWindow();
  int64_t Delta() const;
  int64_t DeltaBytes() const;
};

}  // namespace test
}  // namespace dpstore

#endif  // DPSTORE_TESTS_COUNTING_ALLOCATOR_H_
