#include "counting_allocator.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_allocated_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<int64_t>(size),
                              std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAllocAligned(std::size_t size, std::align_val_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<int64_t>(size),
                              std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(alignment);
  // C11 aligned_alloc requires size to be a multiple of the alignment.
  size = (size + align - 1) / align * align;
  if (size == 0) size = align;
  void* p = std::aligned_alloc(align, size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace dpstore {
namespace test {

int64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

int64_t AllocatedBytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

AllocationWindow::AllocationWindow()
    : start(AllocationCount()), start_bytes(AllocatedBytes()) {}

int64_t AllocationWindow::Delta() const { return AllocationCount() - start; }

int64_t AllocationWindow::DeltaBytes() const {
  return AllocatedBytes() - start_bytes;
}

}  // namespace test
}  // namespace dpstore

// Replacement global allocation functions. Deliberately minimal: count,
// then defer to malloc/free (which sanitizers intercept, so ASan/TSan runs
// stay meaningful).
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAllocAligned(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAllocAligned(size, alignment);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
