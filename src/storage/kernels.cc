#include "storage/kernels.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DPSTORE_KERNELS_X86 1
#else
#define DPSTORE_KERNELS_X86 0
#endif

namespace dpstore {
namespace kernels {
namespace {

// The scalar variants are the semantic reference AND the measured
// baseline for the SIMD speedup criterion, so they must stay scalar:
// without the pin, -O3 auto-vectorizes these loops into the very SIMD
// code they are supposed to be compared against.
#if defined(__GNUC__) && !defined(__clang__)
#define DPSTORE_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define DPSTORE_NO_AUTOVEC
#endif

inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

inline void StoreWord(uint8_t* p, uint64_t w) { std::memcpy(p, &w, sizeof(w)); }

inline uint64_t SelectBit(const uint64_t* bits, uint64_t index) {
  return (bits[index >> 6] >> (index & 63)) & 1;
}

// --- scalar ------------------------------------------------------------------

DPSTORE_NO_AUTOVEC
void XorAccumulateScalar(uint8_t* dst, const uint8_t* src, size_t len) {
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    StoreWord(dst + i, LoadWord(dst + i) ^ LoadWord(src + i));
  }
  for (; i < len; ++i) dst[i] = static_cast<uint8_t>(dst[i] ^ src[i]);
}

// dst ^= (src & mask) over len bytes, mask per-word 0 or ~0. Branchless so
// the scan's timing and traffic are selection-independent.
DPSTORE_NO_AUTOVEC
void MaskedXorScalar(uint8_t* dst, const uint8_t* src, size_t len,
                     uint64_t mask) {
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    StoreWord(dst + i, LoadWord(dst + i) ^ (LoadWord(src + i) & mask));
  }
  const uint8_t byte_mask = static_cast<uint8_t>(mask);
  for (; i < len; ++i) {
    dst[i] = static_cast<uint8_t>(dst[i] ^ (src[i] & byte_mask));
  }
}

void SelectXorScanScalar(uint8_t* dst, const uint8_t* src, size_t count,
                         size_t block_size, const uint64_t* bits,
                         uint64_t bit_offset) {
  for (size_t i = 0; i < count; ++i) {
    const uint64_t mask = 0 - SelectBit(bits, bit_offset + i);
    MaskedXorScalar(dst, src + i * block_size, block_size, mask);
  }
}

DPSTORE_NO_AUTOVEC
void CopyRunScalar(uint8_t* dst, const uint8_t* src, size_t len) {
  size_t i = 0;
  for (; i + 8 <= len; i += 8) StoreWord(dst + i, LoadWord(src + i));
  for (; i < len; ++i) dst[i] = src[i];
}

void CopyRunsScalar(const CopyRun* runs, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    CopyRunScalar(runs[i].dst, runs[i].src, runs[i].len);
  }
}

// --- register-accumulating scan ----------------------------------------------

// SelectXorScan's SIMD variants share one body written with the GCC vector
// extension and force-inlined into a target("sse2") or target("avx2")
// function, which picks the register width. The running XOR of a block
// lives in registers for the whole call and is folded into dst once at the
// end, so the loop body is loads, ANDs and XORs only.
typedef uint64_t U64x2 __attribute__((vector_size(16)));
typedef uint64_t U64x4 __attribute__((vector_size(32)));

// Vector registers that accumulate one stripe of a block.
constexpr size_t kStripeVectors = 8;
// Blocks per pass when a block is wider than one stripe (see below).
constexpr size_t kStripeGroupBlocks = 16;
// A large scan streams from DRAM: asking for the line this far ahead of
// each block keeps more misses in flight than the hardware prefetcher
// does alone (~6 -> ~7.8 GiB/s over a 64 MiB arena of 64-byte blocks).
constexpr uintptr_t kPrefetchBytes = 2048;

// Accumulates bytes [first, first + R * sizeof(V) + tail) of blocks
// [begin, end) into the same bytes of dst: R whole vectors, then a tail of
// fewer than sizeof(V) bytes split into 16-, 8- and 1..7-byte pieces, each
// with its own register. Every byte of every block is read whatever its
// bit; the tail's branches depend on the block size only.
template <typename V, size_t R>
[[gnu::always_inline]] inline void ScanStripe(
    uint8_t* dst, const uint8_t* src, size_t begin, size_t end,
    size_t block_size, size_t first, size_t tail, const uint64_t* bits,
    uint64_t bit_offset) {
  constexpr size_t kW = sizeof(V);
  V acc[R > 0 ? R : 1];
  for (size_t r = 0; r < R; ++r) std::memcpy(&acc[r], dst + first + r * kW, kW);
  const size_t tail_at = first + R * kW;
  const bool has16 = kW > 16 && tail >= 16;
  const size_t at8 = tail_at + (has16 ? 16 : 0);
  const bool has8 = (tail & 8) != 0;
  const size_t at1 = at8 + (has8 ? 8 : 0);
  const size_t bytes = tail & 7;
  U64x2 acc16 = {0, 0};
  uint64_t acc8 = 0;
  uint64_t acc1 = 0;
  for (size_t i = begin; i < end; ++i) {
    const uint64_t mask = 0 - SelectBit(bits, bit_offset + i);
    const V vmask = V{} + mask;
    const uint8_t* block = src + i * block_size;
    // An address, not a pointer: it may lie past the arena, and a
    // prefetch never faults.
    __builtin_prefetch(reinterpret_cast<const void*>(
        reinterpret_cast<uintptr_t>(block + first) + kPrefetchBytes));
    for (size_t r = 0; r < R; ++r) {
      V x;
      std::memcpy(&x, block + first + r * kW, kW);
      acc[r] ^= x & vmask;
    }
    if (has16) {
      U64x2 x;
      std::memcpy(&x, block + tail_at, 16);
      acc16 ^= x & (U64x2{} + mask);
    }
    if (has8) acc8 ^= LoadWord(block + at8) & mask;
    if (bytes != 0) {
      uint64_t x = 0;
      std::memcpy(&x, block + at1, bytes);
      acc1 ^= x & mask;
    }
  }
  for (size_t r = 0; r < R; ++r) std::memcpy(dst + first + r * kW, &acc[r], kW);
  if (has16) {
    U64x2 d;
    std::memcpy(&d, dst + tail_at, 16);
    d ^= acc16;
    std::memcpy(dst + tail_at, &d, 16);
  }
  if (has8) StoreWord(dst + at8, LoadWord(dst + at8) ^ acc8);
  if (bytes != 0) {
    uint64_t d = 0;
    std::memcpy(&d, dst + at1, bytes);
    d ^= acc1;
    std::memcpy(dst + at1, &d, bytes);
  }
}

// A block of at most kStripeVectors vectors plus a tail is one stripe,
// scanned over all `count` blocks in one pass. A wider block is cut into
// stripes of kStripeVectors vectors, the last carrying the tail, and
// scanned kStripeGroupBlocks blocks at a time, every stripe of the group
// in turn: dst is then read and written once per group and stripe instead
// of once per block, and a group is a few parallel sequential streams.
template <typename V>
[[gnu::always_inline]] inline void SelectXorScanRegs(
    uint8_t* dst, const uint8_t* src, size_t count, size_t block_size,
    const uint64_t* bits, uint64_t bit_offset) {
  constexpr size_t kW = sizeof(V);
  if (count == 0 || block_size == 0) return;
  const size_t vectors = block_size / kW;
  const size_t stripes =
      vectors <= kStripeVectors
          ? 1
          : (vectors + kStripeVectors - 1) / kStripeVectors;
  const size_t group = stripes == 1 ? count : kStripeGroupBlocks;
  for (size_t begin = 0; begin < count; begin += group) {
    const size_t end = std::min(count, begin + group);
    for (size_t s = 0; s < stripes; ++s) {
      const bool last = s + 1 == stripes;
      const size_t first = s * kStripeVectors * kW;
      const size_t r = last ? vectors - s * kStripeVectors : kStripeVectors;
      const size_t tail = last ? block_size % kW : 0;
#define DPSTORE_SCAN_STRIPE(R)                                                \
  case R:                                                                     \
    ScanStripe<V, R>(dst, src, begin, end, block_size, first, tail, bits,     \
                     bit_offset);                                             \
    break
      switch (r) {
        DPSTORE_SCAN_STRIPE(0);
        DPSTORE_SCAN_STRIPE(1);
        DPSTORE_SCAN_STRIPE(2);
        DPSTORE_SCAN_STRIPE(3);
        DPSTORE_SCAN_STRIPE(4);
        DPSTORE_SCAN_STRIPE(5);
        DPSTORE_SCAN_STRIPE(6);
        DPSTORE_SCAN_STRIPE(7);
        DPSTORE_SCAN_STRIPE(8);
      }
#undef DPSTORE_SCAN_STRIPE
    }
  }
}

// --- sse2 / avx2 -------------------------------------------------------------

#if DPSTORE_KERNELS_X86

__attribute__((target("sse2"))) void XorAccumulateSse2(uint8_t* dst,
                                                       const uint8_t* src,
                                                       size_t len) {
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(a, b));
  }
  if (i < len) XorAccumulateScalar(dst + i, src + i, len - i);
}

__attribute__((target("sse2"))) void SelectXorScanSse2(
    uint8_t* dst, const uint8_t* src, size_t count, size_t block_size,
    const uint64_t* bits, uint64_t bit_offset) {
  SelectXorScanRegs<U64x2>(dst, src, count, block_size, bits, bit_offset);
}

__attribute__((target("sse2"))) void CopyRunsSse2(const CopyRun* runs,
                                                  size_t count) {
  for (size_t r = 0; r < count; ++r) {
    uint8_t* dst = runs[r].dst;
    const uint8_t* src = runs[r].src;
    const size_t len = runs[r].len;
    size_t i = 0;
    for (; i + 16 <= len; i += 16) {
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(dst + i),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    }
    if (i < len) CopyRunScalar(dst + i, src + i, len - i);
  }
}

__attribute__((target("avx2"))) void XorAccumulateAvx2(uint8_t* dst,
                                                       const uint8_t* src,
                                                       size_t len) {
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
  if (i < len) XorAccumulateSse2(dst + i, src + i, len - i);
}

__attribute__((target("avx2"))) void SelectXorScanAvx2(
    uint8_t* dst, const uint8_t* src, size_t count, size_t block_size,
    const uint64_t* bits, uint64_t bit_offset) {
  SelectXorScanRegs<U64x4>(dst, src, count, block_size, bits, bit_offset);
}

__attribute__((target("avx2"))) void CopyRunsAvx2(const CopyRun* runs,
                                                  size_t count) {
  for (size_t r = 0; r < count; ++r) {
    uint8_t* dst = runs[r].dst;
    const uint8_t* src = runs[r].src;
    const size_t len = runs[r].len;
    size_t i = 0;
    for (; i + 32 <= len; i += 32) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst + i),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    }
    if (i < len) CopyRunScalar(dst + i, src + i, len - i);
  }
}

#endif  // DPSTORE_KERNELS_X86

Variant DetectBest() {
#if DPSTORE_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) return Variant::kAvx2;
  if (__builtin_cpu_supports("sse2")) return Variant::kSse2;
#endif
  return Variant::kScalar;
}

Variant ChooseVariant() {
  Variant best = DetectBest();
  const char* env = std::getenv("DPSTORE_KERNEL");
  if (env != nullptr && *env != '\0') {
    const std::string want(env);
    Variant forced = best;
    if (want == "scalar") {
      forced = Variant::kScalar;
    } else if (want == "sse2") {
      forced = Variant::kSse2;
    } else if (want == "avx2") {
      forced = Variant::kAvx2;
    }
    // Only ever force DOWN: an unsupported (or unknown) request keeps the
    // detected best instead of crashing on an illegal instruction.
    if (static_cast<uint8_t>(forced) < static_cast<uint8_t>(best)) {
      best = forced;
    }
  }
  return best;
}

}  // namespace

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kScalar:
      return "scalar";
    case Variant::kSse2:
      return "sse2";
    case Variant::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Variant ActiveVariant() {
  static const Variant v = ChooseVariant();
  return v;
}

bool VariantSupported(Variant v) {
  return static_cast<uint8_t>(v) <= static_cast<uint8_t>(DetectBest());
}

void XorAccumulateVariant(Variant v, uint8_t* dst, const uint8_t* src,
                          size_t len) {
#if DPSTORE_KERNELS_X86
  if (v == Variant::kAvx2) return XorAccumulateAvx2(dst, src, len);
  if (v == Variant::kSse2) return XorAccumulateSse2(dst, src, len);
#endif
  XorAccumulateScalar(dst, src, len);
}

void SelectXorScanVariant(Variant v, uint8_t* dst, const uint8_t* src,
                          size_t count, size_t block_size,
                          const uint64_t* bits, uint64_t bit_offset) {
#if DPSTORE_KERNELS_X86
  if (v == Variant::kAvx2) {
    return SelectXorScanAvx2(dst, src, count, block_size, bits, bit_offset);
  }
  if (v == Variant::kSse2) {
    return SelectXorScanSse2(dst, src, count, block_size, bits, bit_offset);
  }
#endif
  SelectXorScanScalar(dst, src, count, block_size, bits, bit_offset);
}

void CopyRunsVariant(Variant v, const CopyRun* runs, size_t count) {
#if DPSTORE_KERNELS_X86
  if (v == Variant::kAvx2) return CopyRunsAvx2(runs, count);
  if (v == Variant::kSse2) return CopyRunsSse2(runs, count);
#endif
  CopyRunsScalar(runs, count);
}

void XorAccumulate(uint8_t* dst, const uint8_t* src, size_t len) {
  XorAccumulateVariant(ActiveVariant(), dst, src, len);
}

void SelectXorScan(uint8_t* dst, const uint8_t* src, size_t count,
                   size_t block_size, const uint64_t* bits,
                   uint64_t bit_offset) {
  SelectXorScanVariant(ActiveVariant(), dst, src, count, block_size, bits,
                       bit_offset);
}

void CopyRuns(const CopyRun* runs, size_t count) {
  CopyRunsVariant(ActiveVariant(), runs, count);
}

}  // namespace kernels
}  // namespace dpstore
