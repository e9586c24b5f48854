// Tests for the runtime-dispatched data-plane kernels: every variant this
// CPU supports must be bit-identical to the portable scalar baseline on
// random and deliberately misaligned buffers, and the DPSTORE_KERNEL
// override must never force an unsupported variant.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "storage/kernels.h"
#include "util/random.h"

namespace dpstore {
namespace kernels {
namespace {

std::vector<uint8_t> RandomBytes(Rng* rng, size_t len) {
  std::vector<uint8_t> bytes(len);
  for (size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<uint8_t>(rng->Uniform(256));
  }
  return bytes;
}

std::vector<Variant> SupportedVariants() {
  std::vector<Variant> variants;
  for (Variant v : {Variant::kScalar, Variant::kSse2, Variant::kAvx2}) {
    if (VariantSupported(v)) variants.push_back(v);
  }
  return variants;
}

TEST(KernelsTest, ActiveVariantIsSupportedAndNamed) {
  EXPECT_TRUE(VariantSupported(ActiveVariant()));
  EXPECT_TRUE(VariantSupported(Variant::kScalar));  // always
  for (Variant v : SupportedVariants()) {
    const char* name = VariantName(v);
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
  // When the suite runs with DPSTORE_KERNEL=scalar or sse2 (the CI matrix
  // legs), the override must actually have taken effect.
  const char* forced = std::getenv("DPSTORE_KERNEL");
  if (forced != nullptr && std::string(forced) == "scalar") {
    EXPECT_EQ(ActiveVariant(), Variant::kScalar);
  }
  if (forced != nullptr && std::string(forced) == "sse2" &&
      VariantSupported(Variant::kSse2)) {
    EXPECT_EQ(ActiveVariant(), Variant::kSse2);
  }
}

TEST(KernelsTest, XorAccumulateVariantsBitIdentical) {
  Rng rng(11);
  // Lengths straddling every tail case: sub-word, word, SSE2 chunk, AVX2
  // chunk, and ragged combinations of all three.
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{15},
                     size_t{16}, size_t{17}, size_t{31}, size_t{32},
                     size_t{33}, size_t{63}, size_t{64}, size_t{100},
                     size_t{257}, size_t{4096}, size_t{4101}}) {
    const std::vector<uint8_t> src = RandomBytes(&rng, len);
    const std::vector<uint8_t> dst0 = RandomBytes(&rng, len);
    std::vector<uint8_t> expect = dst0;
    XorAccumulateVariant(Variant::kScalar, expect.data(), src.data(), len);
    for (Variant v : SupportedVariants()) {
      std::vector<uint8_t> got = dst0;
      XorAccumulateVariant(v, got.data(), src.data(), len);
      EXPECT_EQ(got, expect) << "len=" << len << " variant=" << VariantName(v);
    }
    // Self-inverse sanity: accumulating twice restores dst.
    std::vector<uint8_t> twice = dst0;
    XorAccumulate(twice.data(), src.data(), len);
    XorAccumulate(twice.data(), src.data(), len);
    EXPECT_EQ(twice, dst0);
  }
}

TEST(KernelsTest, XorAccumulateMisalignedBuffersBitIdentical) {
  Rng rng(12);
  const size_t len = 1000;
  const std::vector<uint8_t> backing_src = RandomBytes(&rng, len + 64);
  const std::vector<uint8_t> backing_dst = RandomBytes(&rng, len + 64);
  // Walk both buffers through awkward offsets so no variant can rely on
  // natural alignment (loads/stores must all be unaligned-safe).
  for (size_t offset : {size_t{1}, size_t{3}, size_t{7}, size_t{13},
                        size_t{17}, size_t{31}}) {
    std::vector<uint8_t> expect(backing_dst.begin() + offset,
                                backing_dst.begin() + offset + len);
    XorAccumulateVariant(Variant::kScalar, expect.data(),
                         backing_src.data() + offset, len);
    for (Variant v : SupportedVariants()) {
      std::vector<uint8_t> got(backing_dst.begin() + offset,
                               backing_dst.begin() + offset + len);
      XorAccumulateVariant(v, got.data(), backing_src.data() + offset, len);
      EXPECT_EQ(got, expect)
          << "offset=" << offset << " variant=" << VariantName(v);
    }
  }
}

TEST(KernelsTest, SelectXorScanVariantsBitIdentical) {
  Rng rng(13);
  for (size_t block_size : {size_t{1}, size_t{3}, size_t{8}, size_t{16},
                            size_t{24}, size_t{33}, size_t{64},
                            size_t{100}}) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                         size_t{65}, size_t{200}}) {
      for (uint64_t bit_offset : {uint64_t{0}, uint64_t{5}, uint64_t{64},
                                  uint64_t{67}}) {
        const std::vector<uint8_t> arena =
            RandomBytes(&rng, count * block_size);
        std::vector<uint64_t> bits((bit_offset + count + 63) / 64 + 1);
        for (uint64_t& word : bits) {
          word = (rng.Uniform(uint64_t{1} << 32) << 32) ^
                 rng.Uniform(uint64_t{1} << 32);
        }
        // Oracle: the naive per-block loop.
        std::vector<uint8_t> naive(block_size, 0);
        for (size_t i = 0; i < count; ++i) {
          const uint64_t bit = bit_offset + i;
          if (((bits[bit >> 6] >> (bit & 63)) & 1) == 0) continue;
          for (size_t b = 0; b < block_size; ++b) {
            naive[b] ^= arena[i * block_size + b];
          }
        }
        std::vector<uint8_t> expect(block_size, 0);
        SelectXorScanVariant(Variant::kScalar, expect.data(), arena.data(),
                             count, block_size, bits.data(), bit_offset);
        ASSERT_EQ(expect, naive)
            << "scalar kernel disagrees with the naive oracle";
        for (Variant v : SupportedVariants()) {
          std::vector<uint8_t> got(block_size, 0);
          SelectXorScanVariant(v, got.data(), arena.data(), count,
                               block_size, bits.data(), bit_offset);
          EXPECT_EQ(got, expect)
              << "bs=" << block_size << " count=" << count
              << " off=" << bit_offset << " variant=" << VariantName(v);
        }
      }
    }
  }
}

TEST(KernelsTest, SelectXorScanAccumulatesAcrossStripesAndTails) {
  // The SIMD scans keep the running XOR in registers: whole vectors, a
  // 16/8/1..7-byte tail, and for blocks wider than 8 vectors stripes over
  // groups of 16 blocks. Block sizes straddle each of those cuts, counts
  // are not multiples of 4, 16 or 64, src and dst sit at odd addresses,
  // and dst starts non-zero: the kernel must XOR into it, not overwrite.
  Rng rng(16);
  for (size_t block_size :
       {size_t{1}, size_t{7}, size_t{8}, size_t{31}, size_t{32}, size_t{33},
        size_t{64}, size_t{96}, size_t{256}, size_t{257}, size_t{300},
        size_t{520}, size_t{4096}}) {
    for (size_t count : {size_t{1}, size_t{3}, size_t{5}, size_t{17},
                         size_t{63}, size_t{65}, size_t{130}}) {
      for (uint64_t bit_offset : {uint64_t{0}, uint64_t{5}, uint64_t{67}}) {
        for (size_t misalign : {size_t{0}, size_t{1}, size_t{13}}) {
          const std::vector<uint8_t> backing_src =
              RandomBytes(&rng, count * block_size + misalign);
          const uint8_t* arena = backing_src.data() + misalign;
          std::vector<uint64_t> bits((bit_offset + count + 63) / 64);
          for (uint64_t& word : bits) {
            word = (rng.Uniform(uint64_t{1} << 32) << 32) ^
                   rng.Uniform(uint64_t{1} << 32);
          }
          const std::vector<uint8_t> dst0 = RandomBytes(&rng, block_size);
          std::vector<uint8_t> naive = dst0;
          for (size_t i = 0; i < count; ++i) {
            const uint64_t bit = bit_offset + i;
            if (((bits[bit >> 6] >> (bit & 63)) & 1) == 0) continue;
            for (size_t b = 0; b < block_size; ++b) {
              naive[b] ^= arena[i * block_size + b];
            }
          }
          for (Variant v : SupportedVariants()) {
            std::vector<uint8_t> backing_dst(block_size + misalign);
            std::copy(dst0.begin(), dst0.end(),
                      backing_dst.begin() + misalign);
            SelectXorScanVariant(v, backing_dst.data() + misalign, arena,
                                 count, block_size, bits.data(), bit_offset);
            const std::vector<uint8_t> got(backing_dst.begin() + misalign,
                                           backing_dst.end());
            ASSERT_EQ(got, naive)
                << "bs=" << block_size << " count=" << count
                << " off=" << bit_offset << " misalign=" << misalign
                << " variant=" << VariantName(v);
          }
        }
      }
    }
  }
}

TEST(KernelsTest, SelectXorScanEdgePatterns) {
  // All-ones and all-zeros selection vectors: the all-ones answer is the
  // XOR of everything, all-zeros is zero — for every variant.
  Rng rng(14);
  const size_t count = 128, block_size = 32;
  const std::vector<uint8_t> arena = RandomBytes(&rng, count * block_size);
  std::vector<uint64_t> ones(count / 64, ~uint64_t{0});
  std::vector<uint64_t> zeros(count / 64, 0);
  std::vector<uint8_t> everything(block_size, 0);
  for (size_t i = 0; i < count; ++i) {
    for (size_t b = 0; b < block_size; ++b) {
      everything[b] ^= arena[i * block_size + b];
    }
  }
  for (Variant v : SupportedVariants()) {
    std::vector<uint8_t> got_ones(block_size, 0);
    SelectXorScanVariant(v, got_ones.data(), arena.data(), count, block_size,
                         ones.data(), 0);
    EXPECT_EQ(got_ones, everything) << VariantName(v);
    std::vector<uint8_t> got_zeros(block_size, 0);
    SelectXorScanVariant(v, got_zeros.data(), arena.data(), count, block_size,
                         zeros.data(), 0);
    EXPECT_EQ(got_zeros, std::vector<uint8_t>(block_size, 0))
        << VariantName(v);
  }
}

TEST(KernelsTest, CopyRunsVariantsBitIdenticalAndOrdered) {
  Rng rng(15);
  const size_t arena_len = 4096;
  const std::vector<uint8_t> src = RandomBytes(&rng, arena_len);
  const std::vector<uint8_t> dst0 = RandomBytes(&rng, arena_len);
  // Random runs, including overlapping DESTINATIONS (duplicate upload
  // indices): in-order execution makes the outcome deterministic — the
  // scalar result is the contract.
  std::vector<std::pair<size_t, size_t>> spans;  // (dst_off, src_off)
  std::vector<size_t> lens;
  for (int k = 0; k < 50; ++k) {
    const size_t len = 1 + rng.Uniform(200);
    spans.emplace_back(rng.Uniform(arena_len - len),
                       rng.Uniform(arena_len - len));
    lens.push_back(len);
  }
  auto run_with = [&](Variant v) {
    std::vector<uint8_t> dst = dst0;
    std::vector<CopyRun> batch(spans.size());
    for (size_t k = 0; k < spans.size(); ++k) {
      batch[k].dst = dst.data() + spans[k].first;
      batch[k].src = src.data() + spans[k].second;
      batch[k].len = lens[k];
    }
    CopyRunsVariant(v, batch.data(), batch.size());
    return dst;
  };
  const std::vector<uint8_t> expect = run_with(Variant::kScalar);
  for (Variant v : SupportedVariants()) {
    EXPECT_EQ(run_with(v), expect) << VariantName(v);
  }
  // Empty batch is a no-op.
  CopyRuns(nullptr, 0);
}

}  // namespace
}  // namespace kernels
}  // namespace dpstore
