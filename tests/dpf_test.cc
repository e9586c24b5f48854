// Tests for the early-terminated GGM-tree DPF (crypto/dpf.h): the two
// parties' full-domain evaluations must XOR to exactly the point function
// at every depth, on both sides of the 512-bit leaf boundary; a known-answer
// table freezes the Expand/Convert PRGs; the serialized key format must
// round-trip; and — keys being untrusted wire input — truncated, corrupt,
// legacy-format or random encodings must be rejected, never crash. The
// range evaluator must reproduce every slice of the full evaluation, the
// storage engine's fused eval-and-scan must equal SelectXorScan over
// DpfEvalFull, and the 8-lane ChaCha20 must equal ChaCha20Block per lane
// under every kernel variant.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/chacha20.h"
#include "crypto/dpf.h"
#include "storage/kernels.h"
#include "storage/server.h"
#include "util/random.h"

namespace dpstore {
namespace crypto {
namespace {

uint64_t PopCount(const std::vector<uint64_t>& words) {
  uint64_t ones = 0;
  for (uint64_t w : words) ones += __builtin_popcountll(w);
  return ones;
}

uint8_t BitAt(const std::vector<uint64_t>& words, uint64_t x) {
  return static_cast<uint8_t>((words[x >> 6] >> (x & 63)) & 1);
}

std::vector<uint64_t> XorWords(const std::vector<uint64_t>& a,
                               const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out(a.size());
  for (size_t w = 0; w < out.size(); ++w) out[w] = a[w] ^ b[w];
  return out;
}

/// FNV-1a over the words' little-endian bytes.
uint64_t HashWords(const std::vector<uint64_t>& words) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (w >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// A key with fixed, arithmetic (not RNG-drawn) seeds and correction
/// words, so its evaluation depends on nothing but the DPF's PRGs.
DpfKey HandBuiltKey(uint8_t depth, uint8_t root_t, uint8_t salt) {
  DpfKey key;
  key.depth = depth;
  key.root_t = root_t;
  for (size_t i = 0; i < kDpfSeedSize; ++i) {
    key.root_seed[i] = static_cast<uint8_t>(salt + 29 * i);
  }
  key.cw.resize(DpfTreeLevels(depth));
  for (size_t level = 0; level < key.cw.size(); ++level) {
    for (size_t i = 0; i < kDpfSeedSize; ++i) {
      key.cw[level].seed[i] = static_cast<uint8_t>(salt * 7 + 13 * level + 5 * i);
    }
    key.cw[level].t_left = level & 1;
    key.cw[level].t_right = (level >> 1) & 1;
  }
  for (size_t i = 0; i < kDpfLeafBytes; ++i) {
    key.cw_out[i] = static_cast<uint8_t>(salt ^ (17 * i + 3));
  }
  return key;
}

/// The range evaluator's output over [offset, offset + count) as packed
/// words (bit i = point offset + i), checking each chunk's contract.
std::vector<uint64_t> EvalRange(const DpfKey& key, uint64_t offset,
                                uint64_t count) {
  std::vector<uint64_t> out((count + 63) / 64, 0);
  DpfRangeEvaluator eval(key, offset, count);
  uint64_t done = 0;
  for (DpfRangeEvaluator::Chunk chunk; eval.Next(&chunk);) {
    EXPECT_GT(chunk.count, 0u);
    EXPECT_LT(chunk.bit_offset, 8 * kDpfLeafBytes);
    EXPECT_LE(chunk.bit_offset + chunk.count,
              64 * DpfRangeEvaluator::kChunkWords);
    for (uint64_t i = 0; i < chunk.count; ++i) {
      const uint64_t from = chunk.bit_offset + i;
      const uint64_t bit = (chunk.bits[from >> 6] >> (from & 63)) & 1;
      out[(done + i) >> 6] |= bit << ((done + i) & 63);
    }
    done += chunk.count;
  }
  EXPECT_EQ(done, count);
  return out;
}

/// Bits [offset, offset + count) of `full`, repacked from bit 0.
std::vector<uint64_t> Slice(const std::vector<uint64_t>& full, uint64_t offset,
                            uint64_t count) {
  std::vector<uint64_t> out((count + 63) / 64, 0);
  for (uint64_t i = 0; i < count; ++i) {
    out[i >> 6] |= uint64_t{BitAt(full, offset + i)} << (i & 63);
  }
  return out;
}

TEST(DpfTest, KeySizeFollowsTheEarlyTerminatedLayout) {
  // Depths up to 9 are a single leaf: no tree level, just the output CW.
  for (uint8_t depth = 1; depth <= kDpfLeafLevels; ++depth) {
    EXPECT_EQ(DpfTreeLevels(depth), 0);
    EXPECT_EQ(DpfKeyBytes(depth), 89u);
  }
  EXPECT_EQ(DpfTreeLevels(10), 1);
  EXPECT_EQ(DpfKeyBytes(10), 106u);
  EXPECT_EQ(DpfKeyBytes(16), 208u);
  EXPECT_EQ(DpfKeyBytes(20), 276u);
  EXPECT_EQ(DpfKeyBytes(kMaxDpfDepth), 378u);
}

TEST(DpfTest, EvalPairXorsToPointFunctionAtEveryDepth) {
  Rng rng(101);
  // Every tree depth the scheme layer can request, up to n = 2^22: random
  // alphas, whole-domain check that eval0 XOR eval1 is the indicator of
  // alpha. The packed-word XOR makes the full-domain comparison cheap
  // even at the top depth.
  for (uint8_t depth = 1; depth <= 22; ++depth) {
    const uint64_t n = uint64_t{1} << depth;
    const uint64_t alpha = rng.Uniform(n);
    auto keys = DpfGen(alpha, depth);
    ASSERT_TRUE(keys.ok()) << keys.status();
    EXPECT_EQ(keys->key0.party, 0);
    EXPECT_EQ(keys->key1.party, 1);
    const std::vector<uint64_t> eval0 = DpfEvalFull(keys->key0);
    const std::vector<uint64_t> eval1 = DpfEvalFull(keys->key1);
    ASSERT_EQ(eval0.size(), (n + 63) / 64);
    ASSERT_EQ(eval1.size(), eval0.size());
    const std::vector<uint64_t> combined = XorWords(eval0, eval1);
    // Exactly one bit set, at alpha — popcount + the bit itself together
    // pin the whole domain.
    EXPECT_EQ(PopCount(combined), 1u) << "depth=" << unsigned{depth};
    EXPECT_EQ(BitAt(combined, alpha), 1) << "depth=" << unsigned{depth};
  }
}

TEST(DpfTest, ExhaustiveAlphasAtSmallDepths) {
  // Depths 1..9 are single-leaf keys (no tree level); depth 10 is the
  // first key with a tree level, so every alpha on both sides of the
  // 512-point leaf boundary is covered. The popcount includes the bits
  // above a sub-64-point domain, so those are pinned to zero as well.
  for (uint8_t depth = 1; depth <= 10; ++depth) {
    const uint64_t n = uint64_t{1} << depth;
    for (uint64_t alpha = 0; alpha < n; ++alpha) {
      auto keys = DpfGen(alpha, depth);
      ASSERT_TRUE(keys.ok());
      const std::vector<uint64_t> combined =
          XorWords(DpfEvalFull(keys->key0), DpfEvalFull(keys->key1));
      ASSERT_EQ(PopCount(combined), 1u)
          << "depth=" << unsigned{depth} << " alpha=" << alpha;
      ASSERT_EQ(BitAt(combined, alpha), 1)
          << "depth=" << unsigned{depth} << " alpha=" << alpha;
    }
  }
}

TEST(DpfTest, EvalPointAgreesWithEvalFull) {
  Rng rng(102);
  for (uint8_t depth : {uint8_t{1}, uint8_t{5}, uint8_t{9}, uint8_t{10},
                        uint8_t{13}, uint8_t{18}}) {
    const uint64_t n = uint64_t{1} << depth;
    auto keys = DpfGen(rng.Uniform(n), depth);
    ASSERT_TRUE(keys.ok());
    // Random points plus the leaf boundary (511 | 512) and the domain's
    // last point.
    std::vector<uint64_t> points = {0, 511, 512, n - 1};
    for (int trial = 0; trial < 64; ++trial) points.push_back(rng.Uniform(n));
    for (const DpfKey* key : {&keys->key0, &keys->key1}) {
      const std::vector<uint64_t> full = DpfEvalFull(*key);
      for (uint64_t x : points) {
        if (x >= n) continue;
        EXPECT_EQ(DpfEvalPoint(*key, x), BitAt(full, x))
            << "depth=" << unsigned{depth} << " x=" << x;
      }
    }
  }
}

TEST(DpfTest, BitsBeyondSmallDomainsAreZero) {
  // Below 64 points the one output word is cut from a 512-bit leaf; the
  // bits above 2^depth must not leak into SelectXorScan's gate word. A
  // hand-built key with every output-CW bit set makes a leak all but
  // certain to show.
  Rng rng(104);
  for (uint8_t depth = 1; depth < 6; ++depth) {
    const uint64_t n = uint64_t{1} << depth;
    auto keys = DpfGen(rng.Uniform(n), depth);
    ASSERT_TRUE(keys.ok());
    DpfKey saturated = HandBuiltKey(depth, /*root_t=*/1, /*salt=*/depth);
    saturated.cw_out.fill(0xFF);
    for (const DpfKey* key : {&keys->key0, &keys->key1, &saturated}) {
      const std::vector<uint64_t> full = DpfEvalFull(*key);
      ASSERT_EQ(full.size(), 1u);
      EXPECT_EQ(full[0] >> n, 0u) << "depth=" << unsigned{depth};
    }
  }
}

TEST(DpfTest, ConvertIsChaChaBlockAtCounterOne) {
  // A depth-9 key is one leaf: its evaluation is Convert(root seed), XOR
  // the output CW when the root bit is set. Convert is pinned here to its
  // definition — the ChaCha20 block keyed by the zero-padded seed, zero
  // nonce, counter 1, read as little-endian words.
  for (uint8_t root_t : {uint8_t{0}, uint8_t{1}}) {
    const DpfKey key = HandBuiltKey(kDpfLeafLevels, root_t, /*salt=*/42);
    ChaChaKey cipher_key{};
    std::memcpy(cipher_key.data(), key.root_seed.data(), kDpfSeedSize);
    uint8_t block[kChaChaBlockSize];
    ChaCha20Block(cipher_key, ChaChaNonce{}, /*counter=*/1, block);
    if (root_t) {
      for (size_t i = 0; i < kChaChaBlockSize; ++i) block[i] ^= key.cw_out[i];
    }
    const std::vector<uint64_t> full = DpfEvalFull(key);
    ASSERT_EQ(full.size(), 8u);
    for (size_t w = 0; w < full.size(); ++w) {
      uint64_t expected = 0;
      for (int byte = 7; byte >= 0; --byte) {
        expected = (expected << 8) | block[8 * w + byte];
      }
      EXPECT_EQ(full[w], expected) << "root_t=" << unsigned{root_t}
                                   << " word=" << w;
    }
  }
}

TEST(DpfTest, KnownAnswerVectors) {
  // Frozen evaluations of fixed keys on both sides of the leaf boundary.
  // Any change to Expand, Convert, the leaf layout or the tree walk moves
  // these hashes: a faster PRG implementation must reproduce them
  // bit-for-bit.
  struct Vector {
    uint8_t depth;
    uint8_t root_t;
    uint64_t hash;
  };
  const Vector vectors[] = {
      {1, 0, 0x89cd31291d2aefa4ULL},  {1, 1, 0xc7c2bf3b330983e6ULL},
      {6, 0, 0x82fc0ab8a58bee2cULL},  {6, 1, 0x1aa33b2be5e64decULL},
      {9, 0, 0xc43116be925d9cfeULL},  {9, 1, 0x58f097fef79be5baULL},
      {10, 0, 0xc2c93cacf690cffbULL}, {10, 1, 0xb2bbd1b8e8537991ULL},
      {16, 0, 0x28aaeba6dca2fe62ULL}, {16, 1, 0x4bafb190393d514eULL},
  };
  for (const Vector& v : vectors) {
    const DpfKey key = HandBuiltKey(v.depth, v.root_t, /*salt=*/v.depth);
    const std::vector<uint64_t> full = DpfEvalFull(key);
    ASSERT_EQ(full.size(), ((uint64_t{1} << v.depth) + 63) / 64);
    EXPECT_EQ(HashWords(full), v.hash)
        << "depth=" << unsigned{v.depth} << " root_t=" << unsigned{v.root_t};
  }
}

TEST(DpfTest, KnownAnswerVectorsAcrossChunks) {
  // Depths past one 64-leaf chunk: the range evaluator walks 4 (depth 18)
  // and 64 (depth 21) chunks and reuses its cached path between them. The
  // hashes are those of the level-by-level evaluator the range evaluator
  // replaced, so they pin the same tree.
  struct Vector {
    uint8_t depth;
    uint8_t root_t;
    uint64_t hash;
  };
  const Vector vectors[] = {
      {18, 0, 0x801afc36a0fcb890ULL}, {18, 1, 0x0363a5539e723a33ULL},
      {21, 0, 0xfa24505acddf1065ULL}, {21, 1, 0x8a09bf18849e2fa0ULL},
  };
  for (const Vector& v : vectors) {
    const DpfKey key = HandBuiltKey(v.depth, v.root_t, /*salt=*/v.depth);
    EXPECT_EQ(HashWords(DpfEvalFull(key)), v.hash)
        << "depth=" << unsigned{v.depth} << " root_t=" << unsigned{v.root_t};
  }
}

TEST(DpfTest, RangeEvaluatorMatchesEvalFullSlices) {
  // Every depth up to 12, ranges starting and ending on both sides of the
  // 512-point leaf boundary, counts that are not multiples of 512, and
  // ranges that end exactly at the domain's last point.
  Rng rng(105);
  const uint64_t edges[] = {0, 1, 511, 512, 513};
  const uint64_t counts[] = {1, 7, 511, 512, 513, 1000, 1537};
  for (uint8_t depth = 1; depth <= 12; ++depth) {
    const uint64_t n = uint64_t{1} << depth;
    auto keys = DpfGen(rng.Uniform(n), depth);
    ASSERT_TRUE(keys.ok());
    DpfKey hand = HandBuiltKey(depth, /*root_t=*/1, /*salt=*/depth);
    for (const DpfKey* key : {&keys->key0, &keys->key1, &hand}) {
      const std::vector<uint64_t> full = DpfEvalFull(*key);
      std::vector<std::pair<uint64_t, uint64_t>> ranges;
      for (uint64_t offset : edges) {
        if (offset >= n) continue;
        ranges.emplace_back(offset, n - offset);  // to the domain's end
        for (uint64_t count : counts) {
          if (count > n) continue;
          if (offset + count <= n) ranges.emplace_back(offset, count);
          ranges.emplace_back(n - count, count);  // ends at 2^depth - 1
        }
      }
      for (const auto& [offset, count] : ranges) {
        ASSERT_EQ(EvalRange(*key, offset, count), Slice(full, offset, count))
            << "depth=" << unsigned{depth} << " offset=" << offset
            << " count=" << count;
      }
    }
  }
}

TEST(DpfTest, RangeEvaluatorAcrossChunkBoundaries) {
  // From depth 16 a range spans several chunks of 32768 points: ranges
  // that straddle chunk and leaf boundaries must match the full-domain
  // evaluation and the independent point walk.
  Rng rng(106);
  constexpr uint64_t kChunkPoints =
      DpfRangeEvaluator::kChunkLeaves * 8 * kDpfLeafBytes;
  for (uint8_t depth : {uint8_t{16}, uint8_t{18}, uint8_t{21}}) {
    const uint64_t n = uint64_t{1} << depth;
    auto keys = DpfGen(rng.Uniform(n), depth);
    ASSERT_TRUE(keys.ok());
    const std::vector<uint64_t> full = DpfEvalFull(keys->key1);
    std::vector<std::pair<uint64_t, uint64_t>> ranges = {
        {0, n},
        {kChunkPoints - 3, kChunkPoints + 10},
        {kChunkPoints, kChunkPoints},
        {kChunkPoints + 511, 2 * kChunkPoints - 700},
        {n - kChunkPoints - 1, kChunkPoints + 1},
    };
    for (int trial = 0; trial < 4; ++trial) {
      const uint64_t offset = rng.Uniform(n);
      ranges.emplace_back(offset, 1 + rng.Uniform(n - offset));
    }
    for (const auto& [offset, count] : ranges) {
      if (offset + count > n) continue;  // the fixed ranges need depth 17+
      const std::vector<uint64_t> got = EvalRange(keys->key1, offset, count);
      ASSERT_EQ(got, Slice(full, offset, count))
          << "depth=" << unsigned{depth} << " offset=" << offset
          << " count=" << count;
      for (int probe = 0; probe < 16; ++probe) {
        const uint64_t i = rng.Uniform(count);
        ASSERT_EQ(BitAt(got, i), DpfEvalPoint(keys->key1, offset + i))
            << "depth=" << unsigned{depth} << " x=" << offset + i;
      }
    }
  }
}

TEST(DpfTest, RangeEvaluatorEmptyRangeEmitsNothing) {
  auto keys = DpfGen(3, 10);
  ASSERT_TRUE(keys.ok());
  for (uint64_t offset : {uint64_t{0}, uint64_t{600}, uint64_t{1024}}) {
    DpfRangeEvaluator eval(keys->key0, offset, 0);
    DpfRangeEvaluator::Chunk chunk;
    EXPECT_FALSE(eval.Next(&chunk)) << "offset=" << offset;
  }
}

TEST(DpfTest, EngineAnswerMatchesScanOfEvalFull) {
  // The storage engine evaluates a key fused with its scan, over its own
  // slice [offset, offset + n) of the domain. Its one-block answer must
  // equal SelectXorScan gated by the matching bits of DpfEvalFull, for
  // block sizes on both sides of every vector width, arenas that are not
  // a whole number of leaves, and offsets inside a leaf.
  Rng rng(107);
  struct Case {
    uint8_t depth;
    uint64_t n;
    uint64_t offset;
  };
  const Case cases[] = {{13, 3000, 1234}, {16, uint64_t{1} << 16, 0},
                        {17, 40000, 70001}, {9, 1, 511}};
  for (size_t block_size : {size_t{1}, size_t{16}, size_t{64}, size_t{100},
                            size_t{4096}}) {
    for (const Case& c : cases) {
      if (block_size == 4096 && c.n > 4096) continue;  // keep arenas small
      StorageServer server(c.n, block_size);
      std::vector<Block> db(c.n);
      std::vector<uint8_t> arena;
      arena.reserve(c.n * block_size);
      for (Block& block : db) {
        block.resize(block_size);
        for (uint8_t& byte : block) {
          byte = static_cast<uint8_t>(rng.Uniform(256));
        }
        arena.insert(arena.end(), block.begin(), block.end());
      }
      ASSERT_TRUE(server.SetArray(std::move(db)).ok());
      auto keys = DpfGen(c.offset + rng.Uniform(c.n), c.depth);
      ASSERT_TRUE(keys.ok());
      for (const DpfKey* key : {&keys->key0, &keys->key1}) {
        const std::vector<uint64_t> bits = DpfEvalFull(*key);
        std::vector<uint8_t> expected(block_size, 0);
        kernels::SelectXorScan(expected.data(), arena.data(), c.n, block_size,
                               bits.data(), c.offset);
        auto reply = server.Exchange(
            StorageRequest::DpfEvalOf(key->Serialize(), c.offset));
        ASSERT_TRUE(reply.ok()) << reply.status();
        ASSERT_EQ(reply->blocks.size(), 1u);
        const BlockView got = reply->blocks[0];
        EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                               expected.end()))
            << "block_size=" << block_size << " depth=" << unsigned{c.depth}
            << " n=" << c.n << " offset=" << c.offset;
      }
    }
  }
}

std::vector<kernels::Variant> SupportedVariants() {
  std::vector<kernels::Variant> variants;
  for (kernels::Variant v : {kernels::Variant::kScalar, kernels::Variant::kSse2,
                             kernels::Variant::kAvx2}) {
    if (kernels::VariantSupported(v)) variants.push_back(v);
  }
  return variants;
}

TEST(DpfTest, ChaCha20Block8MatchesRfc8439InEveryLane) {
  // RFC 8439 Section 2.3.2, placed in every lane at once.
  ChaChaKey keys[kChaChaLanes];
  ChaChaNonce nonces[kChaChaLanes];
  uint32_t counters[kChaChaLanes];
  for (size_t l = 0; l < kChaChaLanes; ++l) {
    for (size_t i = 0; i < kChaChaKeySize; ++i) {
      keys[l][i] = static_cast<uint8_t>(i);
    }
    nonces[l] = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
    counters[l] = 1;
  }
  const uint8_t expected[kChaChaBlockSize] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  for (kernels::Variant v : SupportedVariants()) {
    uint8_t out[kChaChaLanes * kChaChaBlockSize];
    ChaCha20Block8Variant(v, keys, nonces, counters, out);
    for (size_t l = 0; l < kChaChaLanes; ++l) {
      EXPECT_EQ(0, std::memcmp(out + kChaChaBlockSize * l, expected,
                               kChaChaBlockSize))
          << "variant=" << kernels::VariantName(v) << " lane=" << l;
    }
  }
}

TEST(DpfTest, ChaCha20Block8MatchesBlockPerLane) {
  // Random, unrelated key, nonce and counter in every lane (counters near
  // 2^32 included): each lane must be exactly its own ChaCha20Block, under
  // every variant this CPU runs and through the dispatched entry point.
  Rng rng(108);
  for (int trial = 0; trial < 50; ++trial) {
    ChaChaKey keys[kChaChaLanes];
    ChaChaNonce nonces[kChaChaLanes];
    uint32_t counters[kChaChaLanes];
    uint8_t expected[kChaChaLanes * kChaChaBlockSize];
    for (size_t l = 0; l < kChaChaLanes; ++l) {
      for (uint8_t& b : keys[l]) b = static_cast<uint8_t>(rng.Uniform(256));
      for (uint8_t& b : nonces[l]) b = static_cast<uint8_t>(rng.Uniform(256));
      counters[l] =
          l == 0 ? 0xFFFFFFFFu
                 : static_cast<uint32_t>(rng.Uniform(uint64_t{1} << 32));
      ChaCha20Block(keys[l], nonces[l], counters[l],
                    expected + kChaChaBlockSize * l);
    }
    for (kernels::Variant v : SupportedVariants()) {
      uint8_t out[kChaChaLanes * kChaChaBlockSize];
      ChaCha20Block8Variant(v, keys, nonces, counters, out);
      EXPECT_EQ(0, std::memcmp(out, expected, sizeof(out)))
          << "variant=" << kernels::VariantName(v) << " trial=" << trial;
    }
    uint8_t out[kChaChaLanes * kChaChaBlockSize];
    ChaCha20Block8(keys, nonces, counters, out);
    EXPECT_EQ(0, std::memcmp(out, expected, sizeof(out))) << "dispatched";
  }
}

TEST(DpfTest, EachPartyEvaluationLooksBalanced) {
  // A single key's bit vector is pseudorandom (each party's share alone
  // carries no information about alpha): at depth 16 the popcount should
  // be near n/2, not degenerate. A 6-sigma band keeps this deterministic
  // in practice without being vacuous.
  auto keys = DpfGen(12345, 16);
  ASSERT_TRUE(keys.ok());
  for (const DpfKey* key : {&keys->key0, &keys->key1}) {
    const uint64_t ones = PopCount(DpfEvalFull(*key));
    EXPECT_GT(ones, 32768u - 6 * 128) << "party " << unsigned{key->party};
    EXPECT_LT(ones, 32768u + 6 * 128) << "party " << unsigned{key->party};
  }
}

TEST(DpfTest, SerializationRoundTrips) {
  Rng rng(103);
  for (uint8_t depth : {uint8_t{1}, uint8_t{7}, uint8_t{9}, uint8_t{10},
                        uint8_t{20}, kMaxDpfDepth}) {
    auto keys = DpfGen(rng.Uniform(uint64_t{1} << depth), depth);
    ASSERT_TRUE(keys.ok());
    for (const DpfKey* key : {&keys->key0, &keys->key1}) {
      const std::vector<uint8_t> bytes = key->Serialize();
      EXPECT_EQ(bytes.size(), DpfKeyBytes(depth));
      auto parsed = DpfKey::Parse(bytes.data(), bytes.size());
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      EXPECT_EQ(parsed->party, key->party);
      EXPECT_EQ(parsed->depth, key->depth);
      EXPECT_EQ(parsed->root_seed, key->root_seed);
      EXPECT_EQ(parsed->root_t, key->root_t);
      ASSERT_EQ(parsed->cw.size(), key->cw.size());
      for (size_t level = 0; level < key->cw.size(); ++level) {
        EXPECT_EQ(parsed->cw[level].seed, key->cw[level].seed);
        EXPECT_EQ(parsed->cw[level].t_left, key->cw[level].t_left);
        EXPECT_EQ(parsed->cw[level].t_right, key->cw[level].t_right);
      }
      EXPECT_EQ(parsed->cw_out, key->cw_out);
      // Re-serialization is byte-identical (canonical encoding).
      EXPECT_EQ(parsed->Serialize(), bytes);
    }
  }
}

TEST(DpfTest, ParseRejectsTruncatedAndCorruptKeys) {
  constexpr uint8_t kDepth = 12;  // three tree levels
  auto keys = DpfGen(1234, kDepth);
  ASSERT_TRUE(keys.ok());
  const std::vector<uint8_t> good = keys->key0.Serialize();
  ASSERT_EQ(good.size(), DpfKeyBytes(kDepth));
  ASSERT_TRUE(DpfKey::Parse(good.data(), good.size()).ok());

  // Truncation at every prefix length must fail cleanly — including every
  // cut inside the trailing 64-byte output-CW region.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(DpfKey::Parse(good.data(), len).ok()) << "len=" << len;
  }
  // Trailing garbage.
  std::vector<uint8_t> longer = good;
  longer.push_back(0);
  EXPECT_FALSE(DpfKey::Parse(longer.data(), longer.size()).ok());
  // Null input.
  EXPECT_FALSE(DpfKey::Parse(nullptr, 0).ok());

  auto corrupt = [&](size_t at, uint8_t value) {
    std::vector<uint8_t> bad = good;
    bad[at] = value;
    return DpfKey::Parse(bad.data(), bad.size()).status();
  };
  // Bad magic, in the tag and in the version byte.
  EXPECT_FALSE(corrupt(0, 'X').ok());
  EXPECT_FALSE(corrupt(3, '3').ok());
  // Party byte outside {0, 1}.
  EXPECT_FALSE(corrupt(4, 2).ok());
  // Depth 0, and depths whose level count disagrees with the length: one
  // level fewer or more, and any single-leaf depth (no levels at all).
  EXPECT_FALSE(corrupt(5, 0).ok());
  EXPECT_FALSE(corrupt(5, kDepth - 1).ok());
  EXPECT_FALSE(corrupt(5, kDepth + 1).ok());
  EXPECT_FALSE(corrupt(5, kDpfLeafLevels).ok());
  // Depth beyond the cap: a hostile key must not size a 2^depth eval.
  EXPECT_FALSE(corrupt(5, kMaxDpfDepth + 1).ok());
  // Reserved bytes must be zero.
  EXPECT_FALSE(corrupt(6, 1).ok());
  EXPECT_FALSE(corrupt(7, 1).ok());
  // Root control byte and every per-level control-bit byte must be
  // bit-valued.
  EXPECT_FALSE(corrupt(24, 2).ok());
  for (uint8_t level = 0; level < DpfTreeLevels(kDepth); ++level) {
    const size_t bits_at = 25 + 17 * size_t{level} + kDpfSeedSize;
    EXPECT_FALSE(corrupt(bits_at, 4).ok()) << "level=" << unsigned{level};
    EXPECT_TRUE(corrupt(bits_at, 3).ok()) << "level=" << unsigned{level};
  }
  // Every output-CW byte value is a valid key (it is pseudorandom data).
  EXPECT_TRUE(corrupt(good.size() - kDpfLeafBytes, 0xA5).ok());
  EXPECT_TRUE(corrupt(good.size() - 1, 0xFF).ok());

  // A single-leaf key's length fits every depth in [1, 9], and no other.
  auto leaf_keys = DpfGen(3, 4);
  ASSERT_TRUE(leaf_keys.ok());
  std::vector<uint8_t> leaf = leaf_keys->key1.Serialize();
  ASSERT_EQ(leaf.size(), DpfKeyBytes(4));
  leaf[5] = kDpfLeafLevels;
  EXPECT_TRUE(DpfKey::Parse(leaf.data(), leaf.size()).ok());
  leaf[5] = kDpfLeafLevels + 1;
  EXPECT_FALSE(DpfKey::Parse(leaf.data(), leaf.size()).ok());
}

TEST(DpfTest, ParseRejectsWellFormedDpf1Keys) {
  // The retired 1-bit-leaf layout: "DPF1", party, depth, 2 reserved,
  // root seed, root bit, then one 17-byte correction word per level and
  // no output CW. Its fields are all valid, yet it is refused by type.
  for (uint8_t depth : {uint8_t{8}, uint8_t{16}}) {
    std::vector<uint8_t> dpf1 = {'D', 'P', 'F', '1', 0, depth, 0, 0};
    for (size_t i = 0; i < kDpfSeedSize; ++i) {
      dpf1.push_back(static_cast<uint8_t>(i));
    }
    dpf1.push_back(0);
    for (uint8_t level = 0; level < depth; ++level) {
      for (size_t i = 0; i < kDpfSeedSize; ++i) dpf1.push_back(level);
      dpf1.push_back(level & 3);
    }
    ASSERT_EQ(dpf1.size(), 25 + size_t{17} * depth);
    const Status status = DpfKey::Parse(dpf1.data(), dpf1.size()).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  }
}

TEST(DpfTest, ParseFuzzNeverCrashes) {
  // Seeded fuzz: random byte strings (half behind a valid magic so they
  // reach the field checks), and single-byte mutations of valid keys.
  // Survival under ASan/UBSan is the main assertion; any input that does
  // parse must be canonical and evaluable.
  Rng rng(20261017);
  int parsed_ok = 0;
  for (int round = 0; round < 400; ++round) {
    std::vector<uint8_t> bytes;
    if (round % 2 == 0) {
      bytes.resize(rng.Uniform(2 * DpfKeyBytes(kMaxDpfDepth)));
      for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.Uniform(256));
      if (round % 4 == 0 && bytes.size() >= 4) {
        std::memcpy(bytes.data(), "DPF2", 4);
      }
    } else {
      const uint8_t depth = static_cast<uint8_t>(1 + rng.Uniform(14));
      auto keys = DpfGen(rng.Uniform(uint64_t{1} << depth), depth);
      ASSERT_TRUE(keys.ok());
      bytes = keys->key0.Serialize();
      bytes[rng.Uniform(bytes.size())] = static_cast<uint8_t>(rng.Uniform(256));
    }
    auto parsed = DpfKey::Parse(bytes.data(), bytes.size());
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++parsed_ok;
    EXPECT_EQ(parsed->Serialize(), bytes);
    if (parsed->depth <= 14) {
      EXPECT_EQ(DpfEvalFull(*parsed).size(),
                ((uint64_t{1} << parsed->depth) + 63) / 64);
    }
  }
  // Mutated seeds and output-CW bytes still parse: the fuzz reached Eval.
  EXPECT_GT(parsed_ok, 0);
}

TEST(DpfTest, GenRejectsBadDomains) {
  EXPECT_FALSE(DpfGen(0, 0).ok());
  EXPECT_FALSE(DpfGen(0, kMaxDpfDepth + 1).ok());
  // Alpha outside the domain.
  EXPECT_FALSE(DpfGen(2, 1).ok());
  EXPECT_FALSE(DpfGen(uint64_t{1} << 20, 20).ok());
  // Boundary alphas are fine.
  EXPECT_TRUE(DpfGen(0, 1).ok());
  EXPECT_TRUE(DpfGen(1, 1).ok());
  EXPECT_TRUE(DpfGen((uint64_t{1} << 20) - 1, 20).ok());
}

TEST(DpfTest, EvalFullOfMalformedKeyIsEmpty) {
  // DpfEvalFull is documented to return {} rather than crash on a key
  // whose invariants are broken (depth 0 or a correction-word count that
  // is not the tree's level count) — the defensive floor beneath the
  // Parse layer.
  DpfKey bad;
  bad.depth = 0;
  EXPECT_TRUE(DpfEvalFull(bad).empty());
  bad.depth = 4;
  bad.cw.resize(2);  // a single-leaf depth has no levels
  EXPECT_TRUE(DpfEvalFull(bad).empty());
  bad.depth = 12;
  bad.cw.resize(12);  // one word per domain bit: 9 too many
  EXPECT_TRUE(DpfEvalFull(bad).empty());
  EXPECT_EQ(DpfEvalPoint(bad, 0), 0);
}

}  // namespace
}  // namespace crypto
}  // namespace dpstore
