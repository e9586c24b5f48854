#include "crypto/chacha20.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define DPSTORE_CHACHA_X86 1
#else
#define DPSTORE_CHACHA_X86 0
#endif

namespace dpstore {
namespace crypto {

namespace {

inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

inline uint32_t Load32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline void Store32Le(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b; d ^= a; d = Rotl32(d, 16);
  c += d; b ^= c; b = Rotl32(b, 12);
  a += b; d ^= a; d = Rotl32(d, 8);
  c += d; b ^= c; b = Rotl32(b, 7);
}

}  // namespace

/// Builds the RFC 8439 Section 2.3 initial state (constants, key, counter,
/// nonce). Hoisted out of the per-block loop so a multi-block keystream
/// loads the key and nonce words exactly once.
inline void InitState(const ChaChaKey& key, const ChaChaNonce& nonce,
                      uint32_t counter, uint32_t state[16]) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = Load32Le(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = Load32Le(nonce.data() + 4 * i);
}

/// 20 rounds over a copy of `state`, producing the 16 keystream words.
inline void KeystreamWords(const uint32_t state[16], uint32_t w[16]) {
  std::memcpy(w, state, 16 * sizeof(uint32_t));
  for (int round = 0; round < 10; ++round) {
    // Column rounds.
    QuarterRound(w[0], w[4], w[8], w[12]);
    QuarterRound(w[1], w[5], w[9], w[13]);
    QuarterRound(w[2], w[6], w[10], w[14]);
    QuarterRound(w[3], w[7], w[11], w[15]);
    // Diagonal rounds.
    QuarterRound(w[0], w[5], w[10], w[15]);
    QuarterRound(w[1], w[6], w[11], w[12]);
    QuarterRound(w[2], w[7], w[8], w[13]);
    QuarterRound(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) w[i] += state[i];
}

void ChaCha20Block(const ChaChaKey& key, const ChaChaNonce& nonce,
                   uint32_t counter, uint8_t out[kChaChaBlockSize]) {
  uint32_t state[16];
  InitState(key, nonce, counter, state);
  uint32_t w[16];
  KeystreamWords(state, w);
  for (int i = 0; i < 16; ++i) Store32Le(out + 4 * i, w[i]);
}

namespace {

// --- 8 lanes -----------------------------------------------------------------

/// One 32-bit word of every lane. The GCC vector extension lowers to one
/// AVX2 register or two SSE2 registers, whichever target the function it
/// is inlined into was compiled for, so one body serves both variants.
/// The vector paths assume a little-endian host (they are x86-only).
typedef uint32_t U32x8 __attribute__((vector_size(32)));
typedef uint8_t U8x32 __attribute__((vector_size(32)));

/// Rotates every lane left by k. With kByteShuffle, the byte-aligned
/// rotations (16 and 8) are one byte shuffle (AVX2 vpshufb) instead of two
/// shifts and an OR; SSE2 has no byte shuffle, so it keeps the shifts.
template <int k, bool kByteShuffle>
[[gnu::always_inline]] inline void Rotl8(U32x8& x) {
  if constexpr (kByteShuffle && k == 16) {
    x = (U32x8)__builtin_shuffle(
        (U8x32)x, (U8x32){2,  3,  0,  1,  6,  7,  4,  5,  10, 11, 8,
                          9,  14, 15, 12, 13, 18, 19, 16, 17, 22, 23,
                          20, 21, 26, 27, 24, 25, 30, 31, 28, 29});
  } else if constexpr (kByteShuffle && k == 8) {
    x = (U32x8)__builtin_shuffle(
        (U8x32)x, (U8x32){3,  0,  1,  2,  7,  4,  5,  6,  11, 8,  9,
                          10, 15, 12, 13, 14, 19, 16, 17, 18, 23, 20,
                          21, 22, 27, 24, 25, 26, 31, 28, 29, 30});
  } else {
    x = (x << k) | (x >> (32 - k));
  }
}

template <bool kByteShuffle>
[[gnu::always_inline]] inline void QuarterRound8(U32x8& a, U32x8& b,
                                                 U32x8& c, U32x8& d) {
  a += b; d ^= a; Rotl8<16, kByteShuffle>(d);
  c += d; b ^= c; Rotl8<12, kByteShuffle>(b);
  a += b; d ^= a; Rotl8<8, kByteShuffle>(d);
  c += d; b ^= c; Rotl8<7, kByteShuffle>(b);
}

/// Transposes the 8x8 matrix of 32-bit words whose rows are m[0..7]
/// (unpack 32, unpack 64, then swap 128-bit halves).
[[gnu::always_inline]] inline void Transpose8x8(U32x8 m[8]) {
  U32x8 t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = __builtin_shuffle(m[i], m[i + 1], (U32x8){0, 8, 1, 9, 4, 12, 5, 13});
    t[i + 1] =
        __builtin_shuffle(m[i], m[i + 1], (U32x8){2, 10, 3, 11, 6, 14, 7, 15});
  }
  U32x8 u[8];
  for (int i = 0; i < 8; i += 4) {
    for (int j = 0; j < 2; ++j) {
      u[i + 2 * j] = __builtin_shuffle(t[i + j], t[i + j + 2],
                                       (U32x8){0, 1, 8, 9, 4, 5, 12, 13});
      u[i + 2 * j + 1] = __builtin_shuffle(t[i + j], t[i + j + 2],
                                           (U32x8){2, 3, 10, 11, 6, 7, 14, 15});
    }
  }
  for (int i = 0; i < 4; ++i) {
    m[i] = __builtin_shuffle(u[i], u[i + 4], (U32x8){0, 1, 2, 3, 8, 9, 10, 11});
    m[i + 4] =
        __builtin_shuffle(u[i], u[i + 4], (U32x8){4, 5, 6, 7, 12, 13, 14, 15});
  }
}

/// ChaCha20Block8 on vector registers: x[i] holds state word i of all
/// eight lanes. The keys are loaded as rows and transposed into words,
/// the 20 rounds run once over the 16 vectors, and the result is
/// transposed back into one 64-byte block per lane.
template <bool kByteShuffle>
[[gnu::always_inline]] inline void Block8Vector(
    const ChaChaKey keys[kChaChaLanes], const ChaChaNonce nonces[kChaChaLanes],
    const uint32_t counters[kChaChaLanes],
    uint8_t out[kChaChaLanes * kChaChaBlockSize]) {
  U32x8 x[16];
  for (size_t l = 0; l < kChaChaLanes; ++l) {
    std::memcpy(&x[4 + l], keys[l].data(), kChaChaKeySize);
  }
  Transpose8x8(x + 4);
  x[0] = U32x8{} + 0x61707865u;
  x[1] = U32x8{} + 0x3320646eu;
  x[2] = U32x8{} + 0x79622d32u;
  x[3] = U32x8{} + 0x6b206574u;
  std::memcpy(&x[12], counters, sizeof(U32x8));
  for (int i = 0; i < 3; ++i) {
    uint32_t words[kChaChaLanes];
    for (size_t l = 0; l < kChaChaLanes; ++l) {
      std::memcpy(&words[l], nonces[l].data() + 4 * i, 4);
    }
    std::memcpy(&x[13 + i], words, sizeof(U32x8));
  }
  U32x8 initial[16];
  for (int i = 0; i < 16; ++i) initial[i] = x[i];
  for (int round = 0; round < 10; ++round) {
    QuarterRound8<kByteShuffle>(x[0], x[4], x[8], x[12]);
    QuarterRound8<kByteShuffle>(x[1], x[5], x[9], x[13]);
    QuarterRound8<kByteShuffle>(x[2], x[6], x[10], x[14]);
    QuarterRound8<kByteShuffle>(x[3], x[7], x[11], x[15]);
    QuarterRound8<kByteShuffle>(x[0], x[5], x[10], x[15]);
    QuarterRound8<kByteShuffle>(x[1], x[6], x[11], x[12]);
    QuarterRound8<kByteShuffle>(x[2], x[7], x[8], x[13]);
    QuarterRound8<kByteShuffle>(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += initial[i];
  Transpose8x8(x);
  Transpose8x8(x + 8);
  for (size_t l = 0; l < kChaChaLanes; ++l) {
    std::memcpy(out + kChaChaBlockSize * l, &x[l], sizeof(U32x8));
    std::memcpy(out + kChaChaBlockSize * l + 32, &x[8 + l], sizeof(U32x8));
  }
}

#if DPSTORE_CHACHA_X86
__attribute__((target("avx2"))) void Block8Avx2(
    const ChaChaKey keys[kChaChaLanes], const ChaChaNonce nonces[kChaChaLanes],
    const uint32_t counters[kChaChaLanes],
    uint8_t out[kChaChaLanes * kChaChaBlockSize]) {
  Block8Vector<true>(keys, nonces, counters, out);
}

__attribute__((target("sse2"))) void Block8Sse2(
    const ChaChaKey keys[kChaChaLanes], const ChaChaNonce nonces[kChaChaLanes],
    const uint32_t counters[kChaChaLanes],
    uint8_t out[kChaChaLanes * kChaChaBlockSize]) {
  Block8Vector<false>(keys, nonces, counters, out);
}
#endif  // DPSTORE_CHACHA_X86

}  // namespace

void ChaCha20Block8Variant(kernels::Variant v,
                           const ChaChaKey keys[kChaChaLanes],
                           const ChaChaNonce nonces[kChaChaLanes],
                           const uint32_t counters[kChaChaLanes],
                           uint8_t out[kChaChaLanes * kChaChaBlockSize]) {
#if DPSTORE_CHACHA_X86
  if (v == kernels::Variant::kAvx2) {
    return Block8Avx2(keys, nonces, counters, out);
  }
  if (v == kernels::Variant::kSse2) {
    return Block8Sse2(keys, nonces, counters, out);
  }
#endif
  for (size_t l = 0; l < kChaChaLanes; ++l) {
    ChaCha20Block(keys[l], nonces[l], counters[l],
                  out + kChaChaBlockSize * l);
  }
}

void ChaCha20Block8(const ChaChaKey keys[kChaChaLanes],
                    const ChaChaNonce nonces[kChaChaLanes],
                    const uint32_t counters[kChaChaLanes],
                    uint8_t out[kChaChaLanes * kChaChaBlockSize]) {
  ChaCha20Block8Variant(kernels::ActiveVariant(), keys, nonces, counters, out);
}

void ChaCha20Xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                 uint32_t counter, uint8_t* data, size_t len) {
  // Multi-block keystream: the state is initialized once and only the
  // counter word advances per 64-byte block. Full blocks XOR 8 bytes at a
  // time through memcpy (aliasing- and alignment-safe; the compiler lowers
  // it to plain word ops); the final partial block falls back to bytes.
  uint32_t state[16];
  InitState(key, nonce, counter, state);
  uint32_t w[16];
  uint8_t block[kChaChaBlockSize];
  size_t offset = 0;
  while (len - offset >= kChaChaBlockSize) {
    KeystreamWords(state, w);
    ++state[12];
    for (int i = 0; i < 16; ++i) Store32Le(block + 4 * i, w[i]);
    for (size_t i = 0; i < kChaChaBlockSize; i += 8) {
      uint64_t word, ks;
      std::memcpy(&word, data + offset + i, 8);
      std::memcpy(&ks, block + i, 8);
      word ^= ks;
      std::memcpy(data + offset + i, &word, 8);
    }
    offset += kChaChaBlockSize;
  }
  if (offset < len) {
    KeystreamWords(state, w);
    for (int i = 0; i < 16; ++i) Store32Le(block + 4 * i, w[i]);
    const size_t chunk = len - offset;
    for (size_t i = 0; i < chunk; ++i) data[offset + i] ^= block[i];
  }
}

}  // namespace crypto
}  // namespace dpstore
