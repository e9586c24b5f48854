#ifndef DPSTORE_CRYPTO_CHACHA20_H_
#define DPSTORE_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>
#include <cstddef>

#include "storage/kernels.h"

namespace dpstore {
namespace crypto {

inline constexpr size_t kChaChaKeySize = 32;
inline constexpr size_t kChaChaNonceSize = 12;
inline constexpr size_t kChaChaBlockSize = 64;

using ChaChaKey = std::array<uint8_t, kChaChaKeySize>;
using ChaChaNonce = std::array<uint8_t, kChaChaNonceSize>;

/// Computes one 64-byte ChaCha20 keystream block (RFC 8439, 20 rounds) for
/// (key, nonce, counter) into `out`.
void ChaCha20Block(const ChaChaKey& key, const ChaChaNonce& nonce,
                   uint32_t counter, uint8_t out[kChaChaBlockSize]);

/// Blocks computed by one ChaCha20Block8 call.
inline constexpr size_t kChaChaLanes = 8;

/// Computes kChaChaLanes independent keystream blocks in one call: lane l
/// is ChaCha20Block(keys[l], nonces[l], counters[l]), written to
/// out[64 * l, 64 * l + 64). Every lane has its own key, nonce and counter,
/// so the lanes may be unrelated streams (the DPF's per-node seeds) or
/// consecutive blocks of one stream. The lanes run in 32-bit SIMD lanes
/// under the storage/kernels.h dispatch: AVX2 or SSE2 when the CPU has it,
/// and one ChaCha20Block per lane when DPSTORE_KERNEL=scalar.
void ChaCha20Block8(const ChaChaKey keys[kChaChaLanes],
                    const ChaChaNonce nonces[kChaChaLanes],
                    const uint32_t counters[kChaChaLanes],
                    uint8_t out[kChaChaLanes * kChaChaBlockSize]);

/// ChaCha20Block8 forcing kernel variant `v` (bit-identity tests); calling
/// a variant this CPU does not support is undefined, as in kernels.h.
void ChaCha20Block8Variant(kernels::Variant v,
                           const ChaChaKey keys[kChaChaLanes],
                           const ChaChaNonce nonces[kChaChaLanes],
                           const uint32_t counters[kChaChaLanes],
                           uint8_t out[kChaChaLanes * kChaChaBlockSize]);

/// XORs `len` bytes of keystream (starting at block `counter`) into
/// `data` in place. Symmetric: applying twice with the same parameters
/// restores the input. This is the whole cipher - no padding, no state.
void ChaCha20Xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                 uint32_t counter, uint8_t* data, size_t len);

}  // namespace crypto
}  // namespace dpstore

#endif  // DPSTORE_CRYPTO_CHACHA20_H_
