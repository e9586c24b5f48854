#ifndef DPSTORE_CRYPTO_DPF_H_
#define DPSTORE_CRYPTO_DPF_H_

/// \file
/// Two-party distributed point function (DPF) over the in-tree ChaCha20.
///
/// A DPF for the point function f_alpha (f_alpha(alpha) = 1, else 0) on
/// domain {0, ..., 2^depth - 1} is a pair of keys such that each key alone
/// is computationally independent of alpha, yet the XOR of the two
/// parties' evaluations equals f_alpha at every point. This is the
/// Boyle-Gilboa-Ishai GGM-tree construction (CCS'16) with early
/// termination: the tree stops nu = min(depth, 9) levels above the
/// domain, and each of its 2^(depth - nu) leaves emits a whole 512-bit
/// word of output bits. A key is a root seed, one 17-byte correction word
/// per tree level and one 64-byte output correction word:
/// DpfKeyBytes(d) = 25 + 17 * (d - min(d, 9)) + 64 serialized bytes
/// (208 B at n = 2^16, 276 B at n = 2^20) versus the O(n)-bit selection
/// vector xor_pir ships per query.
///
/// Both PRGs are one ChaCha20 block keyed by the seed (zero-padded to the
/// 32-byte cipher key, fixed all-zero nonce); the block counter separates
/// them, and every seed meets exactly one of the two:
///   - Expand (counter 0), the length-doubling PRG of the inner nodes:
///     bytes 0..15 and 16..31 are the left/right child seeds, bytes 32
///     and 33 carry the child control bits;
///   - Convert (counter 1), the output PRG of the leaves: all 64 bytes
///     are the leaf's 512 output bits.
/// No OpenSSL, no AES-NI dependency — the same primitive the rest of
/// src/crypto builds on.
///
/// A leaf with seed s and control bit t outputs Convert(s) XOR t * CW_out.
/// The parties' leaves agree (same seed, same bit) off the special path
/// and differ in their control bit on it, where CW_out = Convert(s0*) XOR
/// Convert(s1*) XOR e_(alpha mod 512) turns the XOR of the two leaf words
/// into the unit vector at alpha. Bit x of the domain is bit x mod 512 of
/// leaf x >> 9 (byte (x mod 512) / 8, bit x mod 8 within the 64 bytes), so
/// one leaf is exactly 8 consecutive little-endian words of the packed
/// vector that storage/kernels.h SelectXorScan gates its XOR scan with.
///
/// Evaluation is one range evaluator, DpfRangeEvaluator: it walks only the
/// subtrees that cover [offset, offset + count) and emits their leaf words
/// in domain order, at most 64 leaves (32 768 points) per chunk, into a
/// buffer inside the evaluator. Working memory is a few KiB whatever the
/// depth, nothing is heap-allocated, and a range of n points costs
/// O(n / 512 + depth) ChaCha20 blocks: a storage server feeds each chunk
/// straight into SelectXorScan, and a cluster leg expands only its own
/// slice of the domain. Inside a chunk the tree is expanded breadth-first
/// and both PRGs run ChaCha20Block8, 8 nodes per call. DpfEvalFull is the
/// evaluator over the whole domain copied into a vector; it is the test
/// oracle.
///
/// Parsing is defensive by contract: serialized keys may arrive over the
/// wire from an untrusted peer, so truncated, oversized, or corrupt keys
/// decode to an error Status, never a crash or an unbounded allocation
/// (depth is capped at kMaxDpfDepth, bounding EvalFull's output). Keys
/// live for one query and are never persisted, so there is one key format,
/// "DPF2"; the older 1-bit-leaf "DPF1" format is rejected.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/statusor.h"

namespace dpstore {
namespace crypto {

/// Seed width lambda in bytes (128-bit security).
inline constexpr size_t kDpfSeedSize = 16;

/// Output bytes per tree leaf (one ChaCha20 block = 512 domain points).
inline constexpr size_t kDpfLeafBytes = 64;

/// Levels cut off the bottom of the tree by a 512-bit leaf (2^9 = 512).
inline constexpr uint8_t kDpfLeafLevels = 9;

/// Upper bound on tree depth accepted anywhere (Gen and Parse), so a
/// hostile key cannot make EvalFull allocate more than 2^26 bits = 8 MiB.
inline constexpr uint8_t kMaxDpfDepth = 26;

/// GGM tree levels (= correction words) of a key for a 2^depth domain.
inline constexpr uint8_t DpfTreeLevels(uint8_t depth) {
  return depth > kDpfLeafLevels ? depth - kDpfLeafLevels : 0;
}

/// Serialized key size for a given depth (see DpfKey::Serialize layout).
inline constexpr size_t DpfKeyBytes(uint8_t depth) {
  return 25 + size_t{17} * DpfTreeLevels(depth) + kDpfLeafBytes;
}

/// One party's DPF key: the GGM root, one correction word per tree level
/// and the output correction word applied at the leaves.
struct DpfKey {
  struct CorrectionWord {
    std::array<uint8_t, kDpfSeedSize> seed{};
    uint8_t t_left = 0;
    uint8_t t_right = 0;
  };

  /// Which party this key belongs to (0 or 1); affects nothing in Eval
  /// (the construction is symmetric) but is carried for bookkeeping.
  uint8_t party = 0;
  /// log2(domain size), in [1, kMaxDpfDepth].
  uint8_t depth = 0;
  std::array<uint8_t, kDpfSeedSize> root_seed{};
  /// Root control bit (party 0 gets 0, party 1 gets 1).
  uint8_t root_t = 0;
  std::vector<CorrectionWord> cw;  // cw.size() == DpfTreeLevels(depth)
  /// Output correction word, XORed into a leaf word whose control bit is 1.
  std::array<uint8_t, kDpfLeafBytes> cw_out{};

  /// Byte layout: "DPF2" magic, party u8, depth u8, 2 reserved zero bytes,
  /// root seed (16), root control bit u8, then per tree level the
  /// correction seed (16) and a packed bit byte (bit 0 = t_left, bit 1 =
  /// t_right), then cw_out (64). All fields are byte-granular, so the
  /// encoding is endian-free.
  std::vector<uint8_t> Serialize() const;

  /// Inverse of Serialize. Rejects (InvalidArgument) any input that is
  /// truncated, has trailing bytes, a bad magic (including "DPF1"),
  /// party or reserved field, a depth outside [1, kMaxDpfDepth], or
  /// non-bit values where bits belong.
  static StatusOr<DpfKey> Parse(const uint8_t* data, size_t len);
};

struct DpfKeyPair {
  DpfKey key0;
  DpfKey key1;
};

/// Generates a key pair for the point function at `alpha` on the domain
/// {0, ..., 2^depth - 1}. Seeds are drawn from the system RNG.
/// InvalidArgument when depth is outside [1, kMaxDpfDepth] or alpha is
/// outside the domain.
StatusOr<DpfKeyPair> DpfGen(uint64_t alpha, uint8_t depth);

/// Streams one key's output bits over the domain range [offset,
/// offset + count), a chunk of whole leaves at a time:
///
///   crypto::DpfRangeEvaluator eval(key, offset, count);
///   for (crypto::DpfRangeEvaluator::Chunk c; eval.Next(&c);) {
///     // bits c.bit_offset .. c.bit_offset + c.count - 1 of c.bits are
///     // this party's shares of the next c.count points of the range
///   }
///
/// The key must satisfy the DpfKey invariants (as DpfKey::Parse and
/// DpfGen guarantee) and offset + count must not exceed 2^depth; both are
/// checked. The evaluator keeps a reference to `key`, and a chunk's bits
/// stay valid until the next call to Next.
class DpfRangeEvaluator {
 public:
  /// Tree levels expanded breadth-first inside one chunk (2^6 leaves).
  static constexpr uint8_t kChunkLevels = 6;
  static constexpr size_t kChunkLeaves = size_t{1} << kChunkLevels;
  static constexpr size_t kChunkWords = kChunkLeaves * kDpfLeafBytes / 8;

  /// The next run of the range: `count` points whose bits start at bit
  /// `bit_offset` of `bits` (kernels.h packing, < 512 since chunks start
  /// on a leaf boundary).
  struct Chunk {
    const uint64_t* bits = nullptr;
    uint64_t bit_offset = 0;
    uint64_t count = 0;
  };

  /// A GGM tree node: seed and control bit (shared with dpf.cc's PRGs).
  struct Node {
    std::array<uint8_t, kDpfSeedSize> s{};
    uint8_t t = 0;
  };

  DpfRangeEvaluator(const DpfKey& key, uint64_t offset, uint64_t count);

  DpfRangeEvaluator(const DpfRangeEvaluator&) = delete;
  DpfRangeEvaluator& operator=(const DpfRangeEvaluator&) = delete;

  /// Evaluates the next chunk into `chunk`; false once the range is done.
  bool Next(Chunk* chunk);

 private:
  /// Points the path at the root of chunk `c`, re-expanding only the
  /// levels below the deepest ancestor it shares with the current chunk.
  void SeekChunk(uint64_t c);

  const DpfKey& key_;
  uint64_t next_point_;  ///< first point of the range not yet emitted
  uint64_t end_point_;   ///< offset + count
  uint8_t path_levels_;  ///< tree levels above a chunk root
  uint8_t chunk_levels_; ///< tree levels inside a chunk
  uint64_t chunk_ = 0;   ///< chunk the path leads to
  bool path_valid_ = false;
  /// path_[i] is the level-i ancestor of the current chunk root (path_[0]
  /// the root); children_[i] are both children of path_[i], so stepping to
  /// the next chunk reuses the sibling instead of expanding it again.
  std::array<Node, kMaxDpfDepth + 1> path_{};
  std::array<std::array<Node, 2>, kMaxDpfDepth> children_{};
  /// Breadth-first level buffers inside a chunk.
  std::array<Node, kChunkLeaves> level_{};
  std::array<Node, kChunkLeaves> next_level_{};
  std::array<uint64_t, kChunkWords> words_{};
};

/// Evaluates `key` over the WHOLE domain, returning the packed output
/// bits: bit x of the result (word x >> 6, bit x & 63, little-endian — the
/// kernels.h convention) is this party's share of f_alpha(x). The result
/// has (2^depth + 63) / 64 words; bits at or above 2^depth (depth < 6)
/// are zero. A DpfRangeEvaluator over [0, 2^depth) copied into one
/// vector: the test oracle for the range evaluator and its callers.
/// Returns {} for a key that breaks the DpfKey invariants.
std::vector<uint64_t> DpfEvalFull(const DpfKey& key);

/// Evaluates `key` at the single point `x` (log-depth walk plus one leaf
/// conversion; test oracle and spot checks). Requires x < 2^depth.
uint8_t DpfEvalPoint(const DpfKey& key, uint64_t x);

}  // namespace crypto
}  // namespace dpstore

#endif  // DPSTORE_CRYPTO_DPF_H_
