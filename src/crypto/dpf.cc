#include "crypto/dpf.h"

#include <algorithm>
#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/prg.h"
#include "util/check.h"

namespace dpstore {
namespace crypto {
namespace {

using Seed = std::array<uint8_t, kDpfSeedSize>;
using LeafWord = std::array<uint8_t, kDpfLeafBytes>;

using Node = DpfRangeEvaluator::Node;

/// Both children of one expanded node: [0] left, [1] right.
using Children = std::array<Node, 2>;

/// Leaf bits per leaf word (2^kDpfLeafLevels).
constexpr uint64_t kLeafPoints = 8 * kDpfLeafBytes;

/// One ChaCha20 block keyed by `seed` (zero-padded to the 32-byte cipher
/// key) under the all-zero nonce; the seed is fresh per node.
void SeedBlock(const Seed& seed, uint32_t counter,
               uint8_t block[kChaChaBlockSize]) {
  ChaChaKey key{};
  std::memcpy(key.data(), seed.data(), kDpfSeedSize);
  ChaCha20Block(key, ChaChaNonce{}, counter, block);
}

/// SeedBlock(nodes[l].s, counter) into out + 64 * l for l < k <= 8: one
/// ChaCha20Block8 call, or single blocks when k <= 2, where the 8-lane
/// call costs more than the blocks it would save.
void SeedBlocks8(const Node* nodes, size_t k, uint32_t counter,
                 uint8_t out[kChaChaLanes * kChaChaBlockSize]) {
  if (k <= 2) {
    for (size_t l = 0; l < k; ++l) {
      SeedBlock(nodes[l].s, counter, out + kChaChaBlockSize * l);
    }
    return;
  }
  ChaChaKey keys[kChaChaLanes] = {};
  ChaChaNonce nonces[kChaChaLanes] = {};
  uint32_t counters[kChaChaLanes];
  for (size_t l = 0; l < kChaChaLanes; ++l) counters[l] = counter;
  for (size_t l = 0; l < k; ++l) {
    std::memcpy(keys[l].data(), nodes[l].s.data(), kDpfSeedSize);
  }
  ChaCha20Block8(keys, nonces, counters, out);
}

/// Parses an Expand block: bytes 0..15 and 16..31 are the child seeds,
/// bytes 32 and 33 the child control bits.
Children ChildrenOf(const uint8_t block[kChaChaBlockSize]) {
  Children c;
  std::memcpy(c[0].s.data(), block, kDpfSeedSize);
  std::memcpy(c[1].s.data(), block + kDpfSeedSize, kDpfSeedSize);
  c[0].t = block[2 * kDpfSeedSize] & 1;
  c[1].t = block[2 * kDpfSeedSize + 1] & 1;
  return c;
}

/// The length-doubling PRG of inner nodes (counter 0).
Children Expand(const Seed& seed) {
  uint8_t block[kChaChaBlockSize];
  SeedBlock(seed, /*counter=*/0, block);
  return ChildrenOf(block);
}

/// The output PRG of leaves (counter 1): 512 leaf bits.
LeafWord Convert(const Seed& seed) {
  LeafWord word;
  SeedBlock(seed, /*counter=*/1, word.data());
  return word;
}

template <size_t N>
inline void XorInto(std::array<uint8_t, N>& dst,
                    const std::array<uint8_t, N>& src) {
  for (size_t i = 0; i < N; ++i) {
    dst[i] = static_cast<uint8_t>(dst[i] ^ src[i]);
  }
}

/// Applies correction word `cw` to the children of a node whose control
/// bit is `t` (a no-op when t = 0).
inline void Correct(Children& c, uint8_t t, const DpfKey::CorrectionWord& cw) {
  if (!t) return;
  XorInto(c[0].s, cw.seed);
  XorInto(c[1].s, cw.seed);
  c[0].t = static_cast<uint8_t>(c[0].t ^ cw.t_left);
  c[1].t = static_cast<uint8_t>(c[1].t ^ cw.t_right);
}

/// Expands `node` one level down under correction word `cw`.
inline Children Step(const Node& node, const DpfKey::CorrectionWord& cw) {
  Children c = Expand(node.s);
  Correct(c, node.t, cw);
  return c;
}

/// Step over nodes[0, k): the children of nodes[j] go to out[2j, 2j + 1].
/// Expand runs 8 nodes per ChaCha20Block8 call.
void StepMany(const Node* nodes, size_t k, const DpfKey::CorrectionWord& cw,
              Node* out) {
  uint8_t blocks[kChaChaLanes * kChaChaBlockSize];
  for (size_t j = 0; j < k; j += kChaChaLanes) {
    const size_t lanes = std::min(kChaChaLanes, k - j);
    SeedBlocks8(nodes + j, lanes, /*counter=*/0, blocks);
    for (size_t l = 0; l < lanes; ++l) {
      Children c = ChildrenOf(blocks + kChaChaBlockSize * l);
      Correct(c, nodes[j + l].t, cw);
      out[2 * (j + l)] = c[0];
      out[2 * (j + l) + 1] = c[1];
    }
  }
}

/// A leaf's share of the output: Convert(s) XOR t * CW_out.
LeafWord LeafShare(const Node& leaf, const LeafWord& cw_out) {
  LeafWord word = Convert(leaf.s);
  if (leaf.t) XorInto(word, cw_out);
  return word;
}

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// LeafShare over leaves[0, k) as packed words: leaf j fills
/// words[8j, 8j + 8). Convert runs 8 leaves per ChaCha20Block8 call.
void LeafShareMany(const Node* leaves, size_t k, const LeafWord& cw_out,
                   uint64_t* words) {
  constexpr size_t kLeafWords = kDpfLeafBytes / 8;
  uint8_t blocks[kChaChaLanes * kChaChaBlockSize];
  for (size_t j = 0; j < k; j += kChaChaLanes) {
    const size_t lanes = std::min(kChaChaLanes, k - j);
    SeedBlocks8(leaves + j, lanes, /*counter=*/1, blocks);
    for (size_t l = 0; l < lanes; ++l) {
      uint8_t* word = blocks + kChaChaBlockSize * l;
      const uint8_t t = leaves[j + l].t;
      for (size_t i = 0; i < kDpfLeafBytes; ++i) {
        word[i] = static_cast<uint8_t>(word[i] ^ (cw_out[i] & (0 - t)));
      }
      for (size_t w = 0; w < kLeafWords; ++w) {
        words[(j + l) * kLeafWords + w] = LoadLe64(word + 8 * w);
      }
    }
  }
}

Seed RandomSeed() {
  Seed s;
  SystemRandomBytes(s.data(), s.size());
  return s;
}

Status CheckKey(const DpfKey& key) {
  if (key.depth < 1 || key.depth > kMaxDpfDepth) {
    return InvalidArgumentError("dpf: depth out of range");
  }
  if (key.cw.size() != DpfTreeLevels(key.depth)) {
    return InvalidArgumentError("dpf: correction word count != tree levels");
  }
  return OkStatus();
}

}  // namespace

std::vector<uint8_t> DpfKey::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(DpfKeyBytes(depth));
  out.push_back('D');
  out.push_back('P');
  out.push_back('F');
  out.push_back('2');
  out.push_back(party);
  out.push_back(depth);
  out.push_back(0);
  out.push_back(0);
  out.insert(out.end(), root_seed.begin(), root_seed.end());
  out.push_back(static_cast<uint8_t>(root_t & 1));
  for (const CorrectionWord& c : cw) {
    out.insert(out.end(), c.seed.begin(), c.seed.end());
    out.push_back(static_cast<uint8_t>((c.t_left & 1) | ((c.t_right & 1) << 1)));
  }
  out.insert(out.end(), cw_out.begin(), cw_out.end());
  return out;
}

StatusOr<DpfKey> DpfKey::Parse(const uint8_t* data, size_t len) {
  if (data == nullptr || len < 8) {
    return InvalidArgumentError("dpf: key truncated");
  }
  if (std::memcmp(data, "DPF2", 4) != 0) {
    return InvalidArgumentError("dpf: bad key magic (want DPF2)");
  }
  DpfKey key;
  key.party = data[4];
  key.depth = data[5];
  if (key.party > 1) return InvalidArgumentError("dpf: bad party");
  if (key.depth < 1 || key.depth > kMaxDpfDepth) {
    return InvalidArgumentError("dpf: depth out of range");
  }
  if (data[6] != 0 || data[7] != 0) {
    return InvalidArgumentError("dpf: bad reserved bytes");
  }
  if (len != DpfKeyBytes(key.depth)) {
    return InvalidArgumentError("dpf: key length does not match depth");
  }
  std::memcpy(key.root_seed.data(), data + 8, kDpfSeedSize);
  const uint8_t root_t = data[24];
  if (root_t > 1) return InvalidArgumentError("dpf: bad control bit");
  key.root_t = root_t;
  key.cw.resize(DpfTreeLevels(key.depth));
  const uint8_t* p = data + 25;
  for (CorrectionWord& c : key.cw) {
    std::memcpy(c.seed.data(), p, kDpfSeedSize);
    const uint8_t bits = p[kDpfSeedSize];
    if (bits > 3) return InvalidArgumentError("dpf: bad control bits");
    c.t_left = bits & 1;
    c.t_right = (bits >> 1) & 1;
    p += kDpfSeedSize + 1;
  }
  std::memcpy(key.cw_out.data(), p, kDpfLeafBytes);
  return key;
}

StatusOr<DpfKeyPair> DpfGen(uint64_t alpha, uint8_t depth) {
  if (depth < 1 || depth > kMaxDpfDepth) {
    return InvalidArgumentError("dpf: depth out of range");
  }
  if (alpha >= (uint64_t{1} << depth)) {
    return InvalidArgumentError("dpf: alpha outside the domain");
  }
  const uint8_t levels = DpfTreeLevels(depth);
  DpfKeyPair pair;
  pair.key0.party = 0;
  pair.key1.party = 1;
  pair.key0.depth = depth;
  pair.key1.depth = depth;
  pair.key0.root_seed = RandomSeed();
  pair.key1.root_seed = RandomSeed();
  pair.key0.root_t = 0;
  pair.key1.root_t = 1;
  pair.key0.cw.resize(levels);

  Node n0{pair.key0.root_seed, 0};
  Node n1{pair.key1.root_seed, 1};
  for (uint8_t i = 0; i < levels; ++i) {
    Children c0 = Expand(n0.s);
    Children c1 = Expand(n1.s);
    // MSB-first walk: level i consumes bit (depth - 1 - i) of alpha.
    const uint8_t a = static_cast<uint8_t>((alpha >> (depth - 1 - i)) & 1);
    DpfKey::CorrectionWord& cw = pair.key0.cw[i];
    cw.seed = c0[a ^ 1].s;
    XorInto(cw.seed, c1[a ^ 1].s);
    // The control-bit corrections force the parties' bits to differ on
    // the special path and agree off it.
    cw.t_left = static_cast<uint8_t>(c0[0].t ^ c1[0].t ^ a ^ 1);
    cw.t_right = static_cast<uint8_t>(c0[1].t ^ c1[1].t ^ a);
    Correct(c0, n0.t, cw);
    Correct(c1, n1.t, cw);
    n0 = c0[a];
    n1 = c1[a];
  }
  // On the special leaf n0.t XOR n1.t = 1, so exactly one party adds
  // CW_out and the two leaf words XOR to the unit vector at alpha.
  pair.key0.cw_out = Convert(n0.s);
  XorInto(pair.key0.cw_out, Convert(n1.s));
  const uint64_t pos = alpha % (8 * kDpfLeafBytes);
  pair.key0.cw_out[pos >> 3] ^= static_cast<uint8_t>(1u << (pos & 7));
  pair.key1.cw = pair.key0.cw;  // correction words are shared
  pair.key1.cw_out = pair.key0.cw_out;
  return pair;
}

DpfRangeEvaluator::DpfRangeEvaluator(const DpfKey& key, uint64_t offset,
                                     uint64_t count)
    : key_(key), next_point_(offset), end_point_(offset + count) {
  DPSTORE_CHECK(CheckKey(key).ok()) << "dpf: malformed key";
  const uint64_t domain = uint64_t{1} << key.depth;
  DPSTORE_CHECK(offset <= domain && count <= domain - offset)
      << "dpf: range [" << offset << ", +" << count << ") outside 2^"
      << unsigned{key.depth};
  const uint8_t levels = DpfTreeLevels(key.depth);
  chunk_levels_ = std::min(levels, kChunkLevels);
  path_levels_ = static_cast<uint8_t>(levels - chunk_levels_);
  path_[0] = Node{key.root_seed, key.root_t};
}

void DpfRangeEvaluator::SeekChunk(uint64_t c) {
  if (path_valid_ && c == chunk_) return;
  // Paths to chunks c and chunk_ agree down to level keep = path_levels -
  // bit_length(c ^ chunk_); children_[keep] is still the expansion of
  // path_[keep], so only the levels below it are expanded again. The first
  // seek expands the whole path from the root.
  uint8_t keep = 0;
  if (path_valid_) {
    const int diff_bits = 64 - __builtin_clzll(c ^ chunk_);
    keep = static_cast<uint8_t>(path_levels_ - diff_bits);
  }
  for (uint8_t i = keep; i < path_levels_; ++i) {
    if (i > keep || !path_valid_) children_[i] = Step(path_[i], key_.cw[i]);
    path_[i + 1] = children_[i][(c >> (path_levels_ - 1 - i)) & 1];
  }
  chunk_ = c;
  path_valid_ = true;
}

bool DpfRangeEvaluator::Next(Chunk* chunk) {
  if (next_point_ >= end_point_) return false;
  // Leaves [lo, hi) of chunk c (indices relative to its first leaf, base)
  // hold the points still to emit that this chunk covers.
  const uint64_t first_leaf = next_point_ / kLeafPoints;
  const uint64_t end_leaf = (end_point_ + kLeafPoints - 1) / kLeafPoints;
  const uint64_t c = first_leaf >> chunk_levels_;
  const uint64_t base = c << chunk_levels_;
  const uint64_t lo = first_leaf - base;
  const uint64_t hi = std::min(end_leaf - base, uint64_t{1} << chunk_levels_);
  SeekChunk(c);

  // Breadth-first below the chunk root, keeping at each level only the
  // nodes over [lo, hi): at level j those are [lo >> s, (hi - 1) >> s] with
  // s = chunk_levels - j. The two level buffers alternate.
  const Node* level = &path_[path_levels_];
  size_t width = 1;
  Node* buffers[2] = {level_.data(), next_level_.data()};
  for (uint8_t j = 0; j < chunk_levels_; ++j) {
    Node* out = buffers[j & 1];
    StepMany(level, width, key_.cw[path_levels_ + j], out);
    const uint8_t shift = static_cast<uint8_t>(chunk_levels_ - j - 1);
    const uint64_t first = lo >> shift;
    level = out + (first - 2 * (lo >> (shift + 1)));
    width = static_cast<size_t>(((hi - 1) >> shift) - first + 1);
  }
  LeafShareMany(level, width, key_.cw_out, words_.data());

  chunk->bits = words_.data();
  chunk->bit_offset = next_point_ - (base + lo) * kLeafPoints;
  chunk->count = std::min(end_point_, (base + hi) * kLeafPoints) - next_point_;
  next_point_ += chunk->count;
  return true;
}

std::vector<uint64_t> DpfEvalFull(const DpfKey& key) {
  if (!CheckKey(key).ok()) return {};
  const uint8_t depth = key.depth;
  const uint64_t n = uint64_t{1} << depth;
  std::vector<uint64_t> out((n + 63) / 64, 0);
  // From point 0 every chunk starts on a leaf boundary (bit_offset 0); a
  // domain under 64 points is one word cut from a 512-bit leaf.
  DpfRangeEvaluator eval(key, 0, n);
  size_t word = 0;
  for (DpfRangeEvaluator::Chunk chunk; eval.Next(&chunk);) {
    const size_t words = static_cast<size_t>((chunk.count + 63) / 64);
    std::memcpy(out.data() + word, chunk.bits, words * sizeof(uint64_t));
    word += words;
  }
  if (depth < 6) out[0] &= (uint64_t{1} << n) - 1;
  return out;
}

uint8_t DpfEvalPoint(const DpfKey& key, uint64_t x) {
  if (!CheckKey(key).ok()) return 0;
  const uint8_t levels = DpfTreeLevels(key.depth);
  Node node{key.root_seed, key.root_t};
  for (uint8_t i = 0; i < levels; ++i) {
    const uint8_t bit = static_cast<uint8_t>((x >> (key.depth - 1 - i)) & 1);
    node = Step(node, key.cw[i])[bit];
  }
  const LeafWord word = LeafShare(node, key.cw_out);
  const uint64_t pos = x % (8 * kDpfLeafBytes);
  return static_cast<uint8_t>((word[pos >> 3] >> (pos & 7)) & 1);
}

}  // namespace crypto
}  // namespace dpstore
