#include "crypto/dpf.h"

#include <algorithm>
#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/prg.h"

namespace dpstore {
namespace crypto {
namespace {

using Seed = std::array<uint8_t, kDpfSeedSize>;
using LeafWord = std::array<uint8_t, kDpfLeafBytes>;

/// One GGM node: a seed and its control bit.
struct Node {
  Seed s{};
  uint8_t t = 0;
};

/// Both children of one expanded node: [0] left, [1] right.
using Children = std::array<Node, 2>;

/// One ChaCha20 block keyed by `seed` (zero-padded to the 32-byte cipher
/// key) under the all-zero nonce; the seed is fresh per node.
void SeedBlock(const Seed& seed, uint32_t counter,
               uint8_t block[kChaChaBlockSize]) {
  ChaChaKey key{};
  std::memcpy(key.data(), seed.data(), kDpfSeedSize);
  ChaCha20Block(key, ChaChaNonce{}, counter, block);
}

/// The length-doubling PRG of inner nodes (counter 0).
Children Expand(const Seed& seed) {
  uint8_t block[kChaChaBlockSize];
  SeedBlock(seed, /*counter=*/0, block);
  Children c;
  std::memcpy(c[0].s.data(), block, kDpfSeedSize);
  std::memcpy(c[1].s.data(), block + kDpfSeedSize, kDpfSeedSize);
  c[0].t = block[2 * kDpfSeedSize] & 1;
  c[1].t = block[2 * kDpfSeedSize + 1] & 1;
  return c;
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

/// Expands every node of one tree level under correction word `cw`.
void ExpandLevel(const std::vector<Node>& level,
                 const DpfKey::CorrectionWord& cw, std::vector<Node>& next) {
  next.resize(level.size() * 2);
  for (size_t j = 0; j < level.size(); ++j) {
    const Children c = Step(level[j], cw);
    next[2 * j] = c[0];
    next[2 * j + 1] = c[1];
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

std::vector<uint64_t> DpfEvalFull(const DpfKey& key) {
  if (!CheckKey(key).ok()) return {};
  const uint8_t depth = key.depth;
  const uint8_t levels = DpfTreeLevels(depth);
  const uint64_t n = uint64_t{1} << depth;
  std::vector<uint64_t> out((n + 63) / 64, 0);
  constexpr size_t kLeafWords = kDpfLeafBytes / 8;

  // Split the tree into a top section expanded breadth-first once and a
  // set of bottom subtrees expanded one at a time, so the live node set
  // is bounded (~2^kSubDepth seeds) however deep the tree is.
  constexpr uint8_t kSubDepth = 12;
  const uint8_t split = levels > kSubDepth ? levels - kSubDepth : 0;

  std::vector<Node> top(1, Node{key.root_seed, key.root_t});
  std::vector<Node> next;
  for (uint8_t level = 0; level < split; ++level) {
    ExpandLevel(top, key.cw[level], next);
    top.swap(next);
  }

  // Each top node roots a subtree of sub_leaves leaves, and leaf k of the
  // tree owns output words [8k, 8k + 8). Below 512 points the one leaf is
  // cut to the domain's words.
  const uint64_t sub_leaves = uint64_t{1} << (levels - split);
  std::vector<Node> cur;
  for (size_t j = 0; j < top.size(); ++j) {
    cur.assign(1, top[j]);
    for (uint8_t level = split; level < levels; ++level) {
      ExpandLevel(cur, key.cw[level], next);
      cur.swap(next);
    }
    for (uint64_t k = 0; k < sub_leaves; ++k) {
      const LeafWord word = LeafShare(cur[k], key.cw_out);
      const size_t first = (j * sub_leaves + k) * kLeafWords;
      const size_t words = std::min(kLeafWords, out.size() - first);
      for (size_t w = 0; w < words; ++w) {
        out[first + w] = LoadLe64(word.data() + 8 * w);
      }
    }
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
