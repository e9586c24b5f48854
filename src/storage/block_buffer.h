#ifndef DPSTORE_STORAGE_BLOCK_BUFFER_H_
#define DPSTORE_STORAGE_BLOCK_BUFFER_H_

/// \file
/// The transport's payload memory model: BlockBuffer (a batch of
/// equal-sized blocks in ONE contiguous allocation), BlockView /
/// MutableBlockView (non-owning spans into it), and BufferPool (the
/// free list that makes steady-state Submit/Wait allocation-free).
/// Ownership and invalidation rules are documented per type below and
/// summarized in README "Transport memory model"; the flat layout is
/// also what lets the socket transport serialize a payload as one
/// writev leg (docs/wire-format.md).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "storage/block.h"

namespace dpstore {

/// memcpy that tolerates len == 0 with null pointers (UBSan flags plain
/// memcpy(nullptr, nullptr, 0)); the transport's zero-sized-block edge
/// cases all funnel through here.
inline void CopyBytes(uint8_t* dst, const uint8_t* src, size_t len) {
  if (len > 0) std::memcpy(dst, src, len);
}

/// Non-owning window onto one block's bytes. Views are how the hot path
/// reads and writes block payloads without materializing a `Block`
/// (std::vector) per block: a whole exchange lives in one contiguous
/// BlockBuffer and views index into it. A view is invalidated by anything
/// that invalidates a pointer into its buffer (append/clear/destruction) —
/// treat it like the iterator it is: derive, use, drop; never store one
/// across a call that can touch the buffer.
using BlockView = std::span<const uint8_t>;
using MutableBlockView = std::span<uint8_t>;

/// Materializes an owned Block from a view (the compat bridge back into the
/// classic vector-of-vectors world; one copy, cold paths only).
Block ToBlock(BlockView view);

/// Thread-safe free list of raw byte slabs, so steady-state Submit/Wait
/// recycles reply buffers instead of allocating: a BlockBuffer drawn from a
/// pool returns its slab on destruction, and the next exchange's reply
/// reuses it. Bounded (`max_free` slabs) so a burst cannot pin memory
/// forever. Thread-safe because an async backend's worker thread may build
/// a reply that the client thread later destroys.
class BufferPool {
 public:
  explicit BufferPool(size_t max_free = 16) : max_free_(max_free) {}

  struct Slab {
    std::unique_ptr<uint8_t[]> data;
    size_t capacity = 0;
  };

  /// Returns a slab with capacity >= `bytes`; reuses a pooled slab when one
  /// is big enough, else allocates fresh (uninitialized) storage.
  /// \param bytes  minimum capacity the caller needs
  /// \return a slab the caller owns until it calls Release
  Slab Acquire(size_t bytes);

  /// Returns a slab to the free list (dropped when the pool is full).
  /// \param slab  a slab previously returned by Acquire (or fresh)
  void Release(Slab slab);

  /// Pooled-reuse counter, for allocation regression tests.
  uint64_t reuses() const;

 private:
  mutable std::mutex mu_;
  std::vector<Slab> free_;
  size_t max_free_;
  uint64_t reuses_ = 0;
};

/// A batch of equal-sized blocks in ONE contiguous allocation — the
/// transport's unit of payload. Replaces `std::vector<Block>` on the hot
/// path, where a batched exchange of k blocks used to cost k separate heap
/// allocations (1M for a single trivial-PIR query at n=2^20); a BlockBuffer
/// costs at most one, and zero when drawn from a BufferPool that has warmed
/// up. Blocks are addressed by index as views into the flat storage.
///
/// Ownership: move transfers the slab; copy is a deep copy (compat paths
/// such as replaying a recorded exchange plan twice). A buffer acquired via
/// FromPool returns its slab to the pool on destruction or reassignment.
class BlockBuffer {
 public:
  /// Empty buffer with unknown geometry (block_size 0). The first Append
  /// fixes the block size.
  BlockBuffer() = default;

  /// Empty growable buffer of `block_size`-byte blocks.
  explicit BlockBuffer(size_t block_size) : block_size_(block_size) {}

  /// `count` blocks of uninitialized bytes (callers overwrite every block;
  /// skipping the zero-fill matters at 64 MiB per exchange).
  static BlockBuffer Uninitialized(size_t count, size_t block_size);

  /// `count` zeroed blocks.
  static BlockBuffer Zeroed(size_t count, size_t block_size);

  /// `count` uninitialized blocks whose slab is drawn from (and returned
  /// to) `pool`. `pool` may be null (plain allocation).
  static BlockBuffer FromPool(std::shared_ptr<BufferPool> pool, size_t count,
                              size_t block_size);

  /// Packs owned blocks into flat storage. If the blocks disagree in size,
  /// the result carries block_size = blocks[0].size() and `ragged()` is
  /// true — ValidateRequest rejects such payloads, preserving the classic
  /// "block size mismatch" error instead of asserting here.
  static BlockBuffer Pack(const std::vector<Block>& blocks);

  ~BlockBuffer();

  BlockBuffer(BlockBuffer&& other) noexcept;
  BlockBuffer& operator=(BlockBuffer&& other) noexcept;
  BlockBuffer(const BlockBuffer& other);
  BlockBuffer& operator=(const BlockBuffer& other);

  /// Number of blocks.
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  size_t block_size() const { return block_size_; }
  /// Total payload bytes (size() * block_size()).
  size_t bytes() const { return count_ * block_size_; }
  bool ragged() const { return ragged_; }

  /// Read-only view of block `i`. Valid until the next append / clear /
  /// move / destruction of this buffer — derive, use, drop.
  /// \param i  block index, must be < size()
  BlockView operator[](size_t i) const;
  /// Writable view of block `i`; same lifetime rules as operator[].
  MutableBlockView Mutable(size_t i);

  /// All payload bytes, in block order.
  BlockView AllBytes() const { return {data_.get(), bytes()}; }
  /// Writable view of all payload bytes; same lifetime rules as Mutable.
  MutableBlockView MutableBytes() { return {data_.get(), bytes()}; }

  /// Appends one uninitialized block and returns its view (valid until the
  /// next append/clear). Requires block_size() > 0.
  MutableBlockView AppendUninitialized();

  /// Appends a copy of `block`. An empty buffer with unknown geometry
  /// adopts block.size() as its block size; otherwise sizes must match —
  /// a mismatch marks the buffer ragged (rejected at validation).
  void Append(BlockView block);

  /// Drops all blocks, keeping the slab for reuse.
  void Clear() { count_ = 0; }

  /// Grows the slab to hold `count` blocks without changing size().
  void Reserve(size_t count);

  /// Unpacks into the classic vector-of-vectors form (one allocation per
  /// block — compat paths only).
  std::vector<Block> ToBlocks() const;

 private:
  void ReleaseSlab();
  void EnsureCapacity(size_t min_bytes);

  std::unique_ptr<uint8_t[]> data_;
  size_t capacity_ = 0;  // slab bytes
  size_t count_ = 0;
  size_t block_size_ = 0;
  bool ragged_ = false;
  std::shared_ptr<BufferPool> pool_;
};

}  // namespace dpstore

#endif  // DPSTORE_STORAGE_BLOCK_BUFFER_H_
