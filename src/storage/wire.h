#ifndef DPSTORE_STORAGE_WIRE_H_
#define DPSTORE_STORAGE_WIRE_H_

/// \file
/// Length-prefixed binary wire codec for the storage transport.
///
/// `StorageRequest`/`StorageReply` are already the transport's message
/// shapes; this codec makes them a wire format so an exchange can cross a
/// real socket to a server process (SocketBackend / dpstore_server). The
/// normative specification lives in docs/wire-format.md — the layout
/// constants below and that document must change together (bump
/// `kWireVersion` on any incompatible change).
///
/// Framing: every message is one frame,
///
///   [u32 length][FrameHeader (32 bytes)][count * u64 indices][payload]
///
/// where `length` counts every byte after itself and all integers are
/// little-endian. The payload of an upload request / blocks reply is the
/// flat BlockBuffer region, one contiguous run of count * block_size bytes
/// — which is what makes serialization two writev legs (header+indices,
/// payload) instead of a per-block gather loop.
///
/// Decoding is defensive by contract: a truncated, corrupt, or
/// internally-inconsistent frame decodes to an error Status (never a crash
/// or an oversized allocation), because the bytes may come from an
/// untrusted peer. The fuzz-ish table test in tests/wire_test.cc holds the
/// codec to this.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/backend.h"
#include "storage/block_buffer.h"
#include "util/statusor.h"

namespace dpstore {
namespace wire {

/// Codec version, first byte of every frame header. Version 2 extends
/// kOpen with a namespace id (`count`) and attach mode (`code`) so N
/// connections can share one server arena; every other frame is
/// unchanged. Decoders accept kMinWireVersion..kWireVersion (a v1 Open
/// carries code 0 / count 0, which v2 reads as "private namespace" — the
/// exact v1 semantics), and a server answers each connection with the
/// version its Open arrived in, so v1 clients keep working unmodified.
inline constexpr uint8_t kWireVersion = 2;
inline constexpr uint8_t kMinWireVersion = 1;

/// Hard ceiling on one frame's `length` field (header + indices + payload).
/// Caps what a corrupt or hostile length prefix can make the reader
/// allocate; generous enough for a full n = 2^20 x 64 B scan exchange
/// (64 MiB) with room to grow.
inline constexpr uint64_t kMaxFrameBytes = uint64_t{1} << 30;

/// Bytes of each frame that ReadFrame reads into its caller's scratch
/// buffer: the header is validated from there and the rest of the body
/// read straight into the decoded frame's own storage. So the scratch
/// never holds more than this, whatever the largest frame a connection has
/// seen.
inline constexpr size_t kReadBufferBytes = size_t{64} << 10;

/// Frame types. Requests flow client -> server, replies server -> client;
/// every request frame gets exactly one reply frame with the same ticket.
enum class FrameType : uint8_t {
  /// One storage exchange (StorageRequest). `code` is the op (0 download,
  /// 1 upload, 2 dpf eval); downloads answer with kReplyBlocks carrying
  /// the blocks, uploads with an empty kReplyBlocks acknowledgement. A
  /// dpf-eval frame (code 2) carries no indices: `count` is 1,
  /// `block_size` is the serialized key length (the payload), `aux` is
  /// the DPF domain offset, and the answer is a 1-block kReplyBlocks of
  /// the arena's block size. Code 2 is a compatible extension within wire
  /// v2 — an older server answers it with a clean error frame.
  kRequest = 1,
  /// Successful reply: `count` blocks of `block_size` bytes.
  kReplyBlocks = 2,
  /// Error reply: `code` is the StatusCode, payload is the message text.
  kReplyError = 3,
  /// Connection hello: `aux` = n, `block_size` set; must be the first
  /// frame on a connection. Since v2, `code` is the attach mode (0 =
  /// private arena, 1 = attach-or-create the shared namespace named by
  /// `count`, which must be in [1, 2^63) — the upper half is reserved
  /// for server-minted private namespaces); the server binds the
  /// connection to that engine namespace.
  kOpen = 4,
  /// Whole-array replacement (SetArray): payload = n * block_size bytes.
  kSetArray = 5,
  /// Unrecorded single-block read (`aux` = index), for test assertions and
  /// the adversary's knowledge of the public database.
  kPeek = 6,
  /// Flips one byte of block `aux` (tamper-detection tests).
  kCorrupt = 7,
};

/// The fixed header of every frame, after the u32 length prefix. 32 bytes
/// on the wire, little-endian, laid out field by field (no struct
/// memcpy — the encoder/decoder serialize explicitly so padding and host
/// endianness never leak into the format).
struct FrameHeader {
  uint8_t version = kWireVersion;
  FrameType type = FrameType::kRequest;
  /// kRequest: StorageRequest::Op. kReplyError: StatusCode. kOpen: attach
  /// mode. Else 0.
  uint8_t code = 0;
  /// Correlates a reply with its request (the client's Ticket).
  uint64_t ticket = 0;
  /// kRequest / kReplyBlocks / kSetArray: number of blocks (and, for
  /// requests, of indices). kReplyError: message byte count.
  uint64_t count = 0;
  /// Bytes per payload block; 0 when the frame carries no block payload.
  uint32_t block_size = 0;
  /// Type-specific scalar: kOpen: n. kPeek / kCorrupt: the block index.
  /// kRequest with code 2 (dpf eval): the DPF domain offset.
  uint64_t aux = 0;
};

/// Serialized size of the fixed header (excluding the u32 length prefix).
inline constexpr size_t kHeaderBytes = 1 + 1 + 1 + 1 /*reserved*/ + 8 + 8 +
                                       4 + 8;

/// One frame ready to write: `head` is the length prefix + header +
/// indices, `body` borrows the flat payload region (the second writev
/// leg). `body` must outlive the write; it aliases the request/reply
/// buffer, never a copy.
struct EncodedFrame {
  std::vector<uint8_t> head;
  BlockView body;
};

/// One decoded frame. Indices/payload/message are owned storage, never
/// views of the reader's scratch buffer (which is reused across frames).
struct DecodedFrame {
  FrameHeader header;
  std::vector<BlockId> indices;
  BlockBuffer payload;
  std::string message;  // kReplyError only
};

/// Encodes one storage exchange. The frame body aliases
/// `request.payload` — keep the request alive until the frame is written.
EncodedFrame EncodeRequest(const StorageRequest& request, uint64_t ticket);

/// Encodes a successful reply of `blocks` (empty = acknowledgement). The
/// frame body aliases `blocks`. `version` lets a server answer in the
/// version the client's Open arrived in (negotiation, see kWireVersion).
EncodedFrame EncodeReplyBlocks(const BlockBuffer& blocks, uint64_t ticket,
                               uint8_t version = kWireVersion);

/// Encodes a reply of `count` blocks of `block_size` bytes whose payload
/// is the raw `body` region (count * block_size bytes). The server-side
/// batch scheduler uses this to slice one fused engine reply into
/// per-connection reply frames without copying.
EncodedFrame EncodeReplyBlocksView(BlockView body, uint64_t count,
                                   uint32_t block_size, uint64_t ticket,
                                   uint8_t version = kWireVersion);

/// Encodes an error reply carrying `status` (which must not be OK).
EncodedFrame EncodeReplyError(const Status& status, uint64_t ticket,
                              uint8_t version = kWireVersion);

/// Encodes a control frame (kOpen / kPeek / kCorrupt) with no payload.
EncodedFrame EncodeControl(FrameType type, uint64_t ticket, uint64_t aux,
                           uint32_t block_size);

/// Encodes a v2 Open frame: geometry (`n`, `block_size`) plus the
/// namespace binding (`mode`, and for kAttachOrCreate the shared
/// `namespace_id` — must be nonzero in that mode).
EncodedFrame EncodeOpen(uint64_t ticket, uint64_t n, uint32_t block_size,
                        uint64_t namespace_id, uint8_t mode);

/// Encodes a whole-array replacement. The frame body aliases `array`.
EncodedFrame EncodeSetArray(const BlockBuffer& array, uint64_t ticket);

/// Decodes one frame from `bytes` (the frame body: header + indices +
/// payload, WITHOUT the u32 length prefix, which the reader consumed to
/// size `bytes`). Rejects — with InvalidArgument/DataLoss, never UB — any
/// frame that is truncated, claims a count/block_size inconsistent with
/// its actual length, uses an unknown version or type, or would require
/// an oversized allocation.
StatusOr<DecodedFrame> DecodeFrame(BlockView bytes);

// --- POSIX stream I/O --------------------------------------------------------

/// Writes `frame` to `fd` (both writev legs), looping on short writes.
/// Unavailable on EOF/EPIPE or I/O error.
Status WriteFrame(int fd, const EncodedFrame& frame);

/// Reads one length-prefixed frame from `fd` and returns the decoded
/// frame. `*scratch` is the connection's read buffer, reused across calls:
/// it grows only when a frame needs more of it, and never past
/// kReadBufferBytes. A frame's first min(length, kReadBufferBytes) bytes
/// are read into it and validated by DecodeFrame's own header check; the
/// body bytes among them are copied into the frame, and the rest of its
/// indices and payload are read in place (readv), so the same bytes give
/// the same Status as DecodeFrame. A frame of at most kReadBufferBytes
/// takes two reads (prefix, body).
/// NotFound("connection closed") on clean EOF at a frame boundary;
/// DataLoss on mid-frame EOF or a length prefix exceeding kMaxFrameBytes;
/// Unavailable on I/O error.
StatusOr<DecodedFrame> ReadFrame(int fd, std::vector<uint8_t>* scratch);

}  // namespace wire
}  // namespace dpstore

#endif  // DPSTORE_STORAGE_WIRE_H_
