#include "storage/wire.h"

#include <errno.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "util/io.h"

namespace dpstore {
namespace wire {

namespace {

// Explicit little-endian scalar serialization: the format is defined by
// these loops, not by host memory layout.
void PutU32(std::vector<uint8_t>* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(value >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(value >> (8 * i)));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= uint32_t(p[i]) << (8 * i);
  return value;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= uint64_t(p[i]) << (8 * i);
  return value;
}

/// Builds `head` = length prefix + header + indices for a frame whose body
/// (the second writev leg) will carry `body_bytes` payload bytes.
std::vector<uint8_t> EncodeHead(const FrameHeader& header,
                                const std::vector<BlockId>& indices,
                                size_t body_bytes) {
  std::vector<uint8_t> head;
  head.reserve(4 + kHeaderBytes + indices.size() * 8);
  const uint64_t length = kHeaderBytes + indices.size() * 8 + body_bytes;
  PutU32(&head, static_cast<uint32_t>(length));
  head.push_back(header.version);
  head.push_back(static_cast<uint8_t>(header.type));
  head.push_back(header.code);
  head.push_back(0);  // reserved
  PutU64(&head, header.ticket);
  PutU64(&head, header.count);
  PutU32(&head, header.block_size);
  PutU64(&head, header.aux);
  for (BlockId index : indices) PutU64(&head, index);
  return head;
}

Status TruncatedError(const char* what) {
  return DataLossError(std::string("wire: truncated frame: ") + what);
}

}  // namespace

EncodedFrame EncodeRequest(const StorageRequest& request, uint64_t ticket) {
  FrameHeader header;
  header.type = FrameType::kRequest;
  header.code = static_cast<uint8_t>(request.op);
  header.ticket = ticket;
  header.block_size = static_cast<uint32_t>(request.payload.block_size());
  if (request.op == StorageRequest::Op::kDpfEval) {
    // A dpf-eval frame carries no indices: count sizes the key payload
    // (one "block" of key bytes) and aux is the domain offset.
    header.count = request.payload.size();
    header.aux = request.dpf_offset;
  } else {
    header.count = request.indices.size();
  }
  EncodedFrame frame;
  frame.body = request.payload.AllBytes();
  frame.head = EncodeHead(header, request.indices, frame.body.size());
  return frame;
}

EncodedFrame EncodeReplyBlocks(const BlockBuffer& blocks, uint64_t ticket,
                               uint8_t version) {
  return EncodeReplyBlocksView(blocks.AllBytes(), blocks.size(),
                               static_cast<uint32_t>(blocks.block_size()),
                               ticket, version);
}

EncodedFrame EncodeReplyBlocksView(BlockView body, uint64_t count,
                                   uint32_t block_size, uint64_t ticket,
                                   uint8_t version) {
  FrameHeader header;
  header.version = version;
  header.type = FrameType::kReplyBlocks;
  header.ticket = ticket;
  header.count = count;
  header.block_size = block_size;
  EncodedFrame frame;
  frame.body = body;
  frame.head = EncodeHead(header, {}, frame.body.size());
  return frame;
}

EncodedFrame EncodeReplyError(const Status& status, uint64_t ticket,
                              uint8_t version) {
  FrameHeader header;
  header.version = version;
  header.type = FrameType::kReplyError;
  header.code = static_cast<uint8_t>(status.code());
  header.ticket = ticket;
  header.count = status.message().size();
  EncodedFrame frame;
  frame.head = EncodeHead(header, {}, status.message().size());
  // The message rides in `head` (it is small and owned nowhere stable the
  // frame could alias).
  const auto* text = reinterpret_cast<const uint8_t*>(status.message().data());
  frame.head.insert(frame.head.end(), text, text + status.message().size());
  return frame;
}

EncodedFrame EncodeControl(FrameType type, uint64_t ticket, uint64_t aux,
                           uint32_t block_size) {
  FrameHeader header;
  header.type = type;
  header.ticket = ticket;
  header.aux = aux;
  header.block_size = block_size;
  EncodedFrame frame;
  frame.head = EncodeHead(header, {}, 0);
  return frame;
}

EncodedFrame EncodeOpen(uint64_t ticket, uint64_t n, uint32_t block_size,
                        uint64_t namespace_id, uint8_t mode) {
  FrameHeader header;
  header.type = FrameType::kOpen;
  header.code = mode;
  header.ticket = ticket;
  header.count = namespace_id;
  header.block_size = block_size;
  header.aux = n;
  EncodedFrame frame;
  frame.head = EncodeHead(header, {}, 0);
  return frame;
}

EncodedFrame EncodeSetArray(const BlockBuffer& array, uint64_t ticket) {
  FrameHeader header;
  header.type = FrameType::kSetArray;
  header.ticket = ticket;
  header.count = array.size();
  header.block_size = static_cast<uint32_t>(array.block_size());
  EncodedFrame frame;
  frame.body = array.AllBytes();
  frame.head = EncodeHead(header, {}, frame.body.size());
  return frame;
}

namespace {

/// Validates a frame's fixed header at `p` against the frame's total
/// `length` (header + indices + payload, without the u32 prefix) and
/// returns the frame with its body destinations sized but not yet filled:
/// `indices`, `payload` and `message` hold exactly the bytes the body
/// carries. Every body size is a function of the header and `length`
/// alone, so this is the decoder's whole validation; DecodeFrame and
/// ReadFrame share it. `p` must hold min(length, kHeaderBytes) bytes.
StatusOr<DecodedFrame> DecodeHeader(const uint8_t* p, size_t length) {
  if (length < kHeaderBytes) return TruncatedError("header");
  DecodedFrame frame;
  FrameHeader& header = frame.header;
  header.version = p[0];
  if (header.version < kMinWireVersion || header.version > kWireVersion) {
    return InvalidArgumentError("wire: unknown version " +
                                std::to_string(header.version));
  }
  const uint8_t raw_type = p[1];
  if (raw_type < static_cast<uint8_t>(FrameType::kRequest) ||
      raw_type > static_cast<uint8_t>(FrameType::kCorrupt)) {
    return InvalidArgumentError("wire: unknown frame type " +
                                std::to_string(raw_type));
  }
  header.type = static_cast<FrameType>(raw_type);
  header.code = p[2];
  // p[3] reserved, ignored.
  header.ticket = GetU64(p + 4);
  header.count = GetU64(p + 12);
  header.block_size = GetU32(p + 20);
  header.aux = GetU64(p + 24);
  const size_t rest = length - kHeaderBytes;

  // Every type's body size is fully determined by the header; a mismatch
  // with the actual frame length is a corrupt (or hostile) frame. Checking
  // BEFORE sizing any allocation is what defuses a forged max-count header.
  switch (header.type) {
    case FrameType::kRequest: {
      if (header.code > 2) {
        return InvalidArgumentError("wire: unknown request op " +
                                    std::to_string(header.code));
      }
      if (header.code == 2) {
        // DPF eval: no indices; the payload is exactly one serialized key
        // of block_size bytes (count == 1 by construction), aux is the
        // domain offset. Same defensive arithmetic as uploads.
        if (header.count != 1 || header.block_size == 0 ||
            size_t(header.block_size) != rest) {
          return TruncatedError("dpf key payload");
        }
        frame.payload = BlockBuffer::Uninitialized(1, header.block_size);
        return frame;
      }
      const bool upload = header.code == 1;
      // count * 8 (indices) + payload must be exactly `rest`; work in
      // checked steps so a forged count cannot overflow the arithmetic.
      if (header.count > rest / 8) return TruncatedError("indices");
      const size_t index_bytes = size_t(header.count) * 8;
      const size_t payload_bytes = rest - index_bytes;
      if (upload) {
        if (size_t(header.count) * header.block_size != payload_bytes) {
          return TruncatedError("upload payload");
        }
      } else if (payload_bytes != 0) {
        return InvalidArgumentError("wire: download request carries payload");
      }
      frame.indices.resize(header.count);
      if (upload && header.count > 0) {
        frame.payload =
            BlockBuffer::Uninitialized(header.count, header.block_size);
      }
      return frame;
    }
    case FrameType::kReplyBlocks:
    case FrameType::kSetArray: {
      if (header.block_size == 0 && header.count > 0) {
        return InvalidArgumentError("wire: blocks frame with block_size 0");
      }
      if (header.count != 0 &&
          (header.count > rest / header.block_size ||
           size_t(header.count) * header.block_size != rest)) {
        return TruncatedError("block payload");
      }
      if (header.count == 0 && rest != 0) {
        return InvalidArgumentError("wire: empty blocks frame with payload");
      }
      if (header.count > 0) {
        frame.payload =
            BlockBuffer::Uninitialized(header.count, header.block_size);
      }
      return frame;
    }
    case FrameType::kReplyError: {
      if (header.count != rest) return TruncatedError("error message");
      if (header.code == 0 ||
          header.code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
        return InvalidArgumentError("wire: error frame with bad status code " +
                                    std::to_string(header.code));
      }
      frame.message.resize(rest);
      return frame;
    }
    case FrameType::kOpen:
    case FrameType::kPeek:
    case FrameType::kCorrupt: {
      if (rest != 0) {
        return InvalidArgumentError("wire: control frame carries payload");
      }
      if (header.type == FrameType::kOpen) {
        // v2: code is the attach mode; a v1 frame always carries 0
        // (private), so one check covers both versions.
        if (header.code > 1) {
          return InvalidArgumentError("wire: unknown open mode " +
                                      std::to_string(header.code));
        }
        if (header.code == 1 && header.count == 0) {
          return InvalidArgumentError(
              "wire: shared open requires a nonzero namespace id");
        }
      }
      return frame;
    }
  }
  return InternalError("wire: unreachable frame type");
}

/// The destinations of a frame's body bytes, in wire order: the index
/// area (raw little-endian bytes until IndicesFromWire), then the payload
/// or the error message. Together they are exactly the body DecodeHeader
/// sized.
std::array<MutableBlockView, 2> BodySpans(DecodedFrame* frame) {
  const MutableBlockView indices(
      reinterpret_cast<uint8_t*>(frame->indices.data()),
      frame->indices.size() * sizeof(BlockId));
  if (!frame->message.empty()) {
    return {indices,
            MutableBlockView(reinterpret_cast<uint8_t*>(frame->message.data()),
                             frame->message.size())};
  }
  return {indices, frame->payload.MutableBytes()};
}

/// Converts an index area filled with raw wire bytes to host order in
/// place (the identity on a little-endian host).
void IndicesFromWire(std::vector<BlockId>* indices) {
  for (BlockId& index : *indices) {
    index = GetU64(reinterpret_cast<const uint8_t*>(&index));
  }
}

}  // namespace

StatusOr<DecodedFrame> DecodeFrame(BlockView bytes) {
  DPSTORE_ASSIGN_OR_RETURN(DecodedFrame frame,
                           DecodeHeader(bytes.data(), bytes.size()));
  const uint8_t* tail = bytes.data() + kHeaderBytes;
  for (MutableBlockView span : BodySpans(&frame)) {
    CopyBytes(span.data(), tail, span.size());
    tail += span.size();
  }
  IndicesFromWire(&frame.indices);
  return frame;
}

Status WriteFrame(int fd, const EncodedFrame& frame) {
  // The writer side of the length-prefix contract: a frame beyond the cap
  // would be rejected by any conforming reader — and beyond u32, its
  // truncated prefix would desynchronize the stream. Refuse to put it on
  // the wire at all; the connection stays usable.
  const uint64_t length =
      (frame.head.size() - sizeof(uint32_t)) + frame.body.size();
  if (length > kMaxFrameBytes) {
    return InvalidArgumentError("wire: frame of " + std::to_string(length) +
                                " bytes exceeds cap");
  }
  struct iovec iov[2];
  iov[0].iov_base = const_cast<uint8_t*>(frame.head.data());
  iov[0].iov_len = frame.head.size();
  iov[1].iov_base = const_cast<uint8_t*>(frame.body.data());
  iov[1].iov_len = frame.body.size();
  int iovcnt = frame.body.empty() ? 1 : 2;
  struct iovec* cursor = iov;
  while (iovcnt > 0) {
    // sendmsg(MSG_NOSIGNAL), not writev: a peer that vanished mid-write
    // must surface as EPIPE, not kill the process with SIGPIPE.
    struct msghdr msg{};
    msg.msg_iov = cursor;
    msg.msg_iovlen = iovcnt;
    const ssize_t wrote = io::SendmsgEintr(fd, &msg, MSG_NOSIGNAL);
    if (wrote < 0) {
      return UnavailableError(std::string("wire: write failed: ") +
                              std::strerror(errno));
    }
    io::AdvanceIov(&cursor, &iovcnt, static_cast<size_t>(wrote));
  }
  return OkStatus();
}

namespace {

/// Reads exactly `len` bytes. `clean_eof_ok`: EOF before the first byte is
/// a clean close (NotFound), mid-read EOF is DataLoss.
Status ReadExactly(int fd, uint8_t* out, size_t len, bool clean_eof_ok) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = io::ReadEintr(fd, out + got, len - got);
    if (n < 0) {
      return UnavailableError(std::string("wire: read failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && clean_eof_ok) {
        return NotFoundError("wire: connection closed");
      }
      return DataLossError("wire: connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return OkStatus();
}

/// Fills every byte of `iov[0..iovcnt)`, looping on short reads. Only
/// ever called mid-frame, so any EOF is DataLoss.
Status ReadvExactly(int fd, struct iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    const ssize_t n = io::ReadvEintr(fd, iov, iovcnt);
    if (n < 0) {
      return UnavailableError(std::string("wire: read failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) return DataLossError("wire: connection closed mid-frame");
    io::AdvanceIov(&iov, &iovcnt, static_cast<size_t>(n));
  }
  return OkStatus();
}

}  // namespace

StatusOr<DecodedFrame> ReadFrame(int fd, std::vector<uint8_t>* scratch) {
  uint8_t prefix[4];
  DPSTORE_RETURN_IF_ERROR(
      ReadExactly(fd, prefix, sizeof(prefix), /*clean_eof_ok=*/true));
  const uint32_t length = GetU32(prefix);
  if (length > kMaxFrameBytes) {
    return DataLossError("wire: frame length " + std::to_string(length) +
                         " exceeds cap");
  }
  // The scratch holds at most one buffer's worth of any frame. It grows
  // only when a frame needs more of it (doubling, capped at the buffer
  // size; the old bytes are dead, so nothing is copied): a bulk load
  // leaves at most kReadBufferBytes behind, and a connection of small
  // frames keeps a small buffer.
  const size_t buffered = std::min<size_t>(length, kReadBufferBytes);
  if (scratch->size() < buffered) {
    *scratch = std::vector<uint8_t>(std::min(
        kReadBufferBytes, std::max(buffered, 2 * scratch->size())));
  }
  DPSTORE_RETURN_IF_ERROR(
      ReadExactly(fd, scratch->data(), buffered, /*clean_eof_ok=*/false));
  // Validate the header, copy the body bytes already buffered into the
  // frame's own storage, and read any rest of the body straight there with
  // readv over the index and payload tails. A frame that fit in the buffer
  // leaves nothing to read, so it costs two reads (prefix, body) in all.
  DPSTORE_ASSIGN_OR_RETURN(DecodedFrame frame,
                           DecodeHeader(scratch->data(), length));
  BlockView have(scratch->data() + kHeaderBytes, buffered - kHeaderBytes);
  struct iovec iov[2];
  int iovcnt = 0;
  for (MutableBlockView span : BodySpans(&frame)) {
    const size_t taken = std::min(have.size(), span.size());
    CopyBytes(span.data(), have.data(), taken);
    have = have.subspan(taken);
    if (span.size() > taken) {
      iov[iovcnt].iov_base = span.data() + taken;
      iov[iovcnt].iov_len = span.size() - taken;
      ++iovcnt;
    }
  }
  DPSTORE_RETURN_IF_ERROR(ReadvExactly(fd, iov, iovcnt));
  IndicesFromWire(&frame.indices);
  return frame;
}

}  // namespace wire
}  // namespace dpstore
