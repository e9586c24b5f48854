// Wire codec suite: encode/decode round-trips for every frame type, plus
// the defensive-decoding table the codec is contractually held to —
// truncated, corrupt, or hostile frames must decode to an error Status,
// never crash, hang, or size an allocation from an unchecked header. The
// same tables then go through the stream reader (ReadFrame over a
// socketpair) at frame sizes below and above its read buffer, which must
// give exactly DecodeFrame's result.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/backend.h"
#include "storage/block_buffer.h"
#include "storage/wire.h"
#include "util/random.h"

namespace dpstore {
namespace {

/// The bytes DecodeFrame sees: head minus the u32 length prefix, then the
/// body leg — exactly what ReadFrame reassembles from the stream.
std::vector<uint8_t> FrameBytes(const wire::EncodedFrame& frame) {
  std::vector<uint8_t> bytes(frame.head.begin() + 4, frame.head.end());
  bytes.insert(bytes.end(), frame.body.begin(), frame.body.end());
  return bytes;
}

BlockBuffer MarkerBuffer(size_t count, size_t block_size, uint64_t base = 0) {
  BlockBuffer buffer(block_size);
  for (size_t i = 0; i < count; ++i) {
    buffer.Append(MarkerBlock(base + i, block_size));
  }
  return buffer;
}

// --- Round-trips -------------------------------------------------------------

TEST(WireCodecTest, DownloadRequestRoundTrips) {
  StorageRequest request = StorageRequest::DownloadOf({3, 0, 17, 3});
  wire::EncodedFrame frame = wire::EncodeRequest(request, /*ticket=*/42);
  auto decoded = wire::DecodeFrame(FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, wire::FrameType::kRequest);
  EXPECT_EQ(decoded->header.code, 0);  // download
  EXPECT_EQ(decoded->header.ticket, 42u);
  EXPECT_EQ(decoded->indices, (std::vector<BlockId>{3, 0, 17, 3}));
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(WireCodecTest, UploadRequestRoundTripsPayloadBytes) {
  StorageRequest request =
      StorageRequest::UploadOf({5, 9}, MarkerBuffer(2, 16, 100));
  wire::EncodedFrame frame = wire::EncodeRequest(request, /*ticket=*/7);
  auto decoded = wire::DecodeFrame(FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.code, 1);  // upload
  EXPECT_EQ(decoded->indices, (std::vector<BlockId>{5, 9}));
  ASSERT_EQ(decoded->payload.size(), 2u);
  EXPECT_EQ(decoded->payload.block_size(), 16u);
  EXPECT_TRUE(IsMarkerBlock(decoded->payload[0], 100));
  EXPECT_TRUE(IsMarkerBlock(decoded->payload[1], 101));
}

TEST(WireCodecTest, ZeroBlockExchangesRoundTrip) {
  // A zero-index download and a zero-block upload are legal frames (the
  // client normally short-circuits them, but the codec must not assume).
  for (auto op : {StorageRequest::Op::kDownload, StorageRequest::Op::kUpload}) {
    StorageRequest request;
    request.op = op;
    wire::EncodedFrame frame = wire::EncodeRequest(request, /*ticket=*/1);
    auto decoded = wire::DecodeFrame(FrameBytes(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(decoded->indices.empty());
    EXPECT_TRUE(decoded->payload.empty());
  }
}

TEST(WireCodecTest, ReplyBlocksRoundTripsIncludingEmptyAck) {
  BlockBuffer blocks = MarkerBuffer(3, 8);
  wire::EncodedFrame frame = wire::EncodeReplyBlocks(blocks, /*ticket=*/9);
  auto decoded = wire::DecodeFrame(FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, wire::FrameType::kReplyBlocks);
  ASSERT_EQ(decoded->payload.size(), 3u);
  EXPECT_TRUE(IsMarkerBlock(decoded->payload[2], 2));

  wire::EncodedFrame ack = wire::EncodeReplyBlocks(BlockBuffer(), 10);
  auto decoded_ack = wire::DecodeFrame(FrameBytes(ack));
  ASSERT_TRUE(decoded_ack.ok()) << decoded_ack.status();
  EXPECT_EQ(decoded_ack->header.ticket, 10u);
  EXPECT_TRUE(decoded_ack->payload.empty());
}

TEST(WireCodecTest, ErrorReplyRoundTripsStatus) {
  const Status error = OutOfRangeError("index 99 >= n=8");
  wire::EncodedFrame frame = wire::EncodeReplyError(error, /*ticket=*/3);
  EXPECT_TRUE(frame.body.empty());  // message rides in the head
  auto decoded = wire::DecodeFrame(FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, wire::FrameType::kReplyError);
  EXPECT_EQ(static_cast<StatusCode>(decoded->header.code),
            StatusCode::kOutOfRange);
  EXPECT_EQ(decoded->message, "index 99 >= n=8");
}

TEST(WireCodecTest, ControlFramesRoundTrip) {
  wire::EncodedFrame open =
      wire::EncodeControl(wire::FrameType::kOpen, 1, /*aux=*/1024,
                          /*block_size=*/64);
  auto decoded = wire::DecodeFrame(FrameBytes(open));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, wire::FrameType::kOpen);
  EXPECT_EQ(decoded->header.aux, 1024u);
  EXPECT_EQ(decoded->header.block_size, 64u);

  wire::EncodedFrame peek =
      wire::EncodeControl(wire::FrameType::kPeek, 2, /*aux=*/17, 0);
  auto decoded_peek = wire::DecodeFrame(FrameBytes(peek));
  ASSERT_TRUE(decoded_peek.ok());
  EXPECT_EQ(decoded_peek->header.aux, 17u);
}

TEST(WireCodecTest, SetArrayRoundTrips) {
  BlockBuffer array = MarkerBuffer(4, 8);
  wire::EncodedFrame frame = wire::EncodeSetArray(array, /*ticket=*/5);
  auto decoded = wire::DecodeFrame(FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, wire::FrameType::kSetArray);
  ASSERT_EQ(decoded->payload.size(), 4u);
  EXPECT_TRUE(IsMarkerBlock(decoded->payload[3], 3));
}

// --- Defensive decoding ------------------------------------------------------

/// A valid upload frame; `large` makes it outgrow the reader's buffer.
std::vector<uint8_t> ValidUploadFrame(bool large) {
  const size_t block_size = large ? 32 << 10 : 8;
  StorageRequest request =
      StorageRequest::UploadOf({1, 2, 3}, MarkerBuffer(3, block_size));
  return FrameBytes(wire::EncodeRequest(request, /*ticket=*/1));
}

TEST(WireCodecTest, EveryTruncationOfAValidFrameIsAnError) {
  // The header's count/block_size fully determine the frame length, so any
  // proper prefix must be internally inconsistent — and an error.
  const std::vector<uint8_t> bytes = ValidUploadFrame(/*large=*/false);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = wire::DecodeFrame(BlockView(bytes.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireCodecTest, MaxCountHeaderIsRejectedWithoutAllocating) {
  // A forged count (here 2^61 blocks) must be rejected by the
  // length-consistency check before it can size any allocation.
  StorageRequest request = StorageRequest::DownloadOf({1});
  std::vector<uint8_t> bytes =
      FrameBytes(wire::EncodeRequest(request, /*ticket=*/1));
  const uint64_t huge = uint64_t{1} << 61;
  std::memcpy(bytes.data() + 12, &huge, sizeof(huge));  // count field
  auto decoded = wire::DecodeFrame(bytes);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, BadVersionTypeAndOpAreRejected) {
  StorageRequest request = StorageRequest::DownloadOf({1});
  const std::vector<uint8_t> good =
      FrameBytes(wire::EncodeRequest(request, /*ticket=*/1));

  std::vector<uint8_t> bad = good;
  bad[0] = 99;  // version
  EXPECT_FALSE(wire::DecodeFrame(bad).ok());

  bad = good;
  bad[1] = 0;  // frame type below range
  EXPECT_FALSE(wire::DecodeFrame(bad).ok());
  bad[1] = 200;  // frame type above range
  EXPECT_FALSE(wire::DecodeFrame(bad).ok());

  bad = good;
  bad[2] = 7;  // request op neither download nor upload
  EXPECT_FALSE(wire::DecodeFrame(bad).ok());
}

/// Frames whose header disagrees with their length; `large` makes each
/// outgrow the reader's buffer (indices, payload or message alike).
std::vector<std::vector<uint8_t>> InconsistentGeometryFrames(bool large) {
  std::vector<std::vector<uint8_t>> frames;

  // Download carrying payload bytes.
  std::vector<BlockId> indices(large ? 9000 : 2);
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i + 1;
  StorageRequest download = StorageRequest::DownloadOf(indices);
  std::vector<uint8_t> bytes =
      FrameBytes(wire::EncodeRequest(download, /*ticket=*/1));
  bytes.push_back(0xAB);
  frames.push_back(bytes);

  // Upload whose payload is one byte short of count * block_size.
  StorageRequest upload =
      StorageRequest::UploadOf({1}, MarkerBuffer(1, large ? 96 << 10 : 8));
  bytes = FrameBytes(wire::EncodeRequest(upload, /*ticket=*/1));
  bytes.pop_back();
  frames.push_back(bytes);

  // Blocks reply claiming blocks but block_size 0. The buffer must outlive
  // the encoded frame: the frame body aliases it.
  BlockBuffer two = MarkerBuffer(2, large ? 48 << 10 : 8);
  wire::EncodedFrame reply = wire::EncodeReplyBlocks(two, 1);
  bytes = FrameBytes(reply);
  std::memset(bytes.data() + 20, 0, 4);  // block_size field
  frames.push_back(bytes);

  // Error reply whose message length disagrees with the frame.
  wire::EncodedFrame err = wire::EncodeReplyError(
      InternalError(large ? std::string(70000, 'x') : std::string("boom")),
      /*ticket=*/1);
  bytes = FrameBytes(err);
  bytes.push_back('!');
  frames.push_back(bytes);

  // Control frame carrying unexpected payload.
  wire::EncodedFrame peek =
      wire::EncodeControl(wire::FrameType::kPeek, 1, 0, 0);
  bytes = FrameBytes(peek);
  bytes.resize(bytes.size() + (large ? 70000 : 1), 0);
  frames.push_back(bytes);
  return frames;
}

TEST(WireCodecTest, InconsistentGeometryIsRejected) {
  for (const std::vector<uint8_t>& bytes :
       InconsistentGeometryFrames(/*large=*/false)) {
    EXPECT_FALSE(wire::DecodeFrame(bytes).ok());
  }
}

TEST(WireCodecTest, ErrorReplyWithOkOrUnknownCodeIsRejected) {
  wire::EncodedFrame err =
      wire::EncodeReplyError(InternalError("x"), /*ticket=*/1);
  std::vector<uint8_t> bytes = FrameBytes(err);
  bytes[2] = 0;  // StatusCode::kOk is not an error
  EXPECT_FALSE(wire::DecodeFrame(bytes).ok());
  bytes[2] = 250;  // far outside the canonical space
  EXPECT_FALSE(wire::DecodeFrame(bytes).ok());
}

constexpr uint8_t kFlips[] = {0x01, 0x80, 0xFF};

/// The valid frame the corruption table mutates.
std::vector<uint8_t> CorruptionTarget(bool large) {
  StorageRequest request =
      StorageRequest::UploadOf({0, 7}, MarkerBuffer(2, large ? 40 << 10 : 8));
  return FrameBytes(wire::EncodeRequest(request, /*ticket=*/77));
}

TEST(WireCodecTest, SingleByteCorruptionNeverCrashesTheDecoder) {
  // Fuzz-ish table: flip every byte of a valid frame to several values and
  // decode. Many mutations still decode (a different ticket or index is a
  // perfectly valid frame); the contract under test is "no crash, no UB,
  // no unbounded allocation", which ASan/UBSan runs turn into hard checks.
  const std::vector<uint8_t> good = CorruptionTarget(/*large=*/false);
  int decoded_ok = 0;
  for (size_t i = 0; i < good.size(); ++i) {
    for (uint8_t flip : kFlips) {
      std::vector<uint8_t> bad = good;
      bad[i] ^= flip;
      auto decoded = wire::DecodeFrame(bad);
      if (decoded.ok()) ++decoded_ok;
    }
  }
  // Flipping payload or ticket bytes must keep decoding; flipping the
  // count or type must not. Both classes exist in any valid frame.
  EXPECT_GT(decoded_ok, 0);
}

TEST(WireCodecTest, RandomBytesNeverCrashTheDecoder) {
  Rng rng(20260728);
  for (int round = 0; round < 500; ++round) {
    const size_t len = rng.Uniform(160);
    std::vector<uint8_t> bytes(len);
    for (uint8_t& byte : bytes) {
      byte = static_cast<uint8_t>(rng.Uniform(256));
    }
    // Survival (under ASan/UBSan) is the assertion; most decode to errors.
    (void)wire::DecodeFrame(bytes);
  }
}

// --- The stream reader -------------------------------------------------------

/// Runs `write` against one end of a fresh socketpair on a second thread
/// (a large frame outgrows the socket buffer) and reads one frame from the
/// other end with wire::ReadFrame. The writer then shuts its side, so a
/// reader that wants more bytes than were sent fails instead of hanging;
/// the read end is closed before the writer is joined, so a frame the
/// reader rejected early cannot leave the writer blocked either.
StatusOr<wire::DecodedFrame> ReadOneFrame(
    const std::function<void(int fd)>& write, std::vector<uint8_t>* scratch) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return InternalError("socketpair failed");
  }
  std::thread writer([&] {
    write(fds[1]);
    shutdown(fds[1], SHUT_WR);  // a reader wanting more bytes sees EOF
  });
  StatusOr<wire::DecodedFrame> frame = wire::ReadFrame(fds[0], scratch);
  close(fds[0]);
  writer.join();
  close(fds[1]);
  return frame;
}

/// Sends `body` behind its u32 length prefix; stops at the first error
/// (the reader may hang up early on a rejected frame).
void SendFrameBody(int fd, const std::vector<uint8_t>& body) {
  std::vector<uint8_t> bytes(4);
  for (int i = 0; i < 4; ++i) bytes[i] = uint8_t(body.size() >> (8 * i));
  bytes.insert(bytes.end(), body.begin(), body.end());
  for (size_t sent = 0; sent < bytes.size();) {
    const ssize_t n =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

/// ReadFrame over a socket must give exactly DecodeFrame's result for the
/// same body: the same Status when it fails, the same frame when it does
/// not.
void ExpectReaderMatchesDecoder(const std::vector<uint8_t>& body) {
  SCOPED_TRACE("frame body of " + std::to_string(body.size()) + " bytes");
  StatusOr<wire::DecodedFrame> decoded = wire::DecodeFrame(body);
  std::vector<uint8_t> scratch;
  StatusOr<wire::DecodedFrame> read =
      ReadOneFrame([&](int fd) { SendFrameBody(fd, body); }, &scratch);
  // The scratch grows only as far as this frame's buffered bytes.
  EXPECT_LE(scratch.capacity(), std::min(body.size(), wire::kReadBufferBytes));
  ASSERT_EQ(read.ok(), decoded.ok()) << read.status() << " vs "
                                     << decoded.status();
  if (!decoded.ok()) {
    EXPECT_EQ(read.status(), decoded.status());
    return;
  }
  const wire::FrameHeader& a = read->header;
  const wire::FrameHeader& b = decoded->header;
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.ticket, b.ticket);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.block_size, b.block_size);
  EXPECT_EQ(a.aux, b.aux);
  EXPECT_EQ(read->indices, decoded->indices);
  EXPECT_EQ(read->payload.size(), decoded->payload.size());
  EXPECT_EQ(read->payload.block_size(), decoded->payload.block_size());
  const BlockView got = read->payload.AllBytes();
  const BlockView want = decoded->payload.AllBytes();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  EXPECT_EQ(read->message, decoded->message);
}

TEST(WireReaderTest, ValidFramesReadLikeTheyDecode) {
  for (bool large : {false, true}) {
    SCOPED_TRACE(large);
    ExpectReaderMatchesDecoder(ValidUploadFrame(large));
    ExpectReaderMatchesDecoder(CorruptionTarget(large));
    // Indices alone past the buffer.
    std::vector<BlockId> indices(large ? 9000 : 4);
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = i * 0x0102030405ULL;
    ExpectReaderMatchesDecoder(FrameBytes(
        wire::EncodeRequest(StorageRequest::DownloadOf(indices), 3)));
    // Many small blocks: the buffer boundary falls inside the payload.
    std::vector<BlockId> many(large ? 5000 : 3);
    for (size_t i = 0; i < many.size(); ++i) many[i] = i;
    const BlockBuffer payload = MarkerBuffer(many.size(), 16);
    ExpectReaderMatchesDecoder(FrameBytes(
        wire::EncodeRequest(StorageRequest::UploadOf(many, payload), 4)));
    const std::string text(large ? 70000 : 12, 'e');
    ExpectReaderMatchesDecoder(
        FrameBytes(wire::EncodeReplyError(DataLossError(text), 5)));
  }
}

TEST(WireReaderTest, EveryTruncationMatchesTheDecoder) {
  const std::vector<uint8_t> small = ValidUploadFrame(/*large=*/false);
  for (size_t len = 0; len < small.size(); ++len) {
    ExpectReaderMatchesDecoder(
        std::vector<uint8_t>(small.begin(), small.begin() + len));
  }
  // The large frame at a sample of lengths: every header prefix, either
  // side of the buffer boundary, a stride through the body, the last byte.
  const std::vector<uint8_t> large = ValidUploadFrame(/*large=*/true);
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= wire::kHeaderBytes + 16; ++len) {
    lengths.push_back(len);
  }
  for (size_t len = 4099; len < large.size(); len += 4099) {
    lengths.push_back(len);
  }
  for (size_t len : {wire::kReadBufferBytes - 1, wire::kReadBufferBytes,
                     wire::kReadBufferBytes + 1, large.size() - 1}) {
    lengths.push_back(len);
  }
  for (size_t len : lengths) {
    ExpectReaderMatchesDecoder(
        std::vector<uint8_t>(large.begin(), large.begin() + len));
  }
}

TEST(WireReaderTest, InconsistentGeometryMatchesTheDecoder) {
  for (bool large : {false, true}) {
    for (const std::vector<uint8_t>& bytes :
         InconsistentGeometryFrames(large)) {
      if (large) {
        EXPECT_GT(bytes.size(), wire::kReadBufferBytes);
      }
      EXPECT_FALSE(wire::DecodeFrame(bytes).ok());
      ExpectReaderMatchesDecoder(bytes);
    }
  }
}

TEST(WireReaderTest, SingleByteCorruptionMatchesTheDecoder) {
  const std::vector<uint8_t> small = CorruptionTarget(/*large=*/false);
  std::vector<size_t> positions;
  for (size_t i = 0; i < small.size(); ++i) positions.push_back(i);
  for (uint8_t flip : kFlips) {
    for (size_t i : positions) {
      std::vector<uint8_t> bad = small;
      bad[i] ^= flip;
      ExpectReaderMatchesDecoder(bad);
    }
  }
  // The large frame: header and indices byte by byte, then payload bytes
  // either side of the buffer boundary and the last byte.
  const std::vector<uint8_t> large = CorruptionTarget(/*large=*/true);
  positions.clear();
  for (size_t i = 0; i < wire::kHeaderBytes + 16; ++i) positions.push_back(i);
  for (size_t i : {wire::kReadBufferBytes - 1, wire::kReadBufferBytes,
                   large.size() - 1}) {
    positions.push_back(i);
  }
  for (uint8_t flip : kFlips) {
    for (size_t i : positions) {
      std::vector<uint8_t> bad = large;
      bad[i] ^= flip;
      ExpectReaderMatchesDecoder(bad);
    }
  }
}

TEST(WireReaderTest, RandomBytesMatchTheDecoder) {
  Rng rng(20261018);
  for (int round = 0; round < 300; ++round) {
    // Mostly small bodies, every tenth one past the buffer.
    const size_t len = round % 10 == 9
                           ? wire::kReadBufferBytes + 1 + rng.Uniform(40000)
                           : rng.Uniform(160);
    std::vector<uint8_t> bytes(len);
    for (uint8_t& byte : bytes) {
      byte = static_cast<uint8_t>(rng.Uniform(256));
    }
    // Half the large ones keep a valid header so the body is read too.
    if (round % 20 == 19) {
      const uint32_t block_size = uint32_t(len - wire::kHeaderBytes);
      const std::vector<uint8_t> header = FrameBytes(
          wire::EncodeReplyBlocksView({}, 1, block_size, /*ticket=*/9));
      std::copy(header.begin(), header.end(), bytes.begin());
      EXPECT_TRUE(wire::DecodeFrame(bytes).ok());
    }
    ExpectReaderMatchesDecoder(bytes);
  }
}

TEST(WireReaderTest, ScratchStaysAtTheBufferSizeAfterABulkLoadFrame) {
  // A 32 MiB kSetArray frame: its payload is read in place, so the
  // connection's scratch keeps its one buffer and nothing else.
  const size_t count = 8192, block_size = 4096;
  BlockBuffer array = BlockBuffer::Uninitialized(count, block_size);
  for (size_t i = 0; i < count; ++i) {
    const Block marker = MarkerBlock(i, block_size);
    std::copy(marker.begin(), marker.end(), array.Mutable(i).begin());
  }
  const wire::EncodedFrame frame = wire::EncodeSetArray(array, /*ticket=*/5);
  std::vector<uint8_t> scratch;
  StatusOr<wire::DecodedFrame> read = ReadOneFrame(
      [&](int fd) { EXPECT_TRUE(wire::WriteFrame(fd, frame).ok()); },
      &scratch);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->header.type, wire::FrameType::kSetArray);
  ASSERT_EQ(read->payload.size(), count);
  for (size_t i = 0; i < count; i += 1023) {
    EXPECT_TRUE(IsMarkerBlock(read->payload[i], i)) << i;
  }
  const BlockView got = read->payload.AllBytes();
  const BlockView want = array.AllBytes();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  EXPECT_EQ(scratch.size(), wire::kReadBufferBytes);
  EXPECT_EQ(scratch.capacity(), wire::kReadBufferBytes);
}

}  // namespace
}  // namespace dpstore
