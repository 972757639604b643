// Tests for message framing: the element-boundary guarantee of §4.2 over arbitrary
// stream chunking, including pathological 1-byte feeds and corrupt lengths.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/net/framing.h"

namespace demi {
namespace {

SgArray DecodeOne(FrameDecoder& dec) {
  auto r = dec.Next();
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.value().has_value());
  return std::move(*r.value());
}

TEST(FramingTest, EncodeProducesHeaderPlusSegments) {
  SgArray sga;
  sga.Append(Buffer::CopyOf("abc"));
  sga.Append(Buffer::CopyOf("de"));
  auto parts = EncodeFrame(sga);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);
  // Payload parts are the same storage (zero copy).
  EXPECT_EQ(parts[1].storage(), sga.segment(0).storage());
}

TEST(FramingTest, RoundTripSingleMessage) {
  SgArray in = SgArray::FromString("the quick brown fox");
  FrameDecoder dec;
  for (const Buffer& p : EncodeFrame(in)) {
    dec.Feed(p);
  }
  EXPECT_EQ(DecodeOne(dec).ToString(), "the quick brown fox");
  auto r = dec.Next();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().has_value());  // stream drained
}

TEST(FramingTest, EmptyMessageRoundTrips) {
  SgArray in;
  FrameDecoder dec;
  for (const Buffer& p : EncodeFrame(in)) {
    dec.Feed(p);
  }
  EXPECT_EQ(DecodeOne(dec).total_bytes(), 0u);
}

TEST(FramingTest, BackToBackMessagesKeepBoundaries) {
  FrameDecoder dec;
  for (const char* msg : {"first", "second message", "3"}) {
    for (const Buffer& p : EncodeFrame(SgArray::FromString(msg))) {
      dec.Feed(p);
    }
  }
  EXPECT_EQ(DecodeOne(dec).ToString(), "first");
  EXPECT_EQ(DecodeOne(dec).ToString(), "second message");
  EXPECT_EQ(DecodeOne(dec).ToString(), "3");
}

TEST(FramingTest, OneByteAtATime) {
  SgArray in = SgArray::FromString("byte by byte");
  Buffer wire = ConcatCopy(EncodeFrame(in));
  FrameDecoder dec;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    dec.Feed(wire.Slice(i, 1));
    auto r = dec.Next();
    ASSERT_TRUE(r.ok());
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(r.value().has_value()) << "premature message at byte " << i;
    } else {
      ASSERT_TRUE(r.value().has_value());
      EXPECT_EQ(r.value()->ToString(), "byte by byte");
    }
  }
}

TEST(FramingTest, PartialHeaderAcrossChunks) {
  SgArray in = SgArray::FromString("split header");
  Buffer wire = ConcatCopy(EncodeFrame(in));
  FrameDecoder dec;
  dec.Feed(wire.Slice(0, 2));  // half the length prefix
  auto r1 = dec.Next();
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.value().has_value());
  dec.Feed(wire.Slice(2));
  EXPECT_EQ(DecodeOne(dec).ToString(), "split header");
}

TEST(FramingTest, OversizedLengthIsProtocolError) {
  Buffer evil = Buffer::Allocate(4);
  evil.mutable_data()[0] = std::byte{0xFF};
  evil.mutable_data()[1] = std::byte{0xFF};
  evil.mutable_data()[2] = std::byte{0xFF};
  evil.mutable_data()[3] = std::byte{0xFF};
  FrameDecoder dec;
  dec.Feed(evil);
  auto r = dec.Next();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kProtocolError);
}

TEST(FramingTest, OversizedLengthPoisonsTheDecoder) {
  // The corrupt length has already been pulled off the stream when the error
  // surfaces, so there is no frame boundary left to resynchronize on. A caller that
  // keeps calling Next() must keep getting the error — NOT a misparse of whatever
  // bytes follow (which here form a perfectly valid frame, the worst case: a naive
  // decoder would silently deliver it as if nothing happened).
  Buffer evil = Buffer::Allocate(4);
  for (int i = 0; i < 4; ++i) {
    evil.mutable_data()[i] = std::byte{0xFF};
  }
  FrameDecoder dec;
  dec.Feed(evil);
  for (const Buffer& p : EncodeFrame(SgArray::FromString("valid frame"))) {
    dec.Feed(p);
  }
  for (int i = 0; i < 3; ++i) {
    auto r = dec.Next();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kProtocolError);
  }
  EXPECT_TRUE(dec.poisoned());
}

TEST(FramingTest, MultiSegmentSgaPreservesBytes) {
  SgArray in;
  in.Append(Buffer::CopyOf("seg1-"));
  in.Append(Buffer::CopyOf("seg2-"));
  in.Append(Buffer::CopyOf("seg3"));
  FrameDecoder dec;
  for (const Buffer& p : EncodeFrame(in)) {
    dec.Feed(p);
  }
  EXPECT_EQ(DecodeOne(dec).ToString(), "seg1-seg2-seg3");
}

// Property test: random messages through random chunking always reassemble exactly,
// whatever the chunk boundaries.
class FramingFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FramingFuzzTest, RandomChunkingPreservesMessages) {
  Rng rng(GetParam());
  std::vector<std::string> messages;
  std::vector<Buffer> wire_parts;
  for (int i = 0; i < 50; ++i) {
    std::string msg(rng.NextBelow(2000), ' ');
    for (auto& ch : msg) {
      ch = static_cast<char>('a' + rng.NextBelow(26));
    }
    messages.push_back(msg);
    for (const Buffer& p : EncodeFrame(SgArray::FromString(msg))) {
      wire_parts.push_back(p);
    }
  }
  Buffer wire = ConcatCopy(wire_parts);

  FrameDecoder dec;
  std::vector<std::string> decoded;
  std::size_t at = 0;
  while (at < wire.size()) {
    const std::size_t chunk = std::min<std::size_t>(1 + rng.NextBelow(700), wire.size() - at);
    dec.Feed(wire.Slice(at, chunk));
    at += chunk;
    while (true) {
      auto r = dec.Next();
      ASSERT_TRUE(r.ok());
      if (!r.value().has_value()) {
        break;
      }
      decoded.push_back(r.value()->ToString());
    }
  }
  EXPECT_EQ(decoded, messages);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramingFuzzTest, ::testing::Values(11, 22, 33, 44, 55));

TEST(ResponseHeaderTest, DecodeIsLittleEndianAndClampedToOneThroughMax) {
  const std::uint8_t three_hundred[kResponseHeaderBytes] = {0x2C, 0x01, 0x00, 0x00};
  const std::uint8_t zero[kResponseHeaderBytes] = {0x00, 0x00, 0x00, 0x00};
  const std::uint8_t all_ones[kResponseHeaderBytes] = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(DecodeResponseBytes(three_hundred), 300u);
  EXPECT_EQ(DecodeResponseBytes(zero), 1u);  // never an empty response
  EXPECT_EQ(DecodeResponseBytes(all_ones), kMaxResponseBytes);
}

}  // namespace
}  // namespace demi
