#include "rt/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/crc32.h"

namespace samya::rt {
namespace {

/// A due instant above 2^32 µs (about 71 minutes of uptime), so a frame
/// that kept only the low word would not round-trip.
constexpr uint64_t kDue = (uint64_t{1} << 32) * 5 + 0x1234'5678;
/// The due field is the header's last 8 bytes.
constexpr size_t kDueOffset = kWireHeaderSize - 8;

std::vector<uint8_t> SamplePayload() {
  std::vector<uint8_t> payload;
  for (int i = 0; i < 37; ++i) payload.push_back(static_cast<uint8_t>(i * 7));
  return payload;
}

TEST(WireTest, RoundTrip) {
  const std::vector<uint8_t> payload = SamplePayload();
  std::vector<uint8_t> frame_bytes;
  EncodeFrame(3, 11, 207, kDue, payload.data(), payload.size(), &frame_bytes);
  ASSERT_EQ(frame_bytes.size(), kWireHeaderSize + payload.size());

  WireFrame frame;
  ASSERT_EQ(DecodeFrame(frame_bytes.data(), frame_bytes.size(), &frame),
            WireError::kOk);
  EXPECT_EQ(frame.from, 3);
  EXPECT_EQ(frame.to, 11);
  EXPECT_EQ(frame.type, 207u);
  EXPECT_EQ(frame.due_us, kDue);
  ASSERT_EQ(frame.payload_len, payload.size());
  EXPECT_EQ(std::vector<uint8_t>(frame.payload,
                                 frame.payload + frame.payload_len),
            payload);
}

TEST(WireTest, EmptyPayloadRoundTrip) {
  std::vector<uint8_t> frame_bytes;
  EncodeFrame(0, 1, 42, kDue, nullptr, 0, &frame_bytes);
  ASSERT_EQ(frame_bytes.size(), kWireHeaderSize);
  WireFrame frame;
  ASSERT_EQ(DecodeFrame(frame_bytes.data(), frame_bytes.size(), &frame),
            WireError::kOk);
  EXPECT_EQ(frame.payload_len, 0u);
  EXPECT_EQ(frame.type, 42u);
  EXPECT_EQ(frame.due_us, kDue);
}

// v2 header: v1's 25 bytes plus the u64 due instant.
TEST(WireTest, HeaderIsThirtyThreeBytes) {
  EXPECT_EQ(kWireVersion, 2);
  EXPECT_EQ(kWireHeaderSize, 33u);
}

TEST(WireTest, DueRoundTripsAcrossTheWordBoundary) {
  for (uint64_t due : {uint64_t{0}, uint64_t{0xffff'ffff},
                       uint64_t{1} << 32, kDue,
                       ~uint64_t{0}}) {
    std::vector<uint8_t> frame_bytes;
    EncodeFrame(1, 2, 9, due, nullptr, 0, &frame_bytes);
    WireFrame frame;
    ASSERT_EQ(DecodeFrame(frame_bytes.data(), frame_bytes.size(), &frame),
              WireError::kOk);
    EXPECT_EQ(frame.due_us, due);
  }
}

// A well-formed v1 frame — magic, CRC and length all valid for v1's 25-byte
// header, which has no due field — is refused by version, not decoded.
TEST(WireTest, VersionOneFrameRejected) {
  const std::vector<uint8_t> payload = SamplePayload();
  constexpr size_t kV1HeaderSize = 25;
  std::vector<uint8_t> v1(kV1HeaderSize + payload.size(), 0);
  auto store_u32 = [&v1](size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) v1[at + i] = static_cast<uint8_t>(v >> (8 * i));
  };
  store_u32(0, kWireMagic);
  v1[8] = 1;
  store_u32(9, 3);
  store_u32(13, 11);
  store_u32(17, 207);
  store_u32(21, static_cast<uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), v1.begin() + kV1HeaderSize);
  store_u32(4, MaskCrc(Crc32c(v1.data() + 8, v1.size() - 8)));
  WireFrame frame;
  EXPECT_EQ(DecodeFrame(v1.data(), v1.size(), &frame), WireError::kBadVersion);
}

// A torn datagram — any strict prefix, including one that ends inside the
// due field — must never decode.
TEST(WireTest, EveryPrefixRejected) {
  const std::vector<uint8_t> payload = SamplePayload();
  std::vector<uint8_t> frame_bytes;
  EncodeFrame(3, 11, 207, kDue, payload.data(), payload.size(), &frame_bytes);
  for (size_t n = 0; n < frame_bytes.size(); ++n) {
    WireFrame frame;
    EXPECT_NE(DecodeFrame(frame_bytes.data(), n, &frame), WireError::kOk)
        << "prefix of " << n << " bytes decoded";
  }
}

// Any single corrupted byte must be caught — by the magic/version/length
// checks for the fields they guard, by the CRC for everything else (the due
// field included).
TEST(WireTest, EveryByteCorruptionRejected) {
  const std::vector<uint8_t> payload = SamplePayload();
  std::vector<uint8_t> frame_bytes;
  EncodeFrame(3, 11, 207, kDue, payload.data(), payload.size(), &frame_bytes);
  for (size_t i = 0; i < frame_bytes.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      std::vector<uint8_t> corrupt = frame_bytes;
      corrupt[i] ^= flip;
      WireFrame frame;
      const WireError err = DecodeFrame(corrupt.data(), corrupt.size(), &frame);
      EXPECT_NE(err, WireError::kOk)
          << "byte " << i << " xor " << static_cast<int>(flip) << " decoded";
      if (i >= kDueOffset && i < kWireHeaderSize) {
        EXPECT_EQ(err, WireError::kBadChecksum) << "due byte " << i;
      }
    }
  }
}

TEST(WireTest, TrailingGarbageRejected) {
  std::vector<uint8_t> frame_bytes;
  EncodeFrame(0, 1, 7, kDue, nullptr, 0, &frame_bytes);
  frame_bytes.push_back(0xab);
  WireFrame frame;
  EXPECT_EQ(DecodeFrame(frame_bytes.data(), frame_bytes.size(), &frame),
            WireError::kBadLength);
}

TEST(WireTest, ErrorTaxonomy) {
  const std::vector<uint8_t> payload = SamplePayload();
  std::vector<uint8_t> frame_bytes;
  EncodeFrame(3, 11, 207, kDue, payload.data(), payload.size(), &frame_bytes);
  WireFrame frame;

  EXPECT_EQ(DecodeFrame(frame_bytes.data(), kWireHeaderSize - 1, &frame),
            WireError::kTooShort);

  std::vector<uint8_t> bad_magic = frame_bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(DecodeFrame(bad_magic.data(), bad_magic.size(), &frame),
            WireError::kBadMagic);

  std::vector<uint8_t> bad_version = frame_bytes;
  bad_version[8] = kWireVersion + 1;
  EXPECT_EQ(DecodeFrame(bad_version.data(), bad_version.size(), &frame),
            WireError::kBadVersion);

  std::vector<uint8_t> bad_payload = frame_bytes;
  bad_payload.back() ^= 0x10;
  EXPECT_EQ(DecodeFrame(bad_payload.data(), bad_payload.size(), &frame),
            WireError::kBadChecksum);
}

}  // namespace
}  // namespace samya::rt
