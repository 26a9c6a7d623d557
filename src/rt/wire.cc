#include "rt/wire.h"

#include <cstring>

#include "common/crc32.h"

namespace samya::rt {

const char* WireErrorName(WireError e) {
  switch (e) {
    case WireError::kOk:
      return "ok";
    case WireError::kTooShort:
      return "too_short";
    case WireError::kBadMagic:
      return "bad_magic";
    case WireError::kBadVersion:
      return "bad_version";
    case WireError::kBadLength:
      return "bad_length";
    case WireError::kBadChecksum:
      return "bad_checksum";
  }
  return "unknown";
}

namespace {

inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

inline void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
}

inline uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

inline void StoreU64(uint8_t* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}

}  // namespace

void EncodeFrame(NodeId from, NodeId to, uint32_t type, uint64_t due_us,
                 const uint8_t* payload, size_t payload_len,
                 std::vector<uint8_t>* out) {
  out->clear();
  out->resize(kWireHeaderSize + payload_len);
  uint8_t* p = out->data();
  StoreU32(p, kWireMagic);
  // CRC slot filled below, once the covered bytes are in place.
  p[8] = kWireVersion;
  StoreU32(p + 9, static_cast<uint32_t>(from));
  StoreU32(p + 13, static_cast<uint32_t>(to));
  StoreU32(p + 17, type);
  StoreU32(p + 21, static_cast<uint32_t>(payload_len));
  StoreU64(p + 25, due_us);
  if (payload_len > 0) std::memcpy(p + kWireHeaderSize, payload, payload_len);
  const uint32_t crc = Crc32c(p + 8, out->size() - 8);
  StoreU32(p + 4, MaskCrc(crc));
}

WireError DecodeFrame(const uint8_t* data, size_t n, WireFrame* frame) {
  if (n < kWireHeaderSize) return WireError::kTooShort;
  if (LoadU32(data) != kWireMagic) return WireError::kBadMagic;
  if (data[8] != kWireVersion) return WireError::kBadVersion;
  const size_t payload_len = LoadU32(data + 21);
  // Exact-length match: UDP preserves datagram boundaries, so a size
  // mismatch means truncation (recv buffer too small) or garbage.
  if (n != kWireHeaderSize + payload_len) return WireError::kBadLength;
  const uint32_t want = UnmaskCrc(LoadU32(data + 4));
  if (Crc32c(data + 8, n - 8) != want) return WireError::kBadChecksum;
  frame->from = static_cast<NodeId>(LoadU32(data + 9));
  frame->to = static_cast<NodeId>(LoadU32(data + 13));
  frame->type = LoadU32(data + 17);
  frame->due_us = LoadU64(data + 25);
  frame->payload = data + kWireHeaderSize;
  frame->payload_len = payload_len;
  return WireError::kOk;
}

}  // namespace samya::rt
