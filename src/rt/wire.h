#ifndef SAMYA_RT_WIRE_H_
#define SAMYA_RT_WIRE_H_

#include <cstdint>
#include <vector>

#include "common/codec.h"
#include "rt/node.h"

namespace samya::rt {

/// \file
/// Datagram framing for the real-socket backend (DESIGN.md §14).
///
/// The simulator hands `HandleMessage` the exact bytes the sender encoded;
/// a UDP socket does not — a datagram can be torn by a too-small receive
/// buffer, truncated, or corrupted, and anything on the machine can write to
/// the port. Every datagram therefore carries a fixed header with a magic,
/// a masked CRC-32C over everything after the checksum field, and an
/// explicit payload length; `DecodeFrame` rejects anything that does not
/// check out, so garbage is dropped at the transport and never reaches a
/// protocol decode path.
///
/// The sender's netem draw travels in the frame as `due_us`: the receiver
/// holds the payload until then (DESIGN.md §14). It is an absolute instant
/// on the machine-wide monotonic clock (`CLOCK_MONOTONIC`, microseconds), so
/// sender and receiver need share only the machine, not a process.
///
/// Layout (little-endian):
///   magic        u32   kWireMagic
///   masked crc   u32   MaskCrc(Crc32c(bytes after this field))
///   version      u8    kWireVersion
///   from         u32   sender NodeId
///   to           u32   receiver NodeId
///   type         u32   message type
///   payload_len  u32   exact payload byte count
///   due_us       u64   delivery instant, CLOCK_MONOTONIC microseconds
///   payload      payload_len bytes

inline constexpr uint32_t kWireMagic = 0x59'4d'41'53;  // "SAMY" on the wire
inline constexpr uint8_t kWireVersion = 2;
/// Header bytes before the payload.
inline constexpr size_t kWireHeaderSize = 4 + 4 + 1 + 4 + 4 + 4 + 4 + 8;

/// A decoded, validated frame. `payload` points into the receive buffer
/// passed to `DecodeFrame`; it is only valid while that buffer is.
struct WireFrame {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  uint32_t type = 0;
  uint64_t due_us = 0;
  const uint8_t* payload = nullptr;
  size_t payload_len = 0;
};

/// Why a datagram was rejected (counted per reason by the real backend).
enum class WireError {
  kOk = 0,
  kTooShort,     ///< shorter than the fixed header
  kBadMagic,     ///< not one of ours
  kBadVersion,   ///< future/garbage version byte
  kBadLength,    ///< payload_len disagrees with the datagram size
  kBadChecksum,  ///< CRC mismatch: torn or corrupted
};

const char* WireErrorName(WireError e);

/// Appends a complete frame for `payload`, due at `due_us`, to `out`
/// (cleared first). The buffer is reusable across sends to avoid
/// per-datagram allocation.
void EncodeFrame(NodeId from, NodeId to, uint32_t type, uint64_t due_us,
                 const uint8_t* payload, size_t payload_len,
                 std::vector<uint8_t>* out);

/// Validates and decodes one datagram. On `kOk`, `*frame` points into
/// `data`. Any failure leaves `*frame` untouched.
WireError DecodeFrame(const uint8_t* data, size_t n, WireFrame* frame);

}  // namespace samya::rt

#endif  // SAMYA_RT_WIRE_H_
