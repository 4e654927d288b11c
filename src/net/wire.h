// Wire format for the operation protocol of served runs (stmbench7 --listen).
//
// Every message is a length-prefixed binary frame:
//
//     u32-LE payload length | payload bytes
//
// and every payload starts with a u8 message type. All multi-byte integers
// are little-endian, encoded/decoded byte by byte with
// src/common/little_endian.h (no struct punning, so the format is identical
// across hosts). See docs/SERVING.md for the
// protocol walk-through.

#ifndef STMBENCH7_SRC_NET_WIRE_H_
#define STMBENCH7_SRC_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/ingress.h"

namespace sb7::net {

/// Frames larger than this are a protocol violation (the largest legal
/// message is a few dozen bytes); the session is dropped instead of
/// letting a garbage length prefix drive an allocation.
constexpr uint32_t kMaxFrameBytes = 4096;

/// Protocol magic ("SB7\n" little-endian) and version, exchanged in the
/// Hello handshake so a mismatched client fails fast with a clear error.
constexpr uint32_t kWireMagic = 0x0A374253;
constexpr uint16_t kWireVersion = 1;

enum class MsgType : uint8_t {
  kHello = 1,     ///< client → server, first frame on a session
  kHelloAck = 2,  ///< server → client, carries the operation count
  kRequest = 3,   ///< client → server, one operation to execute
  kResponse = 4,  ///< server → client, outcome of one request
};

/// Outcome of an operation request: the runner's ingress outcome, sent as
/// one byte.
using Status = IngressStatus;

struct Hello {
  uint32_t magic = kWireMagic;
  uint16_t version = kWireVersion;
};

struct HelloAck {
  uint16_t version = kWireVersion;
  uint16_t op_count = 0;  ///< size of the server's operation registry
};

struct OpRequest {
  uint64_t request_id = 0;  ///< echoed in the response; client-chosen
  uint16_t op_index = 0;    ///< index into the operation registry
};

struct OpResponse {
  uint64_t request_id = 0;
  Status status = Status::kOk;
  uint32_t server_nanos = 0;  ///< server-side execute latency (0 if rejected)
};

/// Appends `payload` to `out` as one frame (length prefix + bytes).
void AppendFrame(std::string* out, const std::string& payload);

enum class FrameStatus {
  kFrame,     ///< one complete frame extracted and consumed from `buffer`
  kNeedMore,  ///< buffer holds only a partial frame; read more bytes
  kTooLarge,  ///< length prefix exceeds kMaxFrameBytes; drop the session
};

/// Extracts the next complete frame from the front of `buffer` into
/// `payload`, consuming it. Handles arbitrarily fragmented input: callers
/// append whatever recv() produced and loop until kNeedMore.
FrameStatus TryExtractFrame(std::string* buffer, std::string* payload);

// Payload codecs. Encode* returns the payload (frame it with AppendFrame);
// Decode* returns false on wrong type byte or truncated payload.
std::string EncodeHello(const Hello& msg);
std::string EncodeHelloAck(const HelloAck& msg);
std::string EncodeRequest(const OpRequest& msg);
std::string EncodeResponse(const OpResponse& msg);
bool DecodeHello(const std::string& payload, Hello* out);
bool DecodeHelloAck(const std::string& payload, HelloAck* out);
bool DecodeRequest(const std::string& payload, OpRequest* out);
bool DecodeResponse(const std::string& payload, OpResponse* out);

/// Type byte of a payload, or 0 if empty.
uint8_t PeekType(const std::string& payload);

}  // namespace sb7::net

#endif  // STMBENCH7_SRC_NET_WIRE_H_
