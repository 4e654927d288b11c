#include "src/net/wire.h"

#include "src/common/little_endian.h"

namespace sb7::net {

namespace {

// Consumes the payload's type byte; false unless it is `expected`.
bool CheckType(ByteReader& reader, MsgType expected) {
  uint8_t type = 0;
  return reader.ReadU8(&type) && type == static_cast<uint8_t>(expected);
}

}  // namespace

void AppendFrame(std::string* out, const std::string& payload) {
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

FrameStatus TryExtractFrame(std::string* buffer, std::string* payload) {
  if (buffer->size() < 4) {
    return FrameStatus::kNeedMore;
  }
  uint32_t length = 0;
  ByteReader header{*buffer};
  header.ReadU32(&length);
  if (length > kMaxFrameBytes) {
    return FrameStatus::kTooLarge;
  }
  if (buffer->size() < 4 + static_cast<size_t>(length)) {
    return FrameStatus::kNeedMore;
  }
  payload->assign(*buffer, 4, length);
  buffer->erase(0, 4 + static_cast<size_t>(length));
  return FrameStatus::kFrame;
}

std::string EncodeHello(const Hello& msg) {
  std::string out;
  out.push_back(static_cast<char>(MsgType::kHello));
  AppendU32(&out, msg.magic);
  AppendU16(&out, msg.version);
  return out;
}

std::string EncodeHelloAck(const HelloAck& msg) {
  std::string out;
  out.push_back(static_cast<char>(MsgType::kHelloAck));
  AppendU16(&out, msg.version);
  AppendU16(&out, msg.op_count);
  return out;
}

std::string EncodeRequest(const OpRequest& msg) {
  std::string out;
  out.push_back(static_cast<char>(MsgType::kRequest));
  AppendU64(&out, msg.request_id);
  AppendU16(&out, msg.op_index);
  return out;
}

std::string EncodeResponse(const OpResponse& msg) {
  std::string out;
  out.push_back(static_cast<char>(MsgType::kResponse));
  AppendU64(&out, msg.request_id);
  out.push_back(static_cast<char>(msg.status));
  AppendU32(&out, msg.server_nanos);
  return out;
}

bool DecodeHello(const std::string& payload, Hello* out) {
  ByteReader reader{payload};
  return CheckType(reader, MsgType::kHello) && reader.ReadU32(&out->magic) &&
         reader.ReadU16(&out->version);
}

bool DecodeHelloAck(const std::string& payload, HelloAck* out) {
  ByteReader reader{payload};
  return CheckType(reader, MsgType::kHelloAck) && reader.ReadU16(&out->version) &&
         reader.ReadU16(&out->op_count);
}

bool DecodeRequest(const std::string& payload, OpRequest* out) {
  ByteReader reader{payload};
  return CheckType(reader, MsgType::kRequest) && reader.ReadU64(&out->request_id) &&
         reader.ReadU16(&out->op_index);
}

bool DecodeResponse(const std::string& payload, OpResponse* out) {
  ByteReader reader{payload};
  uint8_t status = 0;
  if (!CheckType(reader, MsgType::kResponse) || !reader.ReadU64(&out->request_id) ||
      !reader.ReadU8(&status)) {
    return false;
  }
  out->status = static_cast<Status>(status);
  return reader.ReadU32(&out->server_nanos);
}

uint8_t PeekType(const std::string& payload) {
  return payload.empty() ? 0 : static_cast<uint8_t>(payload[0]);
}

}  // namespace sb7::net
