#include "src/net/wire.h"

namespace sb7::net {

namespace {

void PutU16(std::string* out, uint16_t value) {
  out->push_back(static_cast<char>(value & 0xFF));
  out->push_back(static_cast<char>((value >> 8) & 0xFF));
}

void PutU32(std::string* out, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

bool GetU16(const std::string& in, size_t* pos, uint16_t* value) {
  if (*pos + 2 > in.size()) {
    return false;
  }
  *value = static_cast<uint16_t>(
      static_cast<uint8_t>(in[*pos]) |
      (static_cast<uint16_t>(static_cast<uint8_t>(in[*pos + 1])) << 8));
  *pos += 2;
  return true;
}

bool GetU32(const std::string& in, size_t* pos, uint32_t* value) {
  if (*pos + 4 > in.size()) {
    return false;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *value = v;
  *pos += 4;
  return true;
}

bool GetU64(const std::string& in, size_t* pos, uint64_t* value) {
  if (*pos + 8 > in.size()) {
    return false;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *value = v;
  *pos += 8;
  return true;
}

bool CheckType(const std::string& payload, MsgType expected, size_t* pos) {
  if (payload.empty() ||
      static_cast<uint8_t>(payload[0]) != static_cast<uint8_t>(expected)) {
    return false;
  }
  *pos = 1;
  return true;
}

}  // namespace

void AppendFrame(std::string* out, const std::string& payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

FrameStatus TryExtractFrame(std::string* buffer, std::string* payload) {
  if (buffer->size() < 4) {
    return FrameStatus::kNeedMore;
  }
  size_t pos = 0;
  uint32_t length = 0;
  GetU32(*buffer, &pos, &length);
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
  PutU32(&out, msg.magic);
  PutU16(&out, msg.version);
  return out;
}

std::string EncodeHelloAck(const HelloAck& msg) {
  std::string out;
  out.push_back(static_cast<char>(MsgType::kHelloAck));
  PutU16(&out, msg.version);
  PutU16(&out, msg.op_count);
  return out;
}

std::string EncodeRequest(const OpRequest& msg) {
  std::string out;
  out.push_back(static_cast<char>(MsgType::kRequest));
  PutU64(&out, msg.request_id);
  PutU16(&out, msg.op_index);
  return out;
}

std::string EncodeResponse(const OpResponse& msg) {
  std::string out;
  out.push_back(static_cast<char>(MsgType::kResponse));
  PutU64(&out, msg.request_id);
  out.push_back(static_cast<char>(msg.status));
  PutU32(&out, msg.server_nanos);
  return out;
}

bool DecodeHello(const std::string& payload, Hello* out) {
  size_t pos = 0;
  return CheckType(payload, MsgType::kHello, &pos) &&
         GetU32(payload, &pos, &out->magic) &&
         GetU16(payload, &pos, &out->version);
}

bool DecodeHelloAck(const std::string& payload, HelloAck* out) {
  size_t pos = 0;
  return CheckType(payload, MsgType::kHelloAck, &pos) &&
         GetU16(payload, &pos, &out->version) &&
         GetU16(payload, &pos, &out->op_count);
}

bool DecodeRequest(const std::string& payload, OpRequest* out) {
  size_t pos = 0;
  return CheckType(payload, MsgType::kRequest, &pos) &&
         GetU64(payload, &pos, &out->request_id) &&
         GetU16(payload, &pos, &out->op_index);
}

bool DecodeResponse(const std::string& payload, OpResponse* out) {
  size_t pos = 0;
  if (!CheckType(payload, MsgType::kResponse, &pos) ||
      !GetU64(payload, &pos, &out->request_id)) {
    return false;
  }
  if (pos >= payload.size()) {
    return false;
  }
  out->status = static_cast<Status>(static_cast<uint8_t>(payload[pos]));
  ++pos;
  return GetU32(payload, &pos, &out->server_nanos);
}

uint8_t PeekType(const std::string& payload) {
  return payload.empty() ? 0 : static_cast<uint8_t>(payload[0]);
}

}  // namespace sb7::net
