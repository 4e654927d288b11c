// Little-endian codec shared by the redo log (src/mvstm/redo_log.*) and the
// wire protocol (src/net/wire.*). Integers are encoded byte by byte, least
// significant first, never by struct punning, so both formats read the same
// on every host.

#ifndef STMBENCH7_SRC_COMMON_LITTLE_ENDIAN_H_
#define STMBENCH7_SRC_COMMON_LITTLE_ENDIAN_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace sb7 {

namespace internal {

template <typename T>
void AppendLittleEndian(std::string* out, T value) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

}  // namespace internal

inline void AppendU16(std::string* out, uint16_t value) {
  internal::AppendLittleEndian(out, value);
}
inline void AppendU32(std::string* out, uint32_t value) {
  internal::AppendLittleEndian(out, value);
}
inline void AppendU64(std::string* out, uint64_t value) {
  internal::AppendLittleEndian(out, value);
}
inline void AppendDouble(std::string* out, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64(out, bits);
}
// A short string: u8 length, then the bytes; longer strings are cut at 255.
inline void AppendShortString(std::string* out, const std::string& value) {
  const size_t len = value.size() < 255 ? value.size() : 255;
  out->push_back(static_cast<char>(len));
  out->append(value.data(), len);
}

// Bounds-checked reader over encoded bytes, starting at `pos`. A read that
// would run past the end returns false and consumes nothing.
struct ByteReader {
  const std::string& in;
  size_t pos = 0;

  bool ReadU8(uint8_t* out) { return Read(out); }
  bool ReadU16(uint16_t* out) { return Read(out); }
  bool ReadU32(uint32_t* out) { return Read(out); }
  bool ReadU64(uint64_t* out) { return Read(out); }
  bool ReadDouble(double* out) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) {
      return false;
    }
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }
  bool ReadShortString(std::string* out) {
    uint8_t len = 0;
    if (!ReadU8(&len) || pos + len > in.size()) {
      return false;
    }
    out->assign(in, pos, len);
    pos += len;
    return true;
  }
  bool AtEnd() const { return pos == in.size(); }

  template <typename T>
  bool Read(T* out) {
    if (pos + sizeof(T) > in.size()) {
      return false;
    }
    uint64_t value = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      value |= static_cast<uint64_t>(static_cast<uint8_t>(in[pos + i])) << (8 * i);
    }
    *out = static_cast<T>(value);
    pos += sizeof(T);
    return true;
  }
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_COMMON_LITTLE_ENDIAN_H_
