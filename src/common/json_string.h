// JSON string quoting shared by every JSON writer in the tree (CLI report,
// BENCH artifact, telemetry series).

#ifndef STMBENCH7_SRC_COMMON_JSON_STRING_H_
#define STMBENCH7_SRC_COMMON_JSON_STRING_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace sb7 {

// `text` as a quoted JSON string literal: quotes, backslashes, newlines and
// tabs escaped by name, other control characters as \u00XX.
inline std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace sb7

#endif  // STMBENCH7_SRC_COMMON_JSON_STRING_H_
