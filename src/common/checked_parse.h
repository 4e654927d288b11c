// Checked number parsing for the command-line and spec-file parsers.
//
// ParseInt64 and ParseDouble (text.h) accept any int64_t and any double,
// NaN and the infinities included. A caller that narrows the result to an
// int, or bounds it with `<` and `>` (both false for NaN), lets a wrapped
// count or a NaN through to the run. These wrappers refuse such values
// instead. Header-only, so the binaries that link src/common's objects but
// parse no flags do not change with them.

#ifndef STMBENCH7_SRC_COMMON_CHECKED_PARSE_H_
#define STMBENCH7_SRC_COMMON_CHECKED_PARSE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "src/common/text.h"

namespace sb7 {

// Parses a decimal integer in [min, largest T] into `out`; false, with
// `out` untouched, otherwise. `min` must not lie below T's smallest value.
template <typename T>
bool ParseIntAtLeast(const std::string& text, int64_t min, T& out) {
  static_assert(std::is_integral_v<T> && std::numeric_limits<T>::digits <= 63,
                "T's range must fit in int64_t");
  int64_t value = 0;
  if (!ParseInt64(text, value) || value < min ||
      value > static_cast<int64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

// Parses a finite decimal number into `out`; false, with `out` untouched,
// for anything else, NaN and the infinities included.
inline bool ParseFinite(const std::string& text, double& out) {
  double value = 0.0;
  if (!ParseDouble(text, value) || !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace sb7

#endif  // STMBENCH7_SRC_COMMON_CHECKED_PARSE_H_
