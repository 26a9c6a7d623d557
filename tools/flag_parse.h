#ifndef SAMYA_TOOLS_FLAG_PARSE_H_
#define SAMYA_TOOLS_FLAG_PARSE_H_

// Strict numeric flag values for the command-line tools. A value must be the
// whole of a number inside its flag's range; anything else (no digits,
// trailing characters, overflow, out of range) prints the tool's usage and
// exits 2. Lenient atoi-style parsing turned "abc" into 0, and a gate over
// zero runs passed vacuously.

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace samya::tools {

inline constexpr int64_t kIntMax = std::numeric_limits<int32_t>::max();
inline constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
inline constexpr double kRealMax = std::numeric_limits<double>::max();
/// Lower bound of a real flag that must be strictly positive.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

[[noreturn]] inline void UsageExit(void (*usage)()) {
  usage();
  std::exit(2);
}

/// The whole of `text` as an integer in [lo, hi].
inline int64_t ParseInt(const char* text, int64_t lo, int64_t hi,
                        void (*usage)()) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v < lo || v > hi) {
    UsageExit(usage);
  }
  return v;
}

/// The whole of `text` as a finite number in [lo, hi].
inline double ParseReal(const char* text, double lo, double hi,
                        void (*usage)()) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !(v >= lo && v <= hi)) {
    UsageExit(usage);
  }
  return v;
}

}  // namespace samya::tools

#endif  // SAMYA_TOOLS_FLAG_PARSE_H_
