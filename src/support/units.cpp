#include "src/support/units.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace adapt {

namespace {

// Formats `value` with two, one or no decimals (below 10, below 100, above)
// between `sign` and `unit`, all in one snprintf: building the string by
// concatenation trips GCC 12's -Wrestrict false positive in Release builds.
std::string format_scaled(double value, const char* unit,
                          const char* sign = "") {
  std::array<char, 48> buf{};
  const int decimals = value >= 100.0 ? 0 : value >= 10.0 ? 1 : 2;
  std::snprintf(buf.data(), buf.size(), "%s%.*f%s", sign, decimals, value,
                unit);
  return buf.data();
}

}  // namespace

std::string format_bytes(Bytes b) {
  const double v = static_cast<double>(b);
  if (b >= gib(1)) return format_scaled(v / static_cast<double>(gib(1)), "GB");
  if (b >= mib(1)) return format_scaled(v / static_cast<double>(mib(1)), "MB");
  if (b >= kib(1)) return format_scaled(v / static_cast<double>(kib(1)), "KB");
  return std::to_string(b) + "B";
}

std::string format_time(TimeNs t) {
  const char* sign = t < 0 ? "-" : "";
  // The magnitude in unsigned arithmetic: -t overflows for INT64_MIN.
  const std::uint64_t mag = t < 0 ? 0 - static_cast<std::uint64_t>(t)
                                  : static_cast<std::uint64_t>(t);
  const double v = static_cast<double>(mag);
  if (mag >= static_cast<std::uint64_t>(seconds(1))) {
    return format_scaled(v / 1e9, "s", sign);
  }
  if (mag >= static_cast<std::uint64_t>(milliseconds(1))) {
    return format_scaled(v / 1e6, "ms", sign);
  }
  if (mag >= static_cast<std::uint64_t>(microseconds(1))) {
    return format_scaled(v / 1e3, "us", sign);
  }
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%s%lluns", sign,
                static_cast<unsigned long long>(mag));
  return buf.data();
}

double gbps(Bytes bytes, TimeNs duration) {
  if (duration <= 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / static_cast<double>(duration);
}

}  // namespace adapt
