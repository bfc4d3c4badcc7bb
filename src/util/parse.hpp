// Whole-value number parsing, shared by CliParser and the trace-meta
// readers so a flag and a reproducer reject the same malformed text.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>

namespace fbc {

/// `text` parsed whole as a T, or nullopt: std::from_chars accepts no
/// leading whitespace, no '+', no '-' for unsigned T, and the whole string
/// must be consumed, so "-1", " 7", "12abc" and out-of-range values fail.
template <class T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace fbc
