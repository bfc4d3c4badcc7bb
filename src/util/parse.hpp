// Whole-value number parsing, shared by CliParser, the trace-meta readers
// and the tools' list flags, so a flag and a reproducer reject the same
// malformed text.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

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

/// Comma-separated whole values ("3,7,12"), empty items skipped. Throws
/// std::invalid_argument naming `what` for an item parse_whole rejects.
template <class T>
std::vector<T> parse_list(const std::string& list, std::string_view what) {
  std::vector<T> values;
  for (std::string_view text = list; !text.empty();) {
    const std::string_view item = text.substr(0, text.find(','));
    text.remove_prefix(std::min(item.size() + 1, text.size()));
    if (item.empty()) continue;
    const std::optional<T> value = parse_whole<T>(item);
    if (!value)
      throw std::invalid_argument(std::string(what) + ": bad value '" +
                                  std::string(item) + "'");
    values.push_back(*value);
  }
  return values;
}

/// One TCP port ("7401"): a whole value in 0..65535, where 0 asks the
/// kernel for an ephemeral port. Throws std::invalid_argument naming
/// `what` for anything else ("70000", "-1", "80x").
inline std::uint16_t parse_port(const std::string& text,
                                std::string_view what) {
  const std::optional<std::uint16_t> port = parse_whole<std::uint16_t>(text);
  if (!port)
    throw std::invalid_argument(std::string(what) + ": bad value '" +
                                text + "'");
  return *port;
}

/// parse_list of TCP ports ("7401,7411"): each in 1..65535.
inline std::vector<std::uint16_t> parse_port_list(const std::string& list,
                                                  std::string_view what) {
  std::vector<std::uint16_t> ports = parse_list<std::uint16_t>(list, what);
  for (const std::uint16_t port : ports)
    if (port == 0) throw std::invalid_argument(std::string(what) + ": port 0");
  return ports;
}

}  // namespace fbc
