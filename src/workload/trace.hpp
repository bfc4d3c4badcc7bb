// Trace serialization: save/replay workloads as plain text.
//
// Format v1 (line-oriented, '#' comments allowed anywhere):
//
//   fbc-trace v1
//   files <n>
//   <size_bytes>            # one line per file, FileId == line index
//   ...
//   jobs <m>
//   <k> <f_1> ... <f_k>     # one line per job: bundle size then file ids
//   ...
//
// Format v2 adds wall-clock timing per job for the timed SRM:
//
//   fbc-trace v2
//   files <n> ... (as v1)
//   jobs <m>
//   <arrival_s> <service_s> <k> <f_1> ... <f_k>
//
// Format v3 prepends a metadata section so traces can be self-contained
// reproducers (fbcfuzz shrunk failures record the oracle, policy and cache
// configuration that triggered them):
//
//   fbc-trace v3
//   meta <k>
//   <key> <value...>        # k lines; key is one token, value is the rest
//   files <n> ... (as v1)
//   jobs <m> ... (as v1/v2)
//
// The meta key `timed` (value `1`) is reserved: it marks v3 job rows as
// carrying the v2 timing prefix and is consumed by the parser rather than
// surfaced in Trace::meta.
//
// Traces decouple workload generation from simulation, let experiments be
// archived/exchanged, and let users feed real SRM logs into the simulator.
#pragma once

#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/catalog.hpp"
#include "cache/types.hpp"
#include "util/parse.hpp"

namespace fbc {

/// A replayable job stream plus the catalog it references. When timed
/// (v2), `arrival_s` and `service_s` run parallel to `jobs` (arrivals
/// non-decreasing); untimed traces leave them empty. `meta` holds ordered
/// key/value annotations (v3); fuzzer reproducers use it to record the
/// failing oracle and simulator configuration.
struct Trace {
  FileCatalog catalog;
  std::vector<Request> jobs;
  std::vector<double> arrival_s;
  std::vector<double> service_s;
  std::vector<std::pair<std::string, std::string>> meta;

  /// True when per-job timing is present.
  [[nodiscard]] bool is_timed() const noexcept {
    return !arrival_s.empty() && arrival_s.size() == jobs.size() &&
           service_s.size() == jobs.size();
  }

  /// First value stored under `key`, or nullptr when absent.
  [[nodiscard]] const std::string* meta_value(
      std::string_view key) const noexcept;

  /// Appends (or does not deduplicate) a meta entry.
  void set_meta(std::string key, std::string value) {
    meta.emplace_back(std::move(key), std::move(value));
  }
};

/// Meta entry `key`'s `text` (or one field of it) parsed whole as a T; a
/// std::runtime_error naming the key otherwise, so a corrupted reproducer
/// fails to load instead of replaying a wrapped or truncated number.
template <class T>
T meta_number(std::string_view key, std::string_view text) {
  if (const std::optional<T> value = parse_whole<T>(text)) return *value;
  throw std::runtime_error("trace meta '" + std::string(key) +
                           "' is not a valid number: '" + std::string(text) +
                           "'");
}

/// meta_number of entry `key`, or `fallback` when the trace has none.
template <class T>
T meta_number_or(const Trace& trace, std::string_view key, T fallback) {
  const std::string* text = trace.meta_value(key);
  return text == nullptr ? fallback : meta_number<T>(key, *text);
}

/// Writes `trace` in the lowest text format version that can represent it
/// (v1 plain, v2 timed, v3 when meta entries are present). Throws
/// std::invalid_argument for malformed meta entries (empty key, key with
/// whitespace, or values containing newlines).
void write_trace(std::ostream& os, const Trace& trace);

/// Writes `trace` to `path`; throws std::runtime_error on I/O failure.
void save_trace(const std::string& path, const Trace& trace);

/// Parses the v1 text format. Throws std::runtime_error with a line number
/// on malformed input (bad magic, out-of-range file ids, truncation...).
[[nodiscard]] Trace read_trace(std::istream& is);

/// Reads a trace from `path`; throws std::runtime_error on I/O failure.
[[nodiscard]] Trace load_trace(const std::string& path);

}  // namespace fbc
