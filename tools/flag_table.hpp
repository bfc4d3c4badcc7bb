// Flag lists: one CLI flag per member of a config struct.
//
// A tool writes each config struct's flags once, as an array of flag_row
// entries; registration, parsing and --help defaults are all generated
// from it, and a static_assert on member_count next to the list fails the
// build when the struct gains a member without a row. kPolicyFlags below
// is the list for PolicyContext (fbcsim); tools/serving_common.hpp holds
// the serving structs' lists.
#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <string>
#include <type_traits>

#include "core/incremental_select.hpp"
#include "core/registry.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/member_count.hpp"

namespace fbc::tools {

/// Tag for flag_row's `As` parameter: a Bytes member read with
/// parse_bytes ("512MiB").
struct ByteSize {};

/// Parses the text of a flag bound to an enum member. The header of each
/// flag list specializes it for the enums that list uses.
template <class E>
E parse_enum(const std::string& text);

template <>
inline SelectEngine parse_enum<SelectEngine>(const std::string& text) {
  return parse_select_engine(text);
}

/// One CLI flag bound to one member of config struct `C`. `read` parses
/// the flag into its member; `show` renders the member as flag text, so a
/// default-constructed C supplies the --help default and the struct's own
/// initializer stays the only place a default is written. Switches (bare
/// --flag, off by default) have no `show`.
template <class C>
struct FlagField {
  const char* flag;
  const char* help;
  void (*read)(const CliParser& cli, const char* flag, C& config);
  std::string (*show)(const C& config);
};

namespace detail {

template <class>
struct MemberOf;
template <class C, class T>
struct MemberOf<T C::*> {
  using owner = C;
  using type = T;
};

template <class As>
auto read_value(const CliParser& cli, const std::string& flag) {
  if constexpr (std::is_same_v<As, ByteSize>) {
    return parse_bytes(cli.get_string(flag));
  } else if constexpr (std::is_same_v<As, bool>) {
    return cli.get_flag(flag);
  } else if constexpr (std::is_same_v<As, std::string>) {
    return cli.get_string(flag);
  } else if constexpr (std::is_same_v<As, double>) {
    return cli.get_double(flag);
  } else if constexpr (std::is_enum_v<As>) {
    return parse_enum<As>(cli.get_string(flag));
  } else if constexpr (sizeof(As) == sizeof(std::uint32_t)) {
    return cli.get_u32(flag);
  } else {
    static_assert(std::is_unsigned_v<As> && sizeof(As) == 8);
    return cli.get_u64(flag);
  }
}

template <class As, class T>
std::string show_value(const T& value) {
  if constexpr (std::is_same_v<As, ByteSize>) {
    return format_bytes(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_same_v<T, double>) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  } else if constexpr (std::is_enum_v<T>) {
    return to_string(value);
  } else {
    return std::to_string(value);
  }
}

}  // namespace detail

/// The FlagField of `Member`, parsed and shown according to `As` (the
/// member's own type unless a ByteSize tag says otherwise).
template <auto Member,
          class As = typename detail::MemberOf<decltype(Member)>::type>
constexpr auto flag_row(const char* flag, const char* help) {
  using C = typename detail::MemberOf<decltype(Member)>::owner;
  FlagField<C> row{flag, help, nullptr, nullptr};
  row.read = [](const CliParser& cli, const char* f, C& c) {
    c.*Member = detail::read_value<As>(cli, f);
  };
  if constexpr (!std::is_same_v<As, bool>)
    row.show = [](const C& c) { return detail::show_value<As>(c.*Member); };
  return row;
}

/// Registers one flag per row, with the --help defaults read from
/// `defaults` (a default-constructed C unless the tool keeps its own).
template <class C, std::size_t N>
void add_flags(CliParser& cli, const std::array<FlagField<C>, N>& rows,
               const C& defaults = C{}) {
  for (const FlagField<C>& row : rows) {
    if (row.show == nullptr) {
      cli.add_flag(row.flag, row.help);
    } else {
      cli.add_option(row.flag, row.help, row.show(defaults));
    }
  }
}

/// Builds a C from the flags add_flags registered.
template <class C, std::size_t N>
C read_flags(const CliParser& cli, const std::array<FlagField<C>, N>& rows) {
  C config;
  for (const FlagField<C>& row : rows) row.read(cli, row.flag, config);
  return config;
}

/// The flag list of PolicyContext, registered and parsed by fbcsim.
inline constexpr auto kPolicyFlags = [] {
  using C = PolicyContext;
  return std::to_array<FlagField<C>>({
      flag_row<&C::seed>("seed", "seed for stochastic policies"),
      flag_row<&C::history_window_jobs>(
          "window", "sliding-window length in jobs for optfb-window"),
      flag_row<&C::aging_factor>("aging",
                                 "queue aging factor for optfb* policies"),
      flag_row<&C::history_max_entries>(
          "history-cap",
          "bounded-memory history entries for optfb* (0 = unbounded)"),
      flag_row<&C::select_engine>(
          "engine",
          "selection engine for optfb* policies: reference|incremental "
          "(identical results; incremental rescores only dirty history "
          "entries per miss)"),
      flag_row<&C::duel_sample_period>(
          "duel-sample",
          "adaptive: one request in N joins the set-dueling sample"),
      flag_row<&C::duel_phase_jobs>(
          "duel-phase", "adaptive: leader re-election interval, in arrivals"),
  });
}();
static_assert(member_count<PolicyContext>() == kPolicyFlags.size() + 2,
              "every PolicyContext member but catalog and jobs needs a "
              "kPolicyFlags row");

}  // namespace fbc::tools
