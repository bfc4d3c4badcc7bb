// Compile-time member count of an aggregate, for arity checks.
//
// A struct whose fields are walked through a hand-written row list (flag
// tables, wire codecs) pairs the list with
//
//   static_assert(member_count<Config>() == kConfigRows.size());
//
// so adding a member without a row fails the build instead of leaving the
// new field silently unparsed, unencoded or unmerged.
#pragma once

#include <cstddef>

namespace fbc {

namespace detail {

/// Converts to any member type; only ever named in unevaluated contexts.
struct AnyField {
  template <class T>
  operator T() const;
};

}  // namespace detail

/// Number of members of aggregate `T`: the longest initializer list
/// T{...} accepts.
template <class T, class... Fields>
consteval std::size_t member_count() {
  if constexpr (requires { T{Fields{}..., detail::AnyField{}}; }) {
    return member_count<T, Fields..., detail::AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

}  // namespace fbc
