// Fixture protocol: three message types the docs wire table must list.
#pragma once

#include <cstdint>

namespace fx2 {

enum class MsgType : std::uint8_t {
  Ping = 1,
  Pong = 2,  // fbclint:expect(L008) no | 2 | Pong | row in the wire table
  Stats = 3,
};

}  // namespace fx2
