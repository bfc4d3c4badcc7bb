// Fixture protocol: three message types the docs wire table must list.
#pragma once

#include <cstdint>

namespace fx2 {

enum class MsgType : std::uint8_t {
  Ping = 1,
  Pong = 2,  // fbclint:expect(L008) no | 2 | Pong | row in the wire table
  Stats = 3,
};

/// Wire stats block (L008): every field must be assigned by
/// BundleServer::stats().
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  // Seeded gap: the fixture BundleServer::stats() never assigns this.
  std::uint64_t evictions = 0;  // fbclint:expect(L008) never set by stats()
};

}  // namespace fx2
