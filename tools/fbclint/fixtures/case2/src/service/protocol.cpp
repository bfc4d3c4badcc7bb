// Fixture codec: the first switch forgets MsgType::Stats, the second hides
// behind a default label -- both seeded L003 exhaustiveness violations.
#include "service/protocol.hpp"

namespace fx2 {

int frame_size(MsgType type) {
  // fbclint:expect(L003)
  switch (type) {
    case MsgType::Ping: return 1;
    case MsgType::Pong: return 2;
  }
  return 0;
}

const char* frame_name(MsgType type) {
  // fbclint:expect(L003)
  switch (type) {
    case MsgType::Ping: return "ping";
    case MsgType::Pong: return "pong";
    case MsgType::Stats: return "stats";
    default: return "unknown";
  }
}

}  // namespace fx2
