// Fixture serving layer: the anchor L008's docs lookup keys on.
#pragma once

#include "service/protocol.hpp"

namespace fx2 {

class BundleServer {
 public:
  void counters() const;
};

}  // namespace fx2
