// Fixture serving layer: the metric names it exports.
#include "server.hpp"

namespace fx2 {

void export_counter(const char* name, unsigned long long value);

// Exports the obs counters. svc.queue_us is documented in the fixture
// docs; svc.hold_us is the seeded undocumented-metric gap.
void BundleServer::counters() const {
  export_counter("svc.queue_us", 1);
  // fbclint:expect(L008) svc.hold_us is not documented
  export_counter("svc.hold_us", 2);
}

}  // namespace fx2
