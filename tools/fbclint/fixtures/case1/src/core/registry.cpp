// Fixture registry: includes alpha.hpp but not beta.hpp (the seeded L003
// gap, flagged at beta.hpp).
#include "policies/alpha.hpp"
