// Fixture registry: includes omega.hpp; policies/sigma.hpp exists but is
// not included here (the seeded L003 gap, flagged at sigma.hpp).
#include "policies/omega.hpp"
