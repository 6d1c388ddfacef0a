// maopt-lint-fixture-path: src/circuits/fixture.cpp
// GOOD: the attempt runs on the calling thread and checks its deadline.
#include "common/deadline.hpp"

namespace maopt::ckt {

bool step(double& x);

bool attempt(double x, const Deadline& deadline) {
  while (!deadline.expired())
    if (step(x)) return true;
  return false;  // timed out; nothing is left running
}

}  // namespace maopt::ckt
