// maopt-lint-fixture-path: src/circuits/fixture.cpp
// BAD: a timed-out attempt is detached and keeps simulating.
#include <thread>

namespace maopt::ckt {

double simulate(double x);

void attempt(double x) {
  std::thread worker([x] { (void)simulate(x); });
  worker.detach();  // flagged
}

}  // namespace maopt::ckt
