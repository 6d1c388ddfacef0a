// maopt-lint-fixture-path: src/eval/fixture.cpp
// BAD: per-call telemetry parked in a thread_local for the caller to fetch.
#include <cstdint>

namespace maopt::eval {

namespace {
thread_local std::uint32_t t_last_retries = 0;  // flagged
}  // namespace

double evaluate(double x) {
  t_last_retries = 1;
  return 2.0 * x;
}

std::uint32_t last_retries() { return t_last_retries; }

}  // namespace maopt::eval
