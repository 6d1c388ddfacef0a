// maopt-lint-fixture-path: src/eval/fixture.cpp
// GOOD: the provenance rides in the result; a per-thread input is waived.
#include <cstdint>
#include <string>

namespace maopt::eval {

struct Result {
  double value = 0.0;
  std::uint32_t retries = 0;
};

namespace {
// The caller's scope is an input to every call on this thread, not a result.
thread_local std::string t_scope;  // maopt-lint: allow(thread-local)
}  // namespace

Result evaluate(double x) { return {2.0 * x, 1}; }

const std::string& current_scope() { return t_scope; }

}  // namespace maopt::eval
