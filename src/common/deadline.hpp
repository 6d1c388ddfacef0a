// A point in time after which work should stop: the cooperative cancellation
// token of the simulation stack (see EvalSession). The default Deadline is
// "none": it never expires, and checking it reads no clock.
#pragma once

#include <chrono>

namespace maopt {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// `seconds` from now; <= 0 has already passed, >= ~30 years (or NaN) is none.
  static Deadline after(double seconds) {
    Deadline d;
    if (seconds < 1e9)
      d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds > 0.0 ? seconds : 0.0));
    return d;
  }

  /// True once the deadline has passed; reads the clock only when one is set.
  bool expired() const { return at_ != Clock::time_point::max() && Clock::now() >= at_; }
  /// The earlier of two deadlines.
  Deadline min(const Deadline& other) const { return other.at_ < at_ ? other : *this; }
  Clock::time_point at() const { return at_; }

 private:
  Clock::time_point at_ = Clock::time_point::max();
};

}  // namespace maopt
