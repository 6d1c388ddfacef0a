#include "timed_problem.hpp"

#include <chrono>
#include <cmath>

namespace perfbench {

namespace {

bool clean(const EvalResult& result) {
  if (!result.simulation_ok) return false;
  for (const double v : result.metrics)
    if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace

template <typename Call>
EvalResult TimedProblem::measure(Call&& call) const {
  using Clock = std::chrono::steady_clock;
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point start = timed_ ? Clock::now() : Clock::time_point{};
  const auto stop = [&] {
    if (timed_) record(std::chrono::duration<double>(Clock::now() - start).count());
  };
  EvalResult result;
  try {
    result = call();
  } catch (...) {
    stop();
    failed_.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
  stop();
  if (!clean(result)) failed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

namespace {

/// Session handed out by TimedProblem: the inner problem's session, with
/// every evaluate() measured by the owning decorator.
class TimedSession final : public EvalSession {
 public:
  TimedSession(const TimedProblem& owner, std::unique_ptr<EvalSession> inner)
      : owner_(&owner), inner_(std::move(inner)) {}

  EvalResult evaluate(const Vec& x) override {
    return owner_->measure([&] { return inner_->evaluate(x); });
  }

 private:
  const TimedProblem* owner_;
  std::unique_ptr<EvalSession> inner_;
};

}  // namespace

void TimedProblem::record(double seconds) const {
  const maopt::MutexLock lock(mutex_);
  busy_s_ += seconds;
  durations_us_.push_back(seconds * 1e6);
}

EvalResult TimedProblem::evaluate(const Vec& x) const {
  return measure([&] { return inner_->evaluate(x); });
}

EvalResult TimedProblem::evaluate_at(const Vec& x, const ProcessVariation& pv) const {
  return measure([&] { return inner_->evaluate_at(x, pv); });
}

std::unique_ptr<EvalSession> TimedProblem::make_session() const {
  sessions_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<TimedSession>(*this, inner_->make_session());
}

std::unique_ptr<EvalSession> TimedProblem::make_session_at(const ProcessVariation& pv) const {
  sessions_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<TimedSession>(*this, inner_->make_session_at(pv));
}

CircuitStats TimedProblem::stats() const {
  CircuitStats out;
  out.evaluations = evaluations_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.sessions_created = sessions_.load(std::memory_order_relaxed);
  const maopt::MutexLock lock(mutex_);
  out.busy_s = busy_s_;
  out.durations_us = durations_us_;
  return out;
}

}  // namespace perfbench
