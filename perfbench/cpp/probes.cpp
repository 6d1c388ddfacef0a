#include "probes.hpp"

namespace perfbench {

std::vector<double> StepClock::steps_ms(Clock::time_point end) const {
  std::vector<double> out;
  out.reserve(polls_.size());
  for (std::size_t i = 0; i < polls_.size(); ++i)
    out.push_back(1e3 * seconds_between(polls_[i], i + 1 < polls_.size() ? polls_[i + 1] : end));
  return out;
}

void JobClock::on_job_state_changed(const maopt::obs::JobStateChanged& event) {
  const auto now = Clock::now();
  const maopt::MutexLock lock(mutex_);
  if (event.to == "running") started_[event.name] = now;
}

void JobClock::on_job_finished(const maopt::obs::JobFinished& event) {
  const auto now = Clock::now();
  // Runs under the daemon's mutex, which sits above the scheduler's leaf
  // lock in the documented hierarchy, so stats() is safe to take here.
  std::map<std::string, maopt::serve::FairShareScheduler::TenantStats> grants;
  if (scheduler_ != nullptr) grants = scheduler_->stats();
  const maopt::MutexLock lock(mutex_);
  const auto it = started_.find(event.name);
  run_s_[event.name] = it == started_.end() ? 0.0 : seconds_between(it->second, now);
  if (first_finish_grants_.empty())
    for (const auto& [tenant, stats] : grants)
      if (!tenant.empty()) first_finish_grants_[tenant] = stats.granted_sims;
}

std::map<std::string, double> JobClock::run_seconds() const {
  const maopt::MutexLock lock(mutex_);
  return run_s_;
}

std::map<std::string, std::uint64_t> JobClock::grants_at_first_finish() const {
  const maopt::MutexLock lock(mutex_);
  return first_finish_grants_;
}

void TimedAdmission::acquire(const std::string& tenant, std::size_t n) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t depth = waiting_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t seen = waiting_max_.load(std::memory_order_relaxed);
  while (depth > seen && !waiting_max_.compare_exchange_weak(seen, depth)) {
  }
  const auto start = Clock::now();
  inner_->acquire(tenant, n);
  wait_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count(),
                     std::memory_order_relaxed);
  waiting_.fetch_sub(1, std::memory_order_relaxed);
}

double TimedAdmission::wait_s() const {
  return 1e-9 * static_cast<double>(wait_ns_.load(std::memory_order_relaxed));
}

}  // namespace perfbench
