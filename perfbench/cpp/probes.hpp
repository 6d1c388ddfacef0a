// Probes the benchmark attaches to the repo's public hooks. None of them
// changes what the program computes: StepClock answers every poll with
// Signal::None, the observers only read events, and TimedAdmission forwards
// each grant to the daemon's own scheduler.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/optimizer.hpp"
#include "obs/observer.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// RunControl that timestamps the optimizer's once-per-iteration poll, so
/// iteration latency is measured from outside the loop at the cost of one
/// clock read per iteration, with or without an observer attached.
class StepClock final : public maopt::core::RunControl {
 public:
  Signal poll() override {
    polls_.push_back(Clock::now());
    return Signal::None;
  }
  /// Iteration durations [ms]: poll to poll, the last one ending at `end`.
  std::vector<double> steps_ms(Clock::time_point end) const;

 private:
  std::vector<Clock::time_point> polls_;
};

/// One IterationCompleted event, kept raw; the layer arithmetic lives in the
/// benchmark's Python side so that both span sources (this observer and a
/// daemon job's JSONL stream) go through the same code.
struct IterationRecord {
  double wall_s = 0.0;
  bool near_sampling = false;
  std::vector<maopt::obs::PhaseSpan> spans;
};

/// RunObserver recording the phase spans of one run (traced runs only).
class SpanRecorder final : public maopt::obs::RunObserver {
 public:
  void on_iteration_completed(const maopt::obs::IterationCompleted& event) override {
    iterations_.push_back({event.wall_seconds, event.near_sampling, event.spans});
  }
  const std::vector<IterationRecord>& iterations() const { return iterations_; }

 private:
  std::vector<IterationRecord> iterations_;
};

/// Daemon-level observer: timestamps each job's Running -> terminal interval
/// and snapshots the scheduler's per-tenant grants when the first job ends
/// (both tenants are still backlogged up to that moment).
class JobClock final : public maopt::obs::RunObserver {
 public:
  void attach(const maopt::serve::FairShareScheduler* scheduler) { scheduler_ = scheduler; }
  void on_job_state_changed(const maopt::obs::JobStateChanged& event) override;
  void on_job_finished(const maopt::obs::JobFinished& event) override;

  /// Job name -> seconds from Running to its terminal state.
  std::map<std::string, double> run_seconds() const;
  std::map<std::string, std::uint64_t> grants_at_first_finish() const;

 private:
  const maopt::serve::FairShareScheduler* scheduler_ = nullptr;
  mutable maopt::Mutex mutex_;
  std::map<std::string, Clock::time_point> started_ MAOPT_GUARDED_BY(mutex_);
  std::map<std::string, double> run_s_ MAOPT_GUARDED_BY(mutex_);
  std::map<std::string, std::uint64_t> first_finish_grants_ MAOPT_GUARDED_BY(mutex_);
};

/// BatchAdmission decorator over the daemon's scheduler: times how long
/// each grant request waits and tracks the deepest concurrent queue.
class TimedAdmission final : public maopt::eval::BatchAdmission {
 public:
  explicit TimedAdmission(maopt::eval::BatchAdmission& inner) : inner_(&inner) {}
  void acquire(const std::string& tenant, std::size_t n) override;
  void release(const std::string& tenant, std::size_t n) override { inner_->release(tenant, n); }

  double wait_s() const;
  std::uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  std::uint64_t waiting_max() const { return waiting_max_.load(std::memory_order_relaxed); }

 private:
  maopt::eval::BatchAdmission* inner_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> waiting_{0};
  std::atomic<std::uint64_t> waiting_max_{0};
  std::atomic<std::int64_t> wait_ns_{0};
};

}  // namespace perfbench
