// TimedProblem — the benchmark's view of the circuits layer.
//
// A SizingProblem decorator that counts (always) and times (when tracing)
// every call that reaches the simulator: evaluate, evaluate_at and the
// evaluate() of every session it hands out. It forwards every other
// SizingProblem virtual unchanged, so the stack above it behaves exactly as
// over the bare circuit.
//
// Placement: wrap the circuit and put the wrapper *below* EvalService (or
// hand it straight to an optimizer when no service is used). MaOptimizer,
// Optimizer::warm_start_records and VariationSweepProblem choose their code
// path by dynamic_cast on the problem they are given, so a wrapper above the
// service would silently switch them onto the point path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "common/thread_annotations.hpp"

namespace perfbench {

using maopt::ckt::EvalResult;
using maopt::ckt::EvalSession;
using maopt::ckt::ProcessVariation;
using maopt::ckt::SizingProblem;
using maopt::linalg::Vec;

/// Snapshot of what crossed the circuits boundary. Counts are exact in both
/// modes; busy_s and durations_us stay empty unless the problem is timed.
struct CircuitStats {
  std::uint64_t evaluations = 0;
  std::uint64_t failed = 0;  ///< simulation_ok == false, non-finite metrics, or a throw
  std::uint64_t sessions_created = 0;
  double busy_s = 0.0;  ///< summed over calling threads
  std::vector<double> durations_us;
};

class TimedProblem final : public SizingProblem {
 public:
  /// `inner` is not owned and must outlive this object.
  TimedProblem(SizingProblem& inner, bool timed) : inner_(&inner), timed_(timed) {}

  const maopt::ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  Vec failure_metrics() const override { return inner_->failure_metrics(); }
  void set_process_variation(const ProcessVariation& pv) override {
    inner_->set_process_variation(pv);
  }
  bool supports_process_variation() const override { return inner_->supports_process_variation(); }
  std::uint64_t content_fingerprint() const override { return inner_->content_fingerprint(); }

  EvalResult evaluate(const Vec& x) const override;
  EvalResult evaluate_at(const Vec& x, const ProcessVariation& pv) const override;
  std::unique_ptr<EvalSession> make_session() const override;
  std::unique_ptr<EvalSession> make_session_at(const ProcessVariation& pv) const override;

  CircuitStats stats() const;

  /// Runs one simulator call with the bookkeeping above; used by sessions.
  template <typename Call>
  EvalResult measure(Call&& call) const;

 private:
  void record(double seconds) const;

  SizingProblem* inner_;
  bool timed_;
  mutable std::atomic<std::uint64_t> evaluations_{0};
  mutable std::atomic<std::uint64_t> failed_{0};
  mutable std::atomic<std::uint64_t> sessions_{0};
  mutable maopt::Mutex mutex_;
  mutable double busy_s_ MAOPT_GUARDED_BY(mutex_) = 0.0;
  mutable std::vector<double> durations_us_ MAOPT_GUARDED_BY(mutex_);
};

}  // namespace perfbench
