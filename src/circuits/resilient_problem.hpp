// Fault-tolerant evaluation layer — extension beyond the paper.
//
// Real SPICE evaluations fail: Newton non-convergence, singular Jacobians,
// step-halving exhaustion in transient, NaN metrics, or a simulator that
// simply never returns. The paper budgets runs in *simulations*, so a run
// must survive such failures without crashing and without losing budget
// accounting. Two decorators provide that:
//
//   ResilientEvaluator    wraps any SizingProblem with a per-attempt
//                         wall-clock deadline, bounded retries (each retry
//                         deterministically jitters the design — the analog
//                         of "nudge the operating point and rerun" in real
//                         flows), exception capture, and NaN/Inf metric
//                         scrubbing. Every failure mode collapses to a
//                         well-formed EvalResult{failure_metrics, ok=false}
//                         and is tallied in a FailureStats report.
//
//   FaultInjectingProblem wraps any SizingProblem and injects seeded,
//                         rate-configurable faults (throw / hang / NaN
//                         metrics / silent garbage) — the test and bench
//                         harness for everything above. Fault decisions are
//                         a pure function of (seed, design vector), so runs
//                         stay deterministic under retries, threading, and
//                         checkpoint/resume replay.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "circuits/sizing_problem.hpp"

namespace maopt::ckt {

struct ResilientConfig {
  /// Per-attempt wall-clock deadline in seconds; <= 0 disables it. Attempts
  /// run inline on the calling thread, with the deadline set on their
  /// EvalSession (see its deadline contract); an attempt that ends after it
  /// is a FailureKind::Timeout.
  double deadline_seconds = 0.0;
  /// Additional attempts after the first failed one.
  int max_retries = 2;
  /// Retry perturbation per dimension, as a fraction of the parameter range.
  double retry_jitter_frac = 1e-3;
  /// Plausibility screen: any |metric| beyond this is classified NonFinite
  /// even when the solver reports success. A simulator that silently writes
  /// garbage is otherwise undetectable; set this to the largest magnitude
  /// any real metric of the wrapped problem can take.
  double max_metric_magnitude = 1e30;
  /// Stream seed for the deterministic retry jitter.
  std::uint64_t seed = 0x5EEDF00DULL;
};

/// Aggregated failure report (a consistent snapshot; see
/// ResilientEvaluator::stats()).
struct FailureStats {
  std::uint64_t evaluations = 0;  ///< calls to evaluate()
  std::uint64_t attempts = 0;     ///< inner evaluations incl. retries
  std::uint64_t retries = 0;      ///< attempts beyond each call's first
  std::uint64_t failures = 0;     ///< calls that exhausted all retries
  std::array<std::uint64_t, kNumFailureKinds> by_kind{};  ///< failed attempts per kind

  /// One-line human-readable summary, e.g.
  /// "120 evals, 9 failed (3 timeout, 4 non-convergence, 0 non-finite,
  ///  2 exception), 14 retries".
  std::string report() const;
};

/// Decorator: makes any SizingProblem safe to call from an optimizer.
/// Thread-safe whenever the inner problem's make_session_at() is. `inner` is
/// not owned and must outlive this object.
class ResilientEvaluator final : public SessionProblem {
 public:
  explicit ResilientEvaluator(const SizingProblem& inner, ResilientConfig config = {});

  const ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  Vec failure_metrics() const override { return inner_->failure_metrics(); }

  bool supports_process_variation() const override {
    return inner_->supports_process_variation();
  }
  std::uint64_t content_fingerprint() const override { return inner_->content_fingerprint(); }

  FailureStats stats() const;

 protected:
  /// evaluate() and evaluate_at() never throw from the inner solver and
  /// never return non-finite metrics: every failure mode yields
  /// {failure_metrics(), ok=false}. The result's `call` records the retries
  /// consumed and, when every attempt failed, the kind of the last failure.
  /// A session wraps one inner make_session_at(pv) session, and every
  /// attempt runs on it; a deadline set on the session also bounds every
  /// attempt (the earlier of the two wins).
  std::unique_ptr<EvalSession> open_session(const ProcessVariation& pv) const override;

 private:
  class Session;

  /// Runs every attempt on `session`, each under the earlier of `outer` and
  /// the per-attempt deadline.
  EvalResult evaluate_with(const Vec& x, EvalSession& session, const Deadline& outer) const;

  const SizingProblem* inner_;
  ResilientConfig config_;
  mutable std::atomic<std::uint64_t> evaluations_{0};
  mutable std::atomic<std::uint64_t> attempts_{0};
  mutable std::atomic<std::uint64_t> retries_{0};
  mutable std::atomic<std::uint64_t> failures_{0};
  mutable std::array<std::atomic<std::uint64_t>, kNumFailureKinds> by_kind_{};
};

/// Seeded fault injection rates; the four rates must sum to <= 1.
struct FaultInjectionConfig {
  double throw_rate = 0.0;    ///< throw std::runtime_error
  double hang_rate = 0.0;     ///< sleep hang_seconds (or to the session deadline)
  double nan_rate = 0.0;      ///< simulation_ok = true but NaN metrics
  double garbage_rate = 0.0;  ///< simulation_ok = true, absurd finite metrics
  double hang_seconds = 0.05;
  std::uint64_t seed = 0xFau;

  /// Spreads `total_rate` evenly over throw / hang / NaN / garbage.
  static FaultInjectionConfig mixed(double total_rate, std::uint64_t seed = 0xFau,
                                    double hang_seconds = 0.05);
};

/// Decorator used by tests and the fault-tolerance demo: injects failures at
/// configurable rates. The fault drawn for a design depends only on
/// (seed, x), never on call order, so injection is thread-safe and
/// replay-deterministic. `inner` is not owned and must outlive this object.
class FaultInjectingProblem final : public SessionProblem {
 public:
  explicit FaultInjectingProblem(const SizingProblem& inner, FaultInjectionConfig config);

  const ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  Vec failure_metrics() const override { return inner_->failure_metrics(); }

  bool supports_process_variation() const override {
    return inner_->supports_process_variation();
  }
  std::uint64_t content_fingerprint() const override { return inner_->content_fingerprint(); }

  /// Faults injected so far (throws + hangs + NaN + garbage).
  std::uint64_t injected() const { return injected_.load(); }

 protected:
  /// Sessions wrap an inner make_session_at(pv) session and inject faults;
  /// a hang ends at the session deadline if that comes first. The fault
  /// decision is a pure function of (seed, x) at nominal and of (seed, x,
  /// pv) under an enabled variation, so each corner / Monte Carlo instance
  /// draws its own deterministic fault. Replay- and thread-deterministic
  /// either way.
  std::unique_ptr<EvalSession> open_session(const ProcessVariation& pv) const override;

 private:
  class Session;

  const SizingProblem* inner_;
  FaultInjectionConfig config_;
  mutable std::atomic<std::uint64_t> injected_{0};
};

}  // namespace maopt::ckt
