// Fault-tolerant batched variation sweeps — the robustness engine.
//
// A VariationSweepProblem decorates a SizingProblem so that one "evaluation"
// simulates the design under a fixed list of process-variation variants
// (corners, or seeded Monte Carlo mismatch instances) and aggregates the
// per-variant metrics into one EvalResult an unmodified optimizer can
// consume. Every variant runs through the thread-safe evaluate_at(x, pv)
// primitive, and the engine adds the three things population-scale
// robustness workloads need:
//
//   * Batched execution. When the wrapped problem implements SweepBackend
//     (eval::EvalService does), all variants of one sweep are fanned over the
//     backend's worker pool in a single batch — with per-variant cache keys,
//     so a corner result computed once is never re-simulated. Otherwise the
//     sweep runs serially through evaluate_at.
//   * Variance-aware aggregation: worst-case across variants (robust corner
//     optimization), mean + k·sigma (design centering), or an empirical
//     yield quantile (the value a target fraction of instances achieves).
//   * Explicit partial-failure semantics. When a subset of the variant
//     simulations fails (timeout, NaN, injected fault), the aggregate
//     degrades deterministically per a configured SweepFailurePolicy instead
//     of poisoning the whole evaluation, and the provenance (degraded flag,
//     failed/total counts) rides along in the EvalResult and in corner-tagged
//     RunObserver sweep events. The aggregate carries no per-call provenance
//     (EvalResult::call): it stands for many simulations, not one.
//
// Determinism contract: the aggregate for a design is a pure function of
// (design, variant list, policy) — independent of thread scheduling,
// caching, and call order — so optimizer trajectories driven through a sweep
// problem replay bit-identical from checkpoints.
//
// RobustProblem (corners) and YieldProblem (Monte Carlo mismatch) in
// robust_problem.hpp are the two concrete sweeps.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "common/thread_annotations.hpp"
#include "obs/observer.hpp"

namespace maopt::ckt {

/// One variant of a sweep: a pinned variation plus its display label, which
/// tags the variant's telemetry events ("SS", "mc17", ...).
struct SweepVariant {
  ProcessVariation pv;
  std::string label;
};

/// How per-variant metric vectors combine into the aggregate EvalResult.
enum class RobustAggregation : std::uint8_t {
  /// Worst value of every metric across variants: the target's maximum (we
  /// minimize f0) and each constraint's value closest to / deepest into
  /// violation. Feasible aggregate <=> feasible at every variant.
  WorstCase = 0,
  /// mean + k·sigma per metric, signed toward the violating direction
  /// (population sigma). A variance-aware middle ground between nominal and
  /// worst-case: penalizes spread without letting one outlier dominate.
  KSigma = 1,
  /// Empirical per-metric quantile at `yield_target`: the value at least
  /// that fraction of variants achieves, per constraint direction. A
  /// feasible aggregate means every constraint is (marginally) met by >=
  /// yield_target of the variants.
  YieldQuantile = 2,
};
const char* to_string(RobustAggregation aggregation);

/// What the aggregate reports when a strict subset of variants fails.
/// (When ALL variants fail, every policy reports a failed evaluation with
/// the inner problem's failure_metrics.)
enum class SweepFailurePolicy : std::uint8_t {
  /// Any failed variant fails the whole evaluation (the legacy RobustProblem
  /// behavior). The full batch is still executed — budgets stay predictable
  /// and the telemetry still shows which variants failed.
  FailFast = 0,
  /// A failed variant contributes the inner problem's failure_metrics to the
  /// aggregation, so worst-case/k-sigma aggregates are pulled strongly (but
  /// finitely and deterministically) toward infeasibility. The evaluation
  /// itself stays usable (simulation_ok = true, degraded = true).
  PenalizeFailedVariant = 1,
  /// Aggregate over the surviving variants only, marked degraded — an
  /// optimistic bound for WorstCase (the failed variant might have been the
  /// worst), so the result is flagged for downstream consumers. Fails the
  /// evaluation when fewer than `min_ok_fraction` of variants survive.
  ConservativeBound = 2,
};
const char* to_string(SweepFailurePolicy policy);

struct SweepPolicyConfig {
  RobustAggregation aggregation = RobustAggregation::WorstCase;
  SweepFailurePolicy failure_policy = SweepFailurePolicy::PenalizeFailedVariant;
  double k_sigma = 3.0;        ///< KSigma: the k in mean + k·sigma
  double yield_target = 0.9;   ///< YieldQuantile: fraction in (0, 1]
  double min_ok_fraction = 0.5;  ///< ConservativeBound: survival floor
};

/// Monotonic engine totals (atomic snapshot; variants_* count individual
/// variant evaluations across all sweeps).
struct SweepStats {
  std::uint64_t sweeps = 0;
  std::uint64_t degraded_sweeps = 0;  ///< partial failure shaped the result
  std::uint64_t failed_sweeps = 0;    ///< aggregate reported simulation_ok = false
  std::uint64_t variants_ok = 0;
  std::uint64_t variants_failed = 0;

  /// One-line summary, e.g. "12 sweeps (2 degraded, 1 failed), variants:
  /// 52 ok / 7 failed".
  std::string report() const;
};

/// Batched sweep execution, implemented by eval::EvalService: evaluates one
/// design under every variation in `pvs`, positionally, fanning the variants
/// over the implementation's worker pool. A variant whose simulation throws
/// must be reported as a failed EvalResult (simulation_ok = false), never by
/// propagating the exception — partial failure is the expected case.
/// Defined here (not in eval/) so the circuits layer can depend on it
/// without a library cycle.
class SweepBackend {
 public:
  virtual ~SweepBackend() = default;
  virtual std::vector<EvalResult> evaluate_variants(
      const Vec& x, std::span<const ProcessVariation> pvs) const = 0;
};

class VariationSweepProblem : public SizingProblem {
 public:
  /// Wraps `inner` (not owned; must outlive this object). `kind` labels the
  /// sweep's telemetry events ("corners", "monte-carlo"). Requires a
  /// non-empty variant list, a variation-capable inner problem whenever any
  /// variant's variation is enabled, and valid policy parameters (k_sigma
  /// finite, yield_target in (0,1], min_ok_fraction in [0,1]); throws
  /// std::invalid_argument otherwise.
  /// When `inner` implements SweepBackend (eval::EvalService), sweeps run
  /// batched through it; otherwise serially via inner->evaluate_at.
  VariationSweepProblem(const SizingProblem& inner, std::vector<SweepVariant> variants,
                        SweepPolicyConfig policy, std::string kind);

  const ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  Vec failure_metrics() const override { return inner_->failure_metrics(); }
  std::uint64_t content_fingerprint() const override { return inner_->content_fingerprint(); }

  /// One full sweep: evaluates every variant, applies the failure policy,
  /// aggregates, and stamps the provenance fields (degraded /
  /// variants_failed / variants_total) into the result. Thread-safe
  /// whenever the inner problem's evaluate_at is; the result is a pure
  /// function of (x, variants, policy).
  EvalResult evaluate(const Vec& x) const override;

  /// Attaches a telemetry sink for sweep brackets (may be null to detach).
  /// Events are emitted atomically per sweep — a whole
  /// SweepStarted / SweepVariantEvaluated* / SweepCompleted bracket under one
  /// mutex — so brackets never interleave even when sweeps run concurrently.
  /// The sink must be thread-safe under a concurrent driver (JsonlObserver
  /// and MulticastObserver are) and must outlive this object.
  void set_observer(obs::RunObserver* observer) { observer_ = observer; }

  SweepStats stats() const;
  std::size_t num_variants() const { return variants_.size(); }
  const std::vector<SweepVariant>& variants() const { return variants_; }
  const SweepPolicyConfig& policy() const { return policy_; }
  /// True when sweeps are batched through a SweepBackend.
  bool batched() const { return backend_ != nullptr; }

 private:
  /// Aggregates the contributing metric vectors per `policy_.aggregation`.
  Vec aggregate(const std::vector<const Vec*>& contributing) const;

  const SizingProblem* inner_;
  const SweepBackend* backend_;  ///< inner_ when it batches; else null
  std::vector<SweepVariant> variants_;
  SweepPolicyConfig policy_;
  std::string kind_;

  obs::RunObserver* observer_ = nullptr;

  /// Serializes whole telemetry brackets and owns the sweep-id sequence, so
  /// ids are monotone in emission order. Leaf lock.
  mutable Mutex emit_mutex_;
  mutable std::uint64_t next_sweep_id_ MAOPT_GUARDED_BY(emit_mutex_) = 0;

  mutable std::atomic<std::uint64_t> sweeps_{0};
  mutable std::atomic<std::uint64_t> degraded_sweeps_{0};
  mutable std::atomic<std::uint64_t> failed_sweeps_{0};
  mutable std::atomic<std::uint64_t> variants_ok_{0};
  mutable std::atomic<std::uint64_t> variants_failed_{0};
};

}  // namespace maopt::ckt
