// The black-box optimization interface between circuits and optimizers
// (Eq. 1 of the paper): a box-bounded parameter vector x mapped by SPICE
// simulation to metrics f(x) = [f0, f1..fm], where f0 is the target to
// minimize and f1..fm are constrained.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace maopt::ckt {

using linalg::Vec;

enum class ConstraintKind {
  GreaterEqual,  ///< f_i(x) >= bound
  LessEqual,     ///< f_i(x) <= bound
};

/// Gaussian device-mismatch settings for Monte Carlo yield analysis (see
/// process_variation.hpp). Default-constructed = nominal (no variation).
struct ProcessVariation {
  // Random local mismatch (per-device Gaussian draws, seeded).
  double sigma_vth = 0.0;     ///< absolute threshold spread [V]
  double sigma_kp_rel = 0.0;  ///< relative KP spread
  std::uint64_t seed = 0;     ///< Monte Carlo instance id

  // Deterministic global corner shifts, applied per device type before the
  // random mismatch (see corner_variation() in process_variation.hpp).
  double nmos_vth_shift = 0.0;
  double pmos_vth_shift = 0.0;
  double nmos_kp_factor = 1.0;
  double pmos_kp_factor = 1.0;

  bool enabled() const {
    return sigma_vth != 0.0 || sigma_kp_rel != 0.0 || nmos_vth_shift != 0.0 ||
           pmos_vth_shift != 0.0 || nmos_kp_factor != 1.0 || pmos_kp_factor != 1.0;
  }
};

/// Contract-checks a variation setting: sigmas must be finite and >= 0,
/// shifts finite, KP factors finite and > 0. Throws ContractViolation
/// (MAOPT_CHECK) on violation — a negative sigma or zero KP factor would
/// otherwise silently produce unphysical model cards deep inside a sweep.
void validate_process_variation(const ProcessVariation& pv);

struct ConstraintSpec {
  std::string name;
  std::string unit;
  ConstraintKind kind;
  double bound;        ///< c_i in Eq. 2
  double weight = 1.0; ///< w_i in Eq. 2
};

struct ProblemSpec {
  std::string name;
  std::string target_name;  ///< f_0, minimized
  std::string target_unit;
  double target_weight = 1.0;  ///< w_0 in Eq. 2 (applied to f0 / f0_reference)
  std::vector<ConstraintSpec> constraints;
};

/// Why an evaluation attempt failed (the tag recorded per attempt).
enum class FailureKind : std::uint8_t {
  Timeout = 0,         ///< attempt exceeded the wall-clock deadline
  NonConvergence = 1,  ///< solver returned simulation_ok = false
  NonFinite = 2,       ///< solver "succeeded" but produced NaN/Inf metrics
  Exception = 3,       ///< solver threw
};
inline constexpr std::size_t kNumFailureKinds = 4;

const char* to_string(FailureKind kind);

/// How one evaluation call was served. The decorator that knows a field
/// fills it in the result it returns: ResilientEvaluator the retry and
/// failure detail, eval::EvalService the cache detail. Riding in the result,
/// it survives batching and thread hops; a plain evaluation and a sweep
/// aggregate leave it default.
struct CallProvenance {
  std::uint32_t retries = 0;  ///< resilient retries this call consumed
  bool failed = false;        ///< every attempt failed; metrics are failure_metrics
  FailureKind last_failure = FailureKind::NonConvergence;  ///< valid when failed
  bool served = false;     ///< answered by an EvalService: one cache hit or miss
  bool cache_hit = false;  ///< served from the result cache
  bool coalesced = false;  ///< shared a concurrent request's simulation
  double seconds = 0.0;    ///< wall clock of the simulation the service ran;
                           ///< 0 for hits, coalesced requests and unserved calls
};

/// Result of one simulation: metrics[0] = f0, metrics[1..m] = constraints.
/// The variant fields carry robustness provenance when the result is an
/// aggregate over a corner / Monte Carlo sweep (variation_sweep.hpp):
/// `variants_total` = 0 marks a plain single-point evaluation; `degraded`
/// marks an aggregate whose metrics were shaped by a partial-failure policy
/// (some variants failed but the sweep still produced a usable bound).
/// `call` is the per-call provenance (see CallProvenance).
struct EvalResult {
  Vec metrics;
  bool simulation_ok = true;
  bool degraded = false;              ///< partial-failure policy shaped the metrics
  std::uint32_t variants_failed = 0;  ///< failed variants
  std::uint32_t variants_total = 0;   ///< sweep width; 0 = single-point result
  CallProvenance call{};
};

/// Reusable single-threaded evaluator for one problem. Circuit problems back
/// this with persistent testbench netlists and solver workspaces, so that
/// evaluating many same-topology designs amortizes everything that is
/// design-independent (netlist construction, matrix/LU storage). Results
/// must be identical to the owning problem's evaluate_at() for the same
/// design and the variation the session was made for (make_session_at;
/// make_session() is the nominal one).
///
/// A session is NOT thread-safe — one session per worker thread.
///
/// Deadline contract: set_deadline() applies to later evaluate() calls. The
/// circuit and deck sessions hand it to the simulator, which stops at the
/// first Newton solve or transient step past it; a wrapping session forwards
/// it to its inner one; any other session runs to completion. A call that
/// ends after its deadline has an unspecified result and counts as timed out.
class EvalSession {
 public:
  virtual ~EvalSession() = default;
  virtual EvalResult evaluate(const Vec& x) = 0;

  void set_deadline(const Deadline& deadline) { deadline_ = deadline; }
  const Deadline& deadline() const { return deadline_; }

 private:
  Deadline deadline_;
};

class SizingProblem {
 public:
  virtual ~SizingProblem() = default;

  virtual const ProblemSpec& spec() const = 0;
  virtual std::size_t dim() const = 0;
  virtual const Vec& lower_bounds() const = 0;
  virtual const Vec& upper_bounds() const = 0;
  /// True for parameters constrained to integer values (device multipliers).
  virtual const std::vector<bool>& integer_mask() const = 0;
  virtual std::vector<std::string> parameter_names() const = 0;

  /// Simulates design x (assumed already within bounds; callers should pass
  /// through clip()) at the nominal process. Must be thread-safe:
  /// implementations build a fresh netlist per call.
  virtual EvalResult evaluate(const Vec& x) const = 0;

  /// Simulates design x under the variation `pv` — the thread-safe primitive
  /// corner sweeps and Monte Carlo yield estimation are built on. A problem
  /// holds no variation state: the variation is always an argument. The
  /// default runs check_variation(pv) and forwards to evaluate(): correct
  /// for variation-free problems at nominal, a ContractViolation when an
  /// enabled pv reaches a problem without variation support.
  virtual EvalResult evaluate_at(const Vec& x, const ProcessVariation& pv) const;

  /// Session pinned to one variation setting (the per-worker analog of
  /// evaluate_at). Default: check_variation(pv), then make_session() at
  /// nominal, else a session forwarding every call to evaluate_at(x, pv).
  virtual std::unique_ptr<EvalSession> make_session_at(const ProcessVariation& pv) const;

  /// Creates a reusable nominal evaluation session (see EvalSession). The
  /// default forwards every call to evaluate() — correct for analytic
  /// problems and for wrappers that add no per-call state of their own.
  virtual std::unique_ptr<EvalSession> make_session() const;

  /// Metrics reported when the simulator fails to converge: a maximally
  /// violating, finite vector so surrogate training stays well-posed.
  virtual Vec failure_metrics() const;

  std::size_t num_metrics() const { return 1 + spec().constraints.size(); }

  /// True when evaluate_at / make_session_at accept an enabled variation
  /// (the circuits' Monte Carlo mismatch and corner support).
  virtual bool supports_process_variation() const { return false; }

  /// Contract-checks `pv` for this problem: validate_process_variation(pv),
  /// and an enabled pv requires supports_process_variation(). Throws
  /// ContractViolation.
  void check_variation(const ProcessVariation& pv) const;

  /// Problems hold no variation state; pass the variation to evaluate_at /
  /// make_session_at. A nominal pv is a no-op, an enabled one a
  /// ContractViolation. Still declared only because the benchmark's
  /// TimedProblem (perfbench/cpp/timed_problem.hpp) overrides it; it goes
  /// when that override does.
  virtual void set_process_variation(const ProcessVariation& pv);

  /// Content fingerprint for data-defined problems: a stable hash of the
  /// problem's *semantic payload* beyond what spec()/bounds expose (e.g. the
  /// elaborated netlist of a deck-compiled problem). problem_fingerprint()
  /// (eval/result_cache) folds this in when nonzero, so two decks with the
  /// same spec but different circuits never share cache entries. The default
  /// 0 means "spec + bounds fully identify the problem" and leaves every
  /// existing fingerprint (and on-disk journal) unchanged. Decorators that
  /// wrap an inner problem must forward this.
  virtual std::uint64_t content_fingerprint() const { return 0; }

  /// Clamp to bounds and round integer-constrained parameters.
  Vec clip(Vec x) const;

  /// Uniform random design within bounds (integers rounded).
  Vec random_design(Rng& rng) const;

  /// True when all constraints in `metrics` are satisfied.
  bool feasible(const Vec& metrics) const;
};

/// A problem defined by one primitive, its variation-pinned session factory
/// open_session(pv). Everything else derives from it: make_session_at runs
/// check_variation(pv) and opens a session, make_session() is the nominal
/// session, and evaluate / evaluate_at run one call on a fresh session — so
/// a point call and a persistent session share one code path and agree bit
/// for bit. The simulator-backed problems (the circuits, deck::DeckProblem)
/// and the decorators that wrap an inner session derive from this.
class SessionProblem : public SizingProblem {
 public:
  EvalResult evaluate(const Vec& x) const final;
  EvalResult evaluate_at(const Vec& x, const ProcessVariation& pv) const final;
  std::unique_ptr<EvalSession> make_session() const final;
  std::unique_ptr<EvalSession> make_session_at(const ProcessVariation& pv) const final;

 protected:
  /// A new session simulating under `pv`, which check_variation has
  /// accepted. Must be thread-safe (concurrent calls each get their own).
  virtual std::unique_ptr<EvalSession> open_session(const ProcessVariation& pv) const = 0;
};

/// Signed normalized violation of constraint `k` (0 when satisfied):
/// GreaterEqual: max(0, (c - f)/|c|);  LessEqual: max(0, (f - c)/|c|).
double normalized_violation(const ConstraintSpec& c, double value);

}  // namespace maopt::ckt
