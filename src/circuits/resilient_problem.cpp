#include "circuits/resilient_problem.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace maopt::ckt {

namespace {

/// Deterministic 64-bit hash of a design vector's bit pattern: fault and
/// jitter decisions depend on (seed, x), never on call order, so they
/// survive threading and checkpoint/resume replay.
std::uint64_t hash_design(const Vec& x) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const double v : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h ^= bits + 0x9E3779B97F4A7C15ULL + (h << 6U) + (h >> 2U);
  }
  return h;
}

bool all_plausible(const Vec& v, double max_magnitude) {
  for (const double m : v)
    if (!std::isfinite(m) || std::abs(m) > max_magnitude) return false;
  return true;
}

}  // namespace

std::string FailureStats::report() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%llu evals, %llu failed (%llu timeout, %llu non-convergence, "
                "%llu non-finite, %llu exception), %llu retries",
                static_cast<unsigned long long>(evaluations),
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(by_kind[0]),
                static_cast<unsigned long long>(by_kind[1]),
                static_cast<unsigned long long>(by_kind[2]),
                static_cast<unsigned long long>(by_kind[3]),
                static_cast<unsigned long long>(retries));
  return buf;
}

ResilientEvaluator::ResilientEvaluator(const SizingProblem& inner, ResilientConfig config)
    : inner_(&inner), config_(config) {
  MAOPT_CHECK(config_.max_retries >= 0, "ResilientEvaluator: max_retries must be >= 0");
  MAOPT_CHECK(config_.retry_jitter_frac >= 0.0,
              "ResilientEvaluator: retry_jitter_frac must be >= 0");
  MAOPT_CHECK(config_.max_metric_magnitude > 0.0,
              "ResilientEvaluator: max_metric_magnitude must be > 0");
}

EvalResult ResilientEvaluator::evaluate_at(const Vec& x, const ProcessVariation& pv) const {
  const std::unique_ptr<EvalSession> session = inner_->make_session_at(pv);
  return evaluate_with(x, *session, Deadline{});
}

EvalResult ResilientEvaluator::evaluate_with(const Vec& x, EvalSession& session,
                                             const Deadline& outer) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  const Vec& lo = lower_bounds();
  const Vec& hi = upper_bounds();

  CallProvenance call;
  const int attempts_allowed = 1 + config_.max_retries;
  Vec attempt_x = x;
  for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      ++call.retries;
      // Deterministic jittered restart: a tiny perturbation often steps a
      // solver off a singular Jacobian, like re-seeding the operating point.
      Rng jitter(derive_seed(config_.seed,
                             hash_design(x) ^ static_cast<std::uint64_t>(attempt)));
      attempt_x = x;
      for (std::size_t j = 0; j < attempt_x.size(); ++j)
        attempt_x[j] += config_.retry_jitter_frac * (hi[j] - lo[j]) * jitter.normal();
      attempt_x = clip(std::move(attempt_x));
    }
    attempts_.fetch_add(1, std::memory_order_relaxed);
    const Deadline deadline = config_.deadline_seconds > 0.0
                                  ? outer.min(Deadline::after(config_.deadline_seconds))
                                  : outer;
    session.set_deadline(deadline);
    EvalResult result;
    bool threw = false;
    try {
      result = session.evaluate(attempt_x);
    } catch (...) {
      threw = true;
    }
    FailureKind kind;
    if (deadline.expired()) {
      kind = FailureKind::Timeout;  // whatever the attempt returned, it came too late
    } else if (threw) {
      kind = FailureKind::Exception;
    } else if (!result.simulation_ok) {
      kind = FailureKind::NonConvergence;
    } else if (result.metrics.size() != num_metrics() ||
               !all_plausible(result.metrics, config_.max_metric_magnitude)) {
      kind = FailureKind::NonFinite;
    } else {
      result.call = call;
      return result;
    }
    call.last_failure = kind;
    by_kind_[static_cast<std::size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
  }

  failures_.fetch_add(1, std::memory_order_relaxed);
  call.failed = true;
  EvalResult fail;
  fail.metrics = inner_->failure_metrics();
  fail.simulation_ok = false;
  fail.call = call;
  return fail;
}

/// Persistent session: holds the inner problem's session and routes every
/// attempt through it, keeping the full retry/classification pipeline.
class ResilientEvaluator::Session final : public EvalSession {
 public:
  Session(const ResilientEvaluator& outer, std::unique_ptr<EvalSession> inner)
      : outer_(&outer), inner_(std::move(inner)) {}

  EvalResult evaluate(const Vec& x) override {
    return outer_->evaluate_with(x, *inner_, deadline());
  }

 private:
  const ResilientEvaluator* outer_;
  std::unique_ptr<EvalSession> inner_;
};

std::unique_ptr<EvalSession> ResilientEvaluator::make_session() const {
  return std::make_unique<Session>(*this, inner_->make_session());
}

std::unique_ptr<EvalSession> ResilientEvaluator::make_session_at(const ProcessVariation& pv) const {
  return std::make_unique<Session>(*this, inner_->make_session_at(pv));
}

FailureStats ResilientEvaluator::stats() const {
  FailureStats s;
  s.evaluations = evaluations_.load(std::memory_order_relaxed);
  s.attempts = attempts_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.failures = failures_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < kNumFailureKinds; ++k)
    s.by_kind[k] = by_kind_[k].load(std::memory_order_relaxed);
  return s;
}

FaultInjectionConfig FaultInjectionConfig::mixed(double total_rate, std::uint64_t seed,
                                                 double hang_seconds) {
  FaultInjectionConfig c;
  c.throw_rate = c.hang_rate = c.nan_rate = c.garbage_rate = total_rate / 4.0;
  c.seed = seed;
  c.hang_seconds = hang_seconds;
  return c;
}

FaultInjectingProblem::FaultInjectingProblem(const SizingProblem& inner,
                                             FaultInjectionConfig config)
    : inner_(&inner), config_(config) {
  MAOPT_CHECK(config_.throw_rate >= 0 && config_.hang_rate >= 0 && config_.nan_rate >= 0 &&
                  config_.garbage_rate >= 0,
              "FaultInjectingProblem: rates must be >= 0");
  MAOPT_CHECK(config_.throw_rate + config_.hang_rate + config_.nan_rate + config_.garbage_rate <=
                  1.0 + 1e-12,
              "FaultInjectingProblem: rates must sum to <= 1");
}

/// Draws each design's fault from (seed, x, pv) and answers the designs it
/// does not fail outright through the inner problem's session.
class FaultInjectingProblem::Session final : public EvalSession {
 public:
  Session(const FaultInjectingProblem& outer, std::unique_ptr<EvalSession> inner,
          const ProcessVariation& pv)
      : outer_(&outer), inner_(std::move(inner)), pv_(pv) {}

  EvalResult evaluate(const Vec& x) override {
    const FaultInjectionConfig& config = outer_->config_;
    // Fold the variation into the fault hash only when it is enabled, so the
    // nominal fault decision for a design stays bit-identical to evaluate()
    // regardless of which entry point the caller used.
    std::uint64_t h = hash_design(x);
    if (pv_.enabled()) {
      auto mix = [&h](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h ^= bits + 0x9E3779B97F4A7C15ULL + (h << 6U) + (h >> 2U);
      };
      mix(pv_.sigma_vth);
      mix(pv_.sigma_kp_rel);
      mix(static_cast<double>(pv_.seed));
      mix(pv_.nmos_vth_shift);
      mix(pv_.pmos_vth_shift);
      mix(pv_.nmos_kp_factor);
      mix(pv_.pmos_kp_factor);
    }
    Rng rng(derive_seed(config.seed, h));
    double u = rng.uniform();

    if ((u -= config.throw_rate) < 0.0) {
      outer_->injected_.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("injected fault: Newton iteration diverged");
    }
    if ((u -= config.hang_rate) < 0.0) {
      outer_->injected_.fetch_add(1, std::memory_order_relaxed);
      // A hung simulator that still honours the caller's deadline.
      std::this_thread::sleep_until(Deadline::after(config.hang_seconds).min(deadline()).at());
    } else if ((u -= config.nan_rate) < 0.0) {
      outer_->injected_.fetch_add(1, std::memory_order_relaxed);
      EvalResult r;
      r.metrics.assign(outer_->num_metrics(), std::numeric_limits<double>::quiet_NaN());
      r.simulation_ok = true;  // the dangerous case: failure not flagged
      return r;
    } else if ((u -= config.garbage_rate) < 0.0) {
      outer_->injected_.fetch_add(1, std::memory_order_relaxed);
      EvalResult r;
      r.metrics.resize(outer_->num_metrics());
      for (auto& m : r.metrics) m = (rng.uniform() < 0.5 ? -1.0 : 1.0) * 1e12 * rng.uniform();
      r.simulation_ok = true;
      return r;
    }
    inner_->set_deadline(deadline());
    return inner_->evaluate(x);
  }

 private:
  const FaultInjectingProblem* outer_;
  std::unique_ptr<EvalSession> inner_;
  ProcessVariation pv_;
};

EvalResult FaultInjectingProblem::evaluate_at(const Vec& x, const ProcessVariation& pv) const {
  return Session(*this, inner_->make_session_at(pv), pv).evaluate(x);
}

std::unique_ptr<EvalSession> FaultInjectingProblem::make_session_at(
    const ProcessVariation& pv) const {
  return std::make_unique<Session>(*this, inner_->make_session_at(pv), pv);
}

}  // namespace maopt::ckt
