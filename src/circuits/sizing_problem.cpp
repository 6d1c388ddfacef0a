#include "circuits/sizing_problem.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace maopt::ckt {

namespace {

/// Default session: no reusable state, every call is a plain evaluate().
class ForwardingSession final : public EvalSession {
 public:
  explicit ForwardingSession(const SizingProblem& problem) : problem_(&problem) {}
  EvalResult evaluate(const Vec& x) override { return problem_->evaluate(x); }

 private:
  const SizingProblem* problem_;
};

/// Default variation-pinned session: forwards to evaluate_at(x, pv).
class VariedForwardingSession final : public EvalSession {
 public:
  VariedForwardingSession(const SizingProblem& problem, ProcessVariation pv)
      : problem_(&problem), pv_(pv) {}
  EvalResult evaluate(const Vec& x) override { return problem_->evaluate_at(x, pv_); }

 private:
  const SizingProblem* problem_;
  ProcessVariation pv_;
};

}  // namespace

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::Timeout: return "timeout";
    case FailureKind::NonConvergence: return "non-convergence";
    case FailureKind::NonFinite: return "non-finite";
    case FailureKind::Exception: return "exception";
  }
  return "unknown";
}

void validate_process_variation(const ProcessVariation& pv) {
  MAOPT_CHECK(std::isfinite(pv.sigma_vth) && pv.sigma_vth >= 0.0,
              "ProcessVariation: sigma_vth must be finite and >= 0");
  MAOPT_CHECK(std::isfinite(pv.sigma_kp_rel) && pv.sigma_kp_rel >= 0.0,
              "ProcessVariation: sigma_kp_rel must be finite and >= 0");
  MAOPT_CHECK(std::isfinite(pv.nmos_vth_shift) && std::isfinite(pv.pmos_vth_shift),
              "ProcessVariation: vth shifts must be finite");
  MAOPT_CHECK(std::isfinite(pv.nmos_kp_factor) && pv.nmos_kp_factor > 0.0,
              "ProcessVariation: nmos_kp_factor must be finite and > 0");
  MAOPT_CHECK(std::isfinite(pv.pmos_kp_factor) && pv.pmos_kp_factor > 0.0,
              "ProcessVariation: pmos_kp_factor must be finite and > 0");
}

void SizingProblem::check_variation(const ProcessVariation& pv) const {
  validate_process_variation(pv);
  MAOPT_CHECK(!pv.enabled() || supports_process_variation(),
              "enabled process variation on a problem without variation support");
}

void SizingProblem::set_process_variation(const ProcessVariation& pv) {
  MAOPT_CHECK(!pv.enabled(),
              "set_process_variation: problems hold no variation state; pass the variation "
              "to evaluate_at or make_session_at");
}

std::unique_ptr<EvalSession> SizingProblem::make_session() const {
  return std::make_unique<ForwardingSession>(*this);
}

EvalResult SizingProblem::evaluate_at(const Vec& x, const ProcessVariation& pv) const {
  check_variation(pv);
  return evaluate(x);
}

std::unique_ptr<EvalSession> SizingProblem::make_session_at(const ProcessVariation& pv) const {
  check_variation(pv);
  if (!pv.enabled()) return make_session();
  return std::make_unique<VariedForwardingSession>(*this, pv);
}

EvalResult SessionProblem::evaluate(const Vec& x) const {
  return open_session(ProcessVariation{})->evaluate(x);
}

EvalResult SessionProblem::evaluate_at(const Vec& x, const ProcessVariation& pv) const {
  return make_session_at(pv)->evaluate(x);
}

std::unique_ptr<EvalSession> SessionProblem::make_session() const {
  return open_session(ProcessVariation{});
}

std::unique_ptr<EvalSession> SessionProblem::make_session_at(const ProcessVariation& pv) const {
  check_variation(pv);
  return open_session(pv);
}

double normalized_violation(const ConstraintSpec& c, double value) {
  const double denom = std::max(std::abs(c.bound), 1e-30);
  if (c.kind == ConstraintKind::GreaterEqual) return std::max(0.0, (c.bound - value) / denom);
  return std::max(0.0, (value - c.bound) / denom);
}

Vec SizingProblem::failure_metrics() const {
  // One full normalized violation per constraint; the target metric gets a
  // large-but-finite sentinel scaled later by the FoM's f0 reference.
  Vec f(num_metrics());
  f[0] = 1e3;
  const auto& cs = spec().constraints;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const double off = std::abs(cs[i].bound) > 0 ? std::abs(cs[i].bound) : 1.0;
    f[i + 1] = cs[i].kind == ConstraintKind::GreaterEqual ? cs[i].bound - off : cs[i].bound + off;
  }
  return f;
}

Vec SizingProblem::clip(Vec x) const {
  const Vec& lo = lower_bounds();
  const Vec& hi = upper_bounds();
  const auto& integers = integer_mask();
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lo[i], hi[i]);
    if (integers[i]) x[i] = std::clamp(std::round(x[i]), lo[i], hi[i]);
  }
  return x;
}

Vec SizingProblem::random_design(Rng& rng) const {
  const Vec& lo = lower_bounds();
  const Vec& hi = upper_bounds();
  Vec x(dim());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(lo[i], hi[i]);
  return clip(std::move(x));
}

bool SizingProblem::feasible(const Vec& metrics) const {
  const auto& cs = spec().constraints;
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (normalized_violation(cs[i], metrics[i + 1]) > 0.0) return false;
  return true;
}

}  // namespace maopt::ckt
