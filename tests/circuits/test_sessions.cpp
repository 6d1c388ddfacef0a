// Session-identity regression: a persistent EvalSession must return results
// identical to the owning problem's evaluate() — for every circuit, across
// repeated designs, regardless of what the previous design left behind in
// the reused testbench (swept DC levels, transient waveforms, AC magnitudes).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "circuits/analytic_problems.hpp"
#include "circuits/folded_cascode_ota.hpp"
#include "circuits/ldo_regulator.hpp"
#include "circuits/resilient_problem.hpp"
#include "circuits/sizing_problem.hpp"
#include "circuits/three_stage_tia.hpp"
#include "circuits/two_stage_ota.hpp"
#include "common/rng.hpp"

namespace maopt::ckt {
namespace {

void expect_identical(const EvalResult& got, const EvalResult& want, const char* context) {
  EXPECT_EQ(got.simulation_ok, want.simulation_ok) << context;
  ASSERT_EQ(got.metrics.size(), want.metrics.size()) << context;
  for (std::size_t i = 0; i < want.metrics.size(); ++i)
    EXPECT_EQ(got.metrics[i], want.metrics[i]) << context << " metric " << i;
}

/// Sessions reuse benches across designs; evaluate() builds fresh ones. The
/// A, B, A' sequence (with A' == A) catches any state the second design
/// leaks into the third evaluation.
void check_session_identity(const SizingProblem& problem, std::uint64_t seed) {
  Rng rng(seed);
  const Vec a = problem.random_design(rng);
  const Vec b = problem.random_design(rng);

  const EvalResult ref_a = problem.evaluate(a);
  const EvalResult ref_b = problem.evaluate(b);

  const auto session = problem.make_session();
  ASSERT_NE(session, nullptr);
  expect_identical(session->evaluate(a), ref_a, "first design");
  expect_identical(session->evaluate(b), ref_b, "second design (reused bench)");
  expect_identical(session->evaluate(a), ref_a, "first design again (after reuse)");
}

TEST(EvalSessionTest, TwoStageOtaSessionMatchesEvaluate) {
  check_session_identity(TwoStageOta{}, 41);
}

TEST(EvalSessionTest, FoldedCascodeSessionMatchesEvaluate) {
  check_session_identity(FoldedCascodeOta{}, 42);
}

TEST(EvalSessionTest, ThreeStageTiaSessionMatchesEvaluate) {
  check_session_identity(ThreeStageTia{}, 43);
}

TEST(EvalSessionTest, LdoRegulatorSessionMatchesEvaluate) {
  check_session_identity(LdoRegulator{}, 44);
}

TEST(EvalSessionTest, SessionSnapshotsProcessVariation) {
  TwoStageOta ota;
  ProcessVariation pv;
  pv.sigma_vth = 5e-3;
  pv.seed = 7;
  ota.set_process_variation(pv);
  check_session_identity(ota, 45);
}

TEST(EvalSessionTest, DefaultSessionForwardsForAnalyticProblems) {
  ConstrainedQuadratic quad(3);
  Rng rng(1);
  const Vec x = quad.random_design(rng);
  const auto session = quad.make_session();
  ASSERT_NE(session, nullptr);
  expect_identical(session->evaluate(x), quad.evaluate(x), "analytic");
}

TEST(EvalSessionTest, ResilientInlineSessionMatchesEvaluate) {
  TwoStageOta ota;
  ResilientConfig config;
  config.deadline_seconds = 0.0;  // inline attempts: inner session is reused
  ResilientEvaluator resilient(ota, config);
  check_session_identity(resilient, 46);
}

/// Forwards to an inner problem and counts the sessions it hands out.
class SessionCounter final : public SizingProblem {
 public:
  explicit SessionCounter(const SizingProblem& inner) : inner_(&inner) {}

  const ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  EvalResult evaluate(const Vec& x) const override { return inner_->evaluate(x); }
  std::unique_ptr<EvalSession> make_session() const override {
    ++sessions_;
    return inner_->make_session();
  }

  int sessions() const { return sessions_; }

 private:
  const SizingProblem* inner_;
  mutable int sessions_ = 0;
};

TEST(EvalSessionTest, ResilientWithDeadlineReusesInnerSession) {
  TwoStageOta ota;
  const SessionCounter counted(ota);
  ResilientConfig config;
  config.deadline_seconds = 30.0;  // deadline-guarded attempts run on the session too
  const ResilientEvaluator resilient(counted, config);
  Rng rng(47);
  const Vec a = resilient.random_design(rng);
  const Vec b = resilient.random_design(rng);

  const EvalResult ref_a = resilient.evaluate(a);  // on a session of its own
  ASSERT_EQ(counted.sessions(), 1);

  const auto session = resilient.make_session();
  ASSERT_NE(session, nullptr);
  expect_identical(session->evaluate(a), ref_a, "first design");
  expect_identical(session->evaluate(b), ota.evaluate(b), "second design (reused bench)");
  expect_identical(session->evaluate(a), ref_a, "first design again (after reuse)");
  EXPECT_EQ(counted.sessions(), 2);  // all three designs ran on the one inner session
}

}  // namespace
}  // namespace maopt::ckt
