#include "circuits/process_variation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "circuits/analytic_problems.hpp"
#include "circuits/robust_problem.hpp"
#include "circuits/two_stage_ota.hpp"

namespace maopt::ckt {
namespace {

TEST(VaryModel, NominalWhenSigmasZero) {
  Rng rng(1);
  const auto nominal = spice::MosModel::nmos_180();
  const auto varied = vary_model(nominal, rng, ProcessVariation{});
  EXPECT_DOUBLE_EQ(varied.vth0, nominal.vth0);
  EXPECT_DOUBLE_EQ(varied.kp, nominal.kp);
}

TEST(VaryModel, PerturbsWithRequestedSpread) {
  Rng rng(2);
  const auto nominal = spice::MosModel::nmos_180();
  ProcessVariation pv;
  pv.sigma_vth = 0.02;
  pv.sigma_kp_rel = 0.10;
  double vth_var = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto m = vary_model(nominal, rng, pv);
    vth_var += std::pow(m.vth0 - nominal.vth0, 2);
    EXPECT_GT(m.kp, 0.0);
  }
  EXPECT_NEAR(std::sqrt(vth_var / n), 0.02, 0.002);
}

TEST(ProcessVariation, AnalyticProblemsIgnoreIt) {
  // A variation-unaware problem takes the nominal setting on every
  // variation-pinned entry point and answers exactly as evaluate() does.
  ConstrainedQuadratic p(3);
  EXPECT_FALSE(p.supports_process_variation());
  const Vec x{0.3, 0.3, 0.3};
  const auto nominal = p.evaluate(x);
  EXPECT_EQ(p.evaluate_at(x, ProcessVariation{}).metrics, nominal.metrics);
  EXPECT_EQ(p.make_session_at(ProcessVariation{})->evaluate(x).metrics, nominal.metrics);
}

TEST(ProcessVariation, OtaMetricsShiftUnderMismatch) {
  TwoStageOta p;
  EXPECT_TRUE(p.supports_process_variation());
  const Vec x = p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const auto nominal = p.evaluate(x);
  ASSERT_TRUE(nominal.simulation_ok);

  ProcessVariation pv;
  pv.sigma_vth = 0.02;
  pv.sigma_kp_rel = 0.05;
  pv.seed = 1;
  const auto varied = p.evaluate_at(x, pv);
  ASSERT_TRUE(varied.simulation_ok);
  // Mismatch must move at least the matching-sensitive metrics (CMRR).
  EXPECT_NE(nominal.metrics[TwoStageOta::kCmrrDb], varied.metrics[TwoStageOta::kCmrrDb]);

  // Same seed -> identical result; different seed -> different result.
  EXPECT_EQ(p.evaluate_at(x, pv).metrics, varied.metrics);
  pv.seed = 2;
  EXPECT_NE(p.evaluate_at(x, pv).metrics, varied.metrics);
  EXPECT_EQ(p.evaluate(x).metrics, nominal.metrics);
}

TEST(ProcessVariation, MismatchVisiblyMovesCmrr) {
  // In this topology the nominal common-mode gain is set by the finite tail
  // impedance (not by matching), so mismatch can move CMRR either way — but
  // it must move it measurably in essentially every instance.
  TwoStageOta p;
  const Vec x = p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const double nominal_cmrr = p.evaluate(x).metrics[TwoStageOta::kCmrrDb];
  int moved = 0;
  const int n = 6;
  for (int k = 0; k < n; ++k) {
    ProcessVariation pv;
    pv.sigma_vth = 0.01;
    pv.seed = static_cast<std::uint64_t>(k);
    const auto r = p.evaluate_at(x, pv);
    if (r.simulation_ok && std::abs(r.metrics[TwoStageOta::kCmrrDb] - nominal_cmrr) > 0.1) ++moved;
  }
  EXPECT_GE(moved, n - 1);
}

TEST(EstimateYield, CountsAndResetsToNominal) {
  TwoStageOta p;
  const Vec x = p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const auto nominal = p.evaluate(x);
  YieldConfig config;
  config.mismatch.sigma_vth = 0.01;
  config.mismatch.sigma_kp_rel = 0.03;
  config.mismatch.instances = 5;
  const YieldProblem yield(p, config);
  const EvalResult y = yield.evaluate(x);
  EXPECT_EQ(y.variants_total, 5u);
  EXPECT_LE(y.variants_failed, 5u);
  EXPECT_EQ(y.metrics.size(), p.num_metrics());
  const SweepStats stats = yield.stats();
  EXPECT_EQ(stats.sweeps, 1u);
  EXPECT_EQ(stats.variants_ok + stats.variants_failed, 5u);
  // The sweep passed every variation as an argument: the circuit is nominal.
  EXPECT_EQ(p.evaluate(x).metrics, nominal.metrics);
}

TEST(EstimateYield, ZeroSigmaYieldMatchesNominalFeasibility) {
  // Zero-sigma Monte Carlo instances are the nominal process whatever their
  // seed, so each one reproduces the nominal metrics and feasibility.
  TwoStageOta p;
  const Vec x = p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const auto nominal = p.evaluate(x);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    ProcessVariation pv;
    pv.seed = seed;
    const auto r = p.evaluate_at(x, pv);
    EXPECT_EQ(r.metrics, nominal.metrics) << "seed " << seed;
    EXPECT_EQ(p.feasible(r.metrics), p.feasible(nominal.metrics)) << "seed " << seed;
  }
}

TEST(ValidateProcessVariation, ContractChecks) {
  EXPECT_NO_THROW(validate_process_variation(ProcessVariation{}));

  ProcessVariation negative_sigma;
  negative_sigma.sigma_vth = -0.01;
  EXPECT_THROW(validate_process_variation(negative_sigma), std::invalid_argument);

  ProcessVariation nan_sigma;
  nan_sigma.sigma_kp_rel = std::nan("");
  EXPECT_THROW(validate_process_variation(nan_sigma), std::invalid_argument);

  ProcessVariation inf_shift;
  inf_shift.nmos_vth_shift = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate_process_variation(inf_shift), std::invalid_argument);

  ProcessVariation zero_kp;
  zero_kp.pmos_kp_factor = 0.0;
  EXPECT_THROW(validate_process_variation(zero_kp), std::invalid_argument);

  ProcessVariation negative_kp;
  negative_kp.nmos_kp_factor = -1.0;
  EXPECT_THROW(validate_process_variation(negative_kp), std::invalid_argument);
}

TEST(EvaluateAt, RejectsEnabledVariationOnUnawareProblem) {
  ConstrainedQuadratic p(3);
  ProcessVariation pv;
  pv.sigma_vth = 0.02;
  EXPECT_THROW(p.evaluate_at({0.3, 0.3, 0.3}, pv), std::invalid_argument);
  EXPECT_THROW(p.make_session_at(pv), std::invalid_argument);
  // Nominal pv is fine and matches evaluate().
  const Vec x{0.3, 0.3, 0.3};
  EXPECT_EQ(p.evaluate_at(x, ProcessVariation{}).metrics, p.evaluate(x).metrics);
}

TEST(EvaluateAt, DoesNotTouchAmbientVariationState) {
  TwoStageOta p;
  const Vec x = p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const auto nominal = p.evaluate(x);

  ProcessVariation pv;
  pv.sigma_vth = 0.02;
  pv.seed = 7;
  const auto varied = p.evaluate_at(x, pv);
  ASSERT_TRUE(varied.simulation_ok);
  EXPECT_NE(varied.metrics, nominal.metrics);
  // The variation was an argument, not state: evaluate() and a fresh
  // nominal session still report nominal.
  EXPECT_EQ(p.evaluate(x).metrics, nominal.metrics);
  EXPECT_EQ(p.make_session()->evaluate(x).metrics, nominal.metrics);
}

TEST(EvaluateAt, SessionPinnedToVariationMatchesEvaluateAt) {
  TwoStageOta p;
  const Vec x = p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  ProcessVariation pv;
  pv.sigma_vth = 0.015;
  pv.seed = 3;
  const auto direct = p.evaluate_at(x, pv);
  auto session = p.make_session_at(pv);
  EXPECT_EQ(session->evaluate(x).metrics, direct.metrics);
  EXPECT_EQ(session->evaluate(x).metrics, direct.metrics);  // reusable
}

}  // namespace
}  // namespace maopt::ckt
