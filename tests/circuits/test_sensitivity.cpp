#include "circuits/sensitivity.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/analytic_problems.hpp"
#include "circuits/two_stage_ota.hpp"

namespace maopt::ckt {
namespace {

TEST(Sensitivity, MatchesAnalyticGradientOfQuadratic) {
  // f0 = sum (x_i - 0.3)^2: df0/dx_j = 2(x_j - 0.3); mean metric: 1/d; x0: e0.
  ConstrainedQuadratic p(4);
  const Vec x{0.5, 0.1, 0.7, 0.3};
  const auto s = sensitivity_analysis(p, x, 1e-4);
  ASSERT_TRUE(s.ok);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(s.jacobian(0, j), 2.0 * (x[j] - 0.3), 1e-5) << j;
    EXPECT_NEAR(s.jacobian(1, j), 0.25, 1e-9) << j;  // mean
    EXPECT_NEAR(s.jacobian(2, j), j == 0 ? 1.0 : 0.0, 1e-9) << j;
  }
}

TEST(Sensitivity, ShapesMatchProblem) {
  ConstrainedQuadratic p(3);
  const auto s = sensitivity_analysis(p, {0.4, 0.4, 0.4});
  EXPECT_EQ(s.jacobian.rows(), p.num_metrics());
  EXPECT_EQ(s.jacobian.cols(), p.dim());
  EXPECT_EQ(s.base_metrics.size(), p.num_metrics());
}

TEST(Sensitivity, OneSidedAtBoxEdge) {
  ConstrainedQuadratic p(2);
  // x0 at the lower bound: probe must stay inside and still give a gradient.
  const auto s = sensitivity_analysis(p, {0.0, 0.5}, 0.01);
  ASSERT_TRUE(s.ok);
  EXPECT_NEAR(s.jacobian(0, 0), 2.0 * (0.0 - 0.3), 0.05);
}

TEST(Sensitivity, IntegerParametersUseUnitStep) {
  ConstrainedRosenbrock p(3);  // last param integer
  const auto s = sensitivity_analysis(p, {1.0, 1.0, 1.0}, 0.01);
  ASSERT_TRUE(s.ok);
  // Finite and well-defined despite rounding.
  EXPECT_TRUE(std::isfinite(s.jacobian(0, 2)));
}

TEST(Sensitivity, OtaPowerRespondsToTailMultiplier) {
  // N1 scales the tail current: power sensitivity to N1 must be positive and
  // among the strongest integer knobs for power.
  TwoStageOta p;
  const Vec x = p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const auto s = sensitivity_analysis(p, x, 0.02);
  ASSERT_TRUE(s.ok);
  EXPECT_GT(s.jacobian(TwoStageOta::kPowerMw, 13), 0.0);  // dPower/dN1 > 0
}

TEST(Sensitivity, FormatTableListsAllMetricsAndParams) {
  ConstrainedQuadratic p(3);
  const auto s = sensitivity_analysis(p, {0.4, 0.4, 0.4});
  const std::string table = format_sensitivity_table(p, s);
  EXPECT_NE(table.find("sq_error"), std::string::npos);
  EXPECT_NE(table.find("x2"), std::string::npos);
  EXPECT_NE(table.find('*'), std::string::npos);
}

}  // namespace
}  // namespace maopt::ckt
