#include <gtest/gtest.h>

#include <vector>

#include "circuits/process_variation.hpp"
#include "circuits/two_stage_ota.hpp"

namespace maopt::ckt {
namespace {

/// `x` at the five corners, in enum order, through evaluate_at.
std::vector<EvalResult> at_every_corner(const SizingProblem& problem, const linalg::Vec& x) {
  std::vector<EvalResult> results;
  for (const auto corner : {ProcessCorner::TT, ProcessCorner::FF, ProcessCorner::SS,
                            ProcessCorner::FS, ProcessCorner::SF})
    results.push_back(problem.evaluate_at(x, corner_variation(corner)));
  return results;
}

TEST(Corners, NamesAndTtIsNominal) {
  EXPECT_STREQ(corner_name(ProcessCorner::TT), "TT");
  EXPECT_STREQ(corner_name(ProcessCorner::FF), "FF");
  EXPECT_STREQ(corner_name(ProcessCorner::SF), "SF");
  EXPECT_FALSE(corner_variation(ProcessCorner::TT).enabled());
  EXPECT_TRUE(corner_variation(ProcessCorner::FF).enabled());
}

TEST(Corners, ShiftDirectionsPerType) {
  const auto ff = corner_variation(ProcessCorner::FF, 0.03, 0.10);
  EXPECT_DOUBLE_EQ(ff.nmos_vth_shift, -0.03);
  EXPECT_DOUBLE_EQ(ff.pmos_vth_shift, -0.03);
  EXPECT_DOUBLE_EQ(ff.nmos_kp_factor, 1.10);
  const auto fs = corner_variation(ProcessCorner::FS, 0.03, 0.10);
  EXPECT_DOUBLE_EQ(fs.nmos_vth_shift, -0.03);
  EXPECT_DOUBLE_EQ(fs.pmos_vth_shift, 0.03);
  EXPECT_DOUBLE_EQ(fs.pmos_kp_factor, 0.90);
}

TEST(Corners, VaryModelAppliesTypeSpecificShift) {
  Rng rng(1);
  const auto pv = corner_variation(ProcessCorner::SF);  // slow N, fast P
  const auto n = vary_model(spice::MosModel::nmos_180(), rng, pv);
  const auto p = vary_model(spice::MosModel::pmos_180(), rng, pv);
  EXPECT_GT(n.vth0, spice::MosModel::nmos_180().vth0);
  EXPECT_LT(n.kp, spice::MosModel::nmos_180().kp);
  EXPECT_LT(p.vth0, spice::MosModel::pmos_180().vth0);
  EXPECT_GT(p.kp, spice::MosModel::pmos_180().kp);
}

TEST(Corners, OtaPowerOrdersWithCornerSpeed) {
  // Faster devices at fixed bias geometry draw more current: FF power must
  // exceed SS power, with TT in between.
  TwoStageOta p;
  const linalg::Vec x =
      p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const auto results = at_every_corner(p, x);
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) ASSERT_TRUE(r.simulation_ok);
  const double tt = results[0].metrics[TwoStageOta::kPowerMw];
  const double ff = results[1].metrics[TwoStageOta::kPowerMw];
  const double ss = results[2].metrics[TwoStageOta::kPowerMw];
  EXPECT_GT(ff, tt);
  EXPECT_LT(ss, tt);
}

TEST(Corners, EvaluationResetsToNominal) {
  TwoStageOta p;
  const linalg::Vec x =
      p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const auto nominal = p.evaluate(x);
  at_every_corner(p, x);
  EXPECT_EQ(p.evaluate(x).metrics, nominal.metrics);
}

TEST(Corners, TtCornerMatchesNominalEvaluation) {
  TwoStageOta p;
  const linalg::Vec x =
      p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const auto nominal = p.evaluate(x);
  const auto results = at_every_corner(p, x);
  EXPECT_EQ(results[0].metrics, nominal.metrics);
}

}  // namespace
}  // namespace maopt::ckt
