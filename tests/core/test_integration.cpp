// End-to-end integration: the full MA-Opt pipeline driving the real SPICE
// testbenches (reduced network sizes and budgets keep this in CI time).
#include <gtest/gtest.h>

#include "circuits/three_stage_tia.hpp"
#include "circuits/two_stage_ota.hpp"
#include "core/ma_optimizer.hpp"

namespace maopt::core {
namespace {

MaOptConfig small_config(MaOptConfig base) {
  base.critic.hidden = {32, 32};
  base.critic.steps_per_round = 15;
  base.actor.hidden = {24, 24};
  base.actor.steps_per_round = 8;
  base.near_sampling.num_samples = 200;
  return base;
}

TEST(Integration, MaOptOnTwoStageOtaImprovesFom) {
  ckt::TwoStageOta problem;
  Rng rng(1);
  auto init = sample_initial_set(problem, 15, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : init) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(problem, rows);

  auto annotated = init;
  annotate_foms(annotated, problem, fom);
  double init_best = 1e300;
  for (const auto& r : annotated) init_best = std::min(init_best, r.fom);

  MaOptimizer opt(small_config(MaOptConfig::ma_opt()));
  const RunHistory h = opt.run(problem, init, fom, {.seed = 1, .simulation_budget = 12});
  EXPECT_EQ(h.simulations_used(), 12u);
  EXPECT_LE(h.best_fom_after.back(), init_best);
  // Every proposed design simulated successfully (the testbench is robust).
  int sim_ok = 0;
  for (std::size_t i = h.num_initial; i < h.records.size(); ++i)
    sim_ok += h.records[i].simulation_ok ? 1 : 0;
  EXPECT_GE(sim_ok, 10);
}

TEST(Integration, DnnOptOnTiaRunsDeterministically) {
  ckt::ThreeStageTia problem;
  Rng rng(2);
  auto init = sample_initial_set(problem, 12, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : init) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(problem, rows);

  MaOptimizer a(small_config(MaOptConfig::dnn_opt()));
  MaOptimizer b(small_config(MaOptConfig::dnn_opt()));
  const RunHistory ha = a.run(problem, init, fom, {.seed = 5, .simulation_budget = 8});
  const RunHistory hb = b.run(problem, init, fom, {.seed = 5, .simulation_budget = 8});
  ASSERT_EQ(ha.records.size(), hb.records.size());
  for (std::size_t i = 0; i < ha.records.size(); ++i) {
    EXPECT_EQ(ha.records[i].x, hb.records[i].x);
    EXPECT_EQ(ha.records[i].metrics, hb.records[i].metrics);
  }
}

// The critic trains on a team of the run's pool and the actor lanes run on
// the same pool, so the thread count must not move a single bit of the
// trajectory: every design, metric and FoM (near-sampling iterations
// included) is compared exactly.
TEST(Integration, MaOptOnTwoStageOtaIsIdenticalForEveryThreadCount) {
  ckt::TwoStageOta problem;
  Rng rng(3);
  const auto init = sample_initial_set(problem, 15, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : init) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(problem, rows);

  std::vector<RunHistory> runs;
  for (const std::size_t threads : {1, 3, 5}) {
    MaOptConfig config = small_config(MaOptConfig::ma_opt());
    config.num_threads = threads;
    MaOptimizer opt(config);
    runs.push_back(opt.run(problem, init, fom, {.seed = 4, .simulation_budget = 15}));
  }
  for (std::size_t k = 1; k < runs.size(); ++k) {
    ASSERT_EQ(runs[k].records.size(), runs[0].records.size());
    for (std::size_t i = 0; i < runs[0].records.size(); ++i) {
      EXPECT_EQ(runs[k].records[i].x, runs[0].records[i].x) << "run " << k << ", record " << i;
      EXPECT_EQ(runs[k].records[i].metrics, runs[0].records[i].metrics) << "record " << i;
      EXPECT_EQ(runs[k].records[i].fom, runs[0].records[i].fom) << "record " << i;
    }
    EXPECT_EQ(runs[k].best_fom_after, runs[0].best_fom_after) << "run " << k;
  }
}

}  // namespace
}  // namespace maopt::core
