// End-to-end fault tolerance: optimizers driven over FaultInjectingProblem
// must complete their budget without crashing, keep NaN out of elite sets /
// trajectories, trip the circuit breaker on persistent failure, and resume
// from a checkpoint to the exact uninterrupted trajectory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "circuits/analytic_problems.hpp"
#include "circuits/resilient_problem.hpp"
#include "core/ma_optimizer.hpp"
#include "gp/bo_optimizer.hpp"

namespace maopt::core {
namespace {

MaOptConfig small_config(MaOptConfig base) {
  base.critic.hidden = {32, 32};
  base.critic.steps_per_round = 20;
  base.actor.hidden = {24, 24};
  base.actor.steps_per_round = 10;
  base.near_sampling.num_samples = 200;
  return base;
}

struct FaultFixture : ::testing::Test {
  FaultFixture() : problem(4) {
    Rng rng(1);
    initial = sample_initial_set(problem, 25, rng);
    std::vector<linalg::Vec> rows;
    for (const auto& r : initial) rows.push_back(r.metrics);
    fom = std::make_unique<ckt::FomEvaluator>(ckt::FomEvaluator::fit_reference(problem, rows));
  }

  void assert_history_clean(const RunHistory& h, std::size_t budget) const {
    EXPECT_EQ(h.simulations_used(), budget);
    EXPECT_EQ(h.best_fom_after.size(), budget);
    for (const auto& r : h.records) {
      EXPECT_TRUE(std::isfinite(r.fom));
      for (const double m : r.metrics) EXPECT_TRUE(std::isfinite(m));
      if (!r.simulation_ok) {
        EXPECT_FALSE(r.feasible);
      }
    }
    for (std::size_t i = 1; i < h.best_fom_after.size(); ++i)
      EXPECT_LE(h.best_fom_after[i], h.best_fom_after[i - 1]);
    const SimRecord* best = h.best();
    if (best != nullptr) {
      EXPECT_TRUE(best->simulation_ok);
    }
  }

  ckt::ConstrainedQuadratic problem;
  std::vector<SimRecord> initial;
  std::unique_ptr<ckt::FomEvaluator> fom;
};

TEST_F(FaultFixture, MaOptSurvivesFaultRateSweep) {
  for (const double rate : {0.0, 0.1, 0.5}) {
    const ckt::FaultInjectingProblem faulty(
        problem, ckt::FaultInjectionConfig::mixed(rate, 21, /*hang_seconds=*/0.002));
    for (const auto& cfg : {MaOptConfig::dnn_opt(), MaOptConfig::ma_opt()}) {
      MaOptimizer opt(small_config(cfg));
      RunHistory h;
      ASSERT_NO_THROW(h = opt.run(faulty, initial, *fom, {.seed = 5, .simulation_budget = 20}))
          << cfg.name << " rate " << rate;
      assert_history_clean(h, 20);
      EXPECT_FALSE(h.aborted);
    }
  }
}

TEST_F(FaultFixture, MaOptAcceptanceRunAtTwentyFivePercent) {
  // The ISSUE acceptance scenario: 25% mixed faults (throws, hangs past a
  // deadline, NaN metrics, garbage), full budget, no crash, clean history.
  const ckt::FaultInjectingProblem faulty(
      problem, ckt::FaultInjectionConfig::mixed(0.25, 33, /*hang_seconds=*/0.02));
  ckt::ResilientConfig rcfg;
  rcfg.deadline_seconds = 0.005;  // hangs become timeouts
  rcfg.max_retries = 1;
  const ckt::ResilientEvaluator resilient(faulty, rcfg);

  MaOptimizer opt(small_config(MaOptConfig::ma_opt()));
  RunHistory h;
  ASSERT_NO_THROW(h = opt.run(resilient, initial, *fom, {.seed = 9, .simulation_budget = 30}));
  assert_history_clean(h, 30);
  EXPECT_FALSE(h.aborted);
  EXPECT_GT(faulty.injected(), 0u);
  const ckt::FailureStats stats = resilient.stats();
  EXPECT_GT(stats.failures + stats.retries, 0u);
}

TEST_F(FaultFixture, FailedRecordsStayOutOfTrajectoryAndBest) {
  ckt::FaultInjectionConfig fcfg;
  fcfg.nan_rate = 0.5;
  fcfg.seed = 77;
  const ckt::FaultInjectingProblem faulty(problem, fcfg);
  MaOptimizer opt(small_config(MaOptConfig::ma_opt2()));
  const RunHistory h = opt.run(faulty, initial, *fom, {.seed = 6, .simulation_budget = 25});
  assert_history_clean(h, 25);
  ASSERT_GT(h.failures(), 0u);  // the 50% NaN rate must have hit something
  // Every failed record carries the same finite penalty FoM and is skipped
  // by best(): the best record must be a genuinely clean simulation.
  const SimRecord* best = h.best();
  ASSERT_NE(best, nullptr);
  EXPECT_TRUE(best->simulation_ok);
}

TEST_F(FaultFixture, CircuitBreakerAbortsCleanlyOnPersistentFailure) {
  ckt::FaultInjectionConfig fcfg;
  fcfg.throw_rate = 1.0;  // simulator is completely broken
  const ckt::FaultInjectingProblem faulty(problem, fcfg);
  MaOptConfig cfg = small_config(MaOptConfig::ma_opt2());
  cfg.max_consecutive_failures = 5;
  MaOptimizer opt(cfg);
  RunHistory h;
  ASSERT_NO_THROW(h = opt.run(faulty, initial, *fom, {.seed = 2, .simulation_budget = 60}));
  EXPECT_TRUE(h.aborted);
  EXPECT_NE(h.abort_reason.find("circuit breaker"), std::string::npos);
  EXPECT_LT(h.simulations_used(), 60u);       // partial history, not a crash
  EXPECT_GE(h.simulations_used(), 5u);        // the breaker needed 5 failures
  EXPECT_EQ(h.best_fom_after.size(), h.simulations_used());
}

TEST_F(FaultFixture, BreakerDisabledRunsFullBudgetEvenWhenAllFail) {
  ckt::FaultInjectionConfig fcfg;
  fcfg.throw_rate = 1.0;
  const ckt::FaultInjectingProblem faulty(problem, fcfg);
  MaOptConfig cfg = small_config(MaOptConfig::dnn_opt());
  cfg.max_consecutive_failures = 0;
  MaOptimizer opt(cfg);
  const RunHistory h = opt.run(faulty, initial, *fom, {.seed = 2, .simulation_budget = 10});
  EXPECT_FALSE(h.aborted);
  EXPECT_EQ(h.simulations_used(), 10u);
  for (const auto& f : h.best_fom_after) EXPECT_TRUE(std::isfinite(f));
}

TEST_F(FaultFixture, BoSurvivesFaultsAndBreaksOnPersistentFailure) {
  for (const double rate : {0.1, 0.5}) {
    ckt::FaultInjectionConfig fcfg;
    fcfg.throw_rate = rate / 2;
    fcfg.nan_rate = rate / 2;
    fcfg.seed = 55;
    const ckt::FaultInjectingProblem faulty(problem, fcfg);
    gp::BoOptimizer bo;
    RunHistory h;
    ASSERT_NO_THROW(h = bo.run(faulty, initial, *fom, {.seed = 3, .simulation_budget = 10})) << "rate " << rate;
    EXPECT_EQ(h.simulations_used(), 10u);
    for (const auto& r : h.records) EXPECT_TRUE(std::isfinite(r.fom));
    for (std::size_t i = 1; i < h.best_fom_after.size(); ++i)
      EXPECT_LE(h.best_fom_after[i], h.best_fom_after[i - 1]);
  }

  ckt::FaultInjectionConfig fcfg;
  fcfg.throw_rate = 1.0;
  const ckt::FaultInjectingProblem broken(problem, fcfg);
  gp::BoConfig bcfg;
  bcfg.max_consecutive_failures = 4;
  gp::BoOptimizer bo(bcfg);
  RunHistory h;
  ASSERT_NO_THROW(h = bo.run(broken, initial, *fom, {.seed = 3, .simulation_budget = 30}));
  EXPECT_TRUE(h.aborted);
  EXPECT_LT(h.simulations_used(), 30u);
}

TEST_F(FaultFixture, CheckpointResumeReproducesUninterruptedRun) {
  const std::string path = "/tmp/maopt_resume_test.ckpt";
  std::remove(path.c_str());

  const std::size_t budget = 24;
  MaOptConfig cfg = small_config(MaOptConfig::ma_opt());

  // Reference: uninterrupted run, no checkpointing.
  MaOptimizer ref_opt(cfg);
  const RunHistory ref = ref_opt.run(problem, initial, *fom, {.seed = 77, .simulation_budget = budget});

  // Checkpointed twin: identical trajectory, but snapshots every 4
  // iterations. The last snapshot on disk is exactly what a run killed
  // mid-budget would leave behind (the final iteration is not a checkpoint
  // boundary, so the file is genuinely mid-run).
  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 4;
  MaOptimizer ckpt_opt(cfg);
  const RunHistory full = ckpt_opt.run(problem, initial, *fom, {.seed = 77, .simulation_budget = budget});
  ASSERT_EQ(full.records.size(), ref.records.size());

  const RunCheckpoint snapshot = load_checkpoint(path);
  EXPECT_EQ(snapshot.seed, 77u);
  ASSERT_GT(snapshot.history.simulations_used(), 0u);
  ASSERT_LT(snapshot.history.simulations_used(), budget);  // genuinely mid-run

  MaOptimizer resumed_opt(cfg);
  const RunHistory resumed =
      resumed_opt.resume(problem, snapshot, *fom, {.simulation_budget = budget});

  ASSERT_EQ(resumed.records.size(), ref.records.size());
  for (std::size_t i = 0; i < ref.records.size(); ++i) {
    EXPECT_EQ(resumed.records[i].x, ref.records[i].x) << "record " << i;
    EXPECT_DOUBLE_EQ(resumed.records[i].fom, ref.records[i].fom) << "record " << i;
  }
  ASSERT_EQ(resumed.best_fom_after.size(), ref.best_fom_after.size());
  for (std::size_t i = 0; i < ref.best_fom_after.size(); ++i)
    EXPECT_DOUBLE_EQ(resumed.best_fom_after[i], ref.best_fom_after[i]) << "sim " << i;
  std::remove(path.c_str());
}

TEST_F(FaultFixture, CheckpointResumeDeterministicUnderFaults) {
  const std::string path = "/tmp/maopt_resume_fault_test.ckpt";
  std::remove(path.c_str());

  // Fault decisions are a pure function of (seed, design), so they replay
  // identically on resume.
  ckt::FaultInjectionConfig fcfg;
  fcfg.throw_rate = 0.1;
  fcfg.nan_rate = 0.1;
  fcfg.seed = 99;
  const ckt::FaultInjectingProblem faulty(problem, fcfg);

  const std::size_t budget = 18;
  MaOptConfig cfg = small_config(MaOptConfig::ma_opt2());
  MaOptimizer ref_opt(cfg);
  const RunHistory ref = ref_opt.run(faulty, initial, *fom, {.seed = 13, .simulation_budget = budget});

  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 4;
  MaOptimizer ckpt_opt(cfg);
  (void)ckpt_opt.run(faulty, initial, *fom, {.seed = 13, .simulation_budget = budget});

  const RunCheckpoint snapshot = load_checkpoint(path);
  ASSERT_LT(snapshot.history.simulations_used(), budget);
  MaOptimizer resumed_opt(cfg);
  const RunHistory resumed =
      resumed_opt.resume(faulty, snapshot, *fom, {.simulation_budget = budget});

  ASSERT_EQ(resumed.records.size(), ref.records.size());
  for (std::size_t i = 0; i < ref.records.size(); ++i) {
    EXPECT_EQ(resumed.records[i].x, ref.records[i].x) << "record " << i;
    EXPECT_EQ(resumed.records[i].simulation_ok, ref.records[i].simulation_ok) << "record " << i;
  }
  EXPECT_DOUBLE_EQ(resumed.best_fom_after.back(), ref.best_fom_after.back());
  std::remove(path.c_str());
}

TEST_F(FaultFixture, ResumeWithFullyCompleteCheckpointIsANoOp) {
  const std::string path = "/tmp/maopt_resume_complete_test.ckpt";
  const std::size_t budget = 12;
  MaOptConfig cfg = small_config(MaOptConfig::dnn_opt());
  MaOptimizer opt(cfg);
  const RunHistory h = opt.run(problem, initial, *fom, {.seed = 4, .simulation_budget = budget});
  save_checkpoint(path, h, 4);

  const RunCheckpoint snapshot = load_checkpoint(path);
  MaOptimizer resumed_opt(cfg);
  const RunHistory resumed =
      resumed_opt.resume(problem, snapshot, *fom, {.simulation_budget = budget});
  ASSERT_EQ(resumed.records.size(), h.records.size());
  for (std::size_t i = 0; i < h.records.size(); ++i)
    EXPECT_EQ(resumed.records[i].x, h.records[i].x);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace maopt::core
