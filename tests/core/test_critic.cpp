#include "core/critic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/analytic_problems.hpp"

namespace maopt::core {
namespace {

struct CriticFixture : ::testing::Test {
  CriticFixture() : problem(3), scaler(problem.lower_bounds(), problem.upper_bounds()) {
    Rng rng(1);
    for (int i = 0; i < 60; ++i) {
      SimRecord r;
      r.x = problem.random_design(rng);
      r.metrics = problem.evaluate(r.x).metrics;
      r.simulation_ok = true;
      records.push_back(std::move(r));
    }
    config.hidden = {48, 48};
    config.steps_per_round = 40;
    config.batch_size = 32;
  }

  ckt::ConstrainedQuadratic problem;
  nn::RangeScaler scaler;
  std::vector<SimRecord> records;
  CriticConfig config;
};

TEST_F(CriticFixture, LossDecreasesOverTraining) {
  Rng rng(2);
  Critic critic(3, 3, config, rng);
  critic.fit_normalizer(records);
  PseudoSampleBatcher batcher(records, scaler);
  Rng train_rng(3);
  const double first = critic.train_round(batcher, train_rng);
  double last = first;
  for (int round = 0; round < 10; ++round) last = critic.train_round(batcher, train_rng);
  EXPECT_LT(last, first * 0.5);
}

TEST_F(CriticFixture, LearnsToPredictMetrics) {
  Rng rng(4);
  Critic critic(3, 3, config, rng);
  critic.fit_normalizer(records);
  PseudoSampleBatcher batcher(records, scaler);
  Rng train_rng(5);
  for (int round = 0; round < 30; ++round) critic.train_round(batcher, train_rng);

  // Evaluate on fresh pairs: predictions should correlate with truth.
  Rng test_rng(6);
  double err = 0.0, scale = 0.0;
  const int n_test = 40;
  for (int k = 0; k < n_test; ++k) {
    const Vec xi = problem.random_design(test_rng);
    const Vec xj = problem.random_design(test_rng);
    const Vec ui = scaler.to_unit(xi);
    const Vec uj = scaler.to_unit(xj);
    Vec du(3);
    for (int c = 0; c < 3; ++c) du[static_cast<std::size_t>(c)] = uj[static_cast<std::size_t>(c)] - ui[static_cast<std::size_t>(c)];
    const Vec pred = critic.predict_one(ui, du);
    const Vec truth = problem.evaluate(xj).metrics;
    for (std::size_t c = 0; c < 3; ++c) {
      err += std::abs(pred[c] - truth[c]);
      scale += std::abs(truth[c]);
    }
  }
  EXPECT_LT(err, 0.25 * scale);  // mean abs error under 25% of mean magnitude
}

TEST_F(CriticFixture, CopyPredictsIdentically) {
  Rng rng(7);
  Critic critic(3, 3, config, rng);
  critic.fit_normalizer(records);
  PseudoSampleBatcher batcher(records, scaler);
  Rng train_rng(8);
  critic.train_round(batcher, train_rng);

  Critic copy(critic);
  const Vec x(3, 0.2), dx(3, 0.1);
  const Vec a = critic.predict_one(x, dx);
  const Vec b = copy.predict_one(x, dx);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(a[c], b[c]);
}

TEST_F(CriticFixture, ActionGradientMatchesFiniteDifference) {
  Rng rng(9);
  Critic critic(3, 3, config, rng);
  critic.fit_normalizer(records);
  PseudoSampleBatcher batcher(records, scaler);
  Rng train_rng(10);
  for (int round = 0; round < 5; ++round) critic.train_round(batcher, train_rng);

  // Scalar loss L = sum_c w_c * raw_c; check dL/d(dx).
  const Vec w{0.3, -0.7, 1.1};
  nn::Mat in(1, 6);
  for (int c = 0; c < 3; ++c) {
    in(0, static_cast<std::size_t>(c)) = 0.1 * c;
    in(0, static_cast<std::size_t>(3 + c)) = 0.05 * (c + 1);
  }
  critic.predict(in);
  nn::Mat dl(1, 3);
  for (std::size_t c = 0; c < 3; ++c) dl(0, c) = w[c];
  nn::Mat da;
  critic.action_gradient(dl, da);

  const double eps = 1e-6;
  for (std::size_t c = 0; c < 3; ++c) {
    nn::Mat inp = in, inm = in;
    inp(0, 3 + c) += eps;
    inm(0, 3 + c) -= eps;
    const nn::Mat rp = critic.predict(inp);
    const nn::Mat rm = critic.predict(inm);
    double lp = 0.0, lm = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      lp += w[j] * rp(0, j);
      lm += w[j] * rm(0, j);
    }
    EXPECT_NEAR(da(0, c), (lp - lm) / (2 * eps), 1e-4) << c;
  }
}

TEST_F(CriticFixture, PredictOneMatchesBatchPredict) {
  Rng rng(11);
  Critic critic(3, 3, config, rng);
  critic.fit_normalizer(records);
  const Vec x(3, -0.3), dx(3, 0.2);
  const Vec single = critic.predict_one(x, dx);
  nn::Mat in(1, 6);
  for (std::size_t c = 0; c < 3; ++c) {
    in(0, c) = x[c];
    in(0, 3 + c) = dx[c];
  }
  const nn::Mat batch = critic.predict(in);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(single[c], batch(0, c));
}

}  // namespace
}  // namespace maopt::core
