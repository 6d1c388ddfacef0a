#include "serve/service_config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "circuits/analytic_problems.hpp"

namespace maopt::serve {
namespace {

/// build() must throw std::invalid_argument whose message names the
/// offending field — the daemon surfaces these verbatim at submit time.
void expect_rejects(const ServiceConfig& config, const std::string& field) {
  try {
    config.validate();
    FAIL() << "expected validate() to reject " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name the field: " << e.what();
  }
}

TEST(ServiceConfig, DefaultsValidate) {
  EXPECT_NO_THROW(ServiceConfig{}.validate());
  EXPECT_NO_THROW(ServiceConfig::builder().build());
}

TEST(ServiceConfig, BuilderSetsEveryKnob) {
  const ServiceConfig config = ServiceConfig::builder()
                                   .threads(3)
                                   .memory_capacity(17)
                                   .cache_dir("some/dir")
                                   .quant_epsilon(1e-9)
                                   .resilient(true)
                                   .deadline_seconds(2.5)
                                   .max_retries(4)
                                   .retry_jitter_frac(0.01)
                                   .max_metric_magnitude(1e12)
                                   .retry_seed(99)
                                   .yield_target(0.9)
                                   .build();
  EXPECT_EQ(config.num_threads, 3u);
  EXPECT_EQ(config.memory_capacity, 17u);
  EXPECT_EQ(config.cache_dir, "some/dir");
  EXPECT_EQ(config.quant_epsilon, 1e-9);
  EXPECT_TRUE(config.resilient);
  EXPECT_EQ(config.sweep.yield_target, 0.9);

  const eval::EvalServiceConfig eval = config.eval_config();
  EXPECT_EQ(eval.num_threads, 3u);
  EXPECT_EQ(eval.memory_capacity, 17u);
  EXPECT_EQ(eval.cache_dir, "some/dir");
  EXPECT_EQ(eval.quant_epsilon, 1e-9);

  const ckt::ResilientConfig resilient = config.resilient_config();
  EXPECT_EQ(resilient.deadline_seconds, 2.5);
  EXPECT_EQ(resilient.max_retries, 4);
  EXPECT_EQ(resilient.retry_jitter_frac, 0.01);
  EXPECT_EQ(resilient.max_metric_magnitude, 1e12);
  EXPECT_EQ(resilient.seed, 99u);
}

TEST(ServiceConfig, RejectsEachBadKnobByName) {
  const double nan = std::numeric_limits<double>::quiet_NaN();

  ServiceConfig config;
  config.memory_capacity = 0;
  expect_rejects(config, "memory_capacity");

  config = {};
  config.quant_epsilon = -1.0;
  expect_rejects(config, "quant_epsilon");

  config = {};
  config.deadline_seconds = -0.5;
  expect_rejects(config, "deadline_seconds");

  config = {};
  config.max_retries = -1;
  expect_rejects(config, "max_retries");

  config = {};
  config.retry_jitter_frac = nan;
  expect_rejects(config, "retry_jitter_frac");

  config = {};
  config.max_metric_magnitude = 0.0;
  expect_rejects(config, "max_metric_magnitude");

  config = {};
  config.sweep.k_sigma = nan;
  expect_rejects(config, "sweep.k_sigma");

  config = {};
  config.sweep.yield_target = 0.0;
  expect_rejects(config, "sweep.yield_target");
  config.sweep.yield_target = 1.5;
  expect_rejects(config, "sweep.yield_target");

  config = {};
  config.sweep.min_ok_fraction = -0.1;
  expect_rejects(config, "sweep.min_ok_fraction");
}

TEST(ServiceConfig, BuilderBuildThrowsOnInvalid) {
  EXPECT_THROW(ServiceConfig::builder().memory_capacity(0).build(), std::invalid_argument);
  EXPECT_THROW(ServiceConfig::builder().yield_target(2.0).build(), std::invalid_argument);
}

TEST(ServiceStack, BareStackHasNoResilienceLayer) {
  ckt::ConstrainedQuadratic problem(4);
  const ServiceStack stack(problem, ServiceConfig::builder().threads(1).build());
  EXPECT_EQ(stack.resilient(), nullptr);

  // The service answers as the problem would — same metrics, counted once.
  const linalg::Vec x = {0.3, 0.3, 0.3, 0.3};
  const ckt::EvalResult direct = problem.evaluate(x);
  const ckt::EvalResult via = stack.service().evaluate(x);
  ASSERT_EQ(via.metrics.size(), direct.metrics.size());
  for (std::size_t i = 0; i < direct.metrics.size(); ++i)
    EXPECT_EQ(via.metrics[i], direct.metrics[i]);
  EXPECT_EQ(stack.service().counters().requested, 1u);
}

TEST(ServiceStack, ResilientConfigInsertsLayer) {
  ckt::ConstrainedQuadratic problem(4);
  const ServiceStack stack(
      problem, ServiceConfig::builder().threads(1).resilient(true).max_retries(1).build());
  ASSERT_NE(stack.resilient(), nullptr);

  // Second identical request is a cache hit, resilient or not.
  const linalg::Vec x = {0.5, 0.5, 0.5, 0.5};
  (void)stack.service().evaluate(x);
  (void)stack.service().evaluate(x);
  const eval::EvalCounters counters = stack.service().counters();
  EXPECT_EQ(counters.requested, 2u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.simulations, 1u);
}

TEST(ServiceStack, ConstructorRejectsInvalidConfig) {
  ckt::ConstrainedQuadratic problem(4);
  ServiceConfig config;
  config.memory_capacity = 0;
  EXPECT_THROW(ServiceStack(problem, config), std::invalid_argument);
}

}  // namespace
}  // namespace maopt::serve
