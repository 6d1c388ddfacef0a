#include "serve/service_config.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace maopt::serve {

namespace {

void fail(const std::string& field, const std::string& rule) {
  throw std::invalid_argument("ServiceConfig: " + field + " " + rule);
}

}  // namespace

void ServiceConfig::validate() const {
  if (memory_capacity == 0) fail("memory_capacity", "must be >= 1");
  if (!std::isfinite(quant_epsilon) || quant_epsilon < 0.0)
    fail("quant_epsilon", "must be finite and >= 0");
  if (!std::isfinite(deadline_seconds) || deadline_seconds < 0.0)
    fail("deadline_seconds", "must be finite and >= 0 (0 disables)");
  if (max_retries < 0) fail("max_retries", "must be >= 0");
  if (!std::isfinite(retry_jitter_frac) || retry_jitter_frac < 0.0)
    fail("retry_jitter_frac", "must be finite and >= 0");
  if (!std::isfinite(max_metric_magnitude) || max_metric_magnitude <= 0.0)
    fail("max_metric_magnitude", "must be finite and > 0");
  // The same rules VariationSweepProblem enforces at construction, surfaced
  // here so a daemon rejects the job at submit time.
  if (!std::isfinite(sweep.k_sigma)) fail("sweep.k_sigma", "must be finite");
  if (!(sweep.yield_target > 0.0) || sweep.yield_target > 1.0)
    fail("sweep.yield_target", "must be in (0, 1]");
  if (!(sweep.min_ok_fraction >= 0.0) || sweep.min_ok_fraction > 1.0)
    fail("sweep.min_ok_fraction", "must be in [0, 1]");
}

eval::EvalServiceConfig ServiceConfig::eval_config() const {
  eval::EvalServiceConfig c;
  c.num_threads = num_threads;
  c.shared_pool = shared_pool;
  c.memory_capacity = memory_capacity;
  c.cache_dir = cache_dir;
  c.quant_epsilon = quant_epsilon;
  return c;
}

ckt::ResilientConfig ServiceConfig::resilient_config() const {
  ckt::ResilientConfig c;
  c.deadline_seconds = deadline_seconds;
  c.max_retries = max_retries;
  c.retry_jitter_frac = retry_jitter_frac;
  c.max_metric_magnitude = max_metric_magnitude;
  c.seed = retry_seed;
  return c;
}

ServiceStack::ServiceStack(const ckt::SizingProblem& problem, const ServiceConfig& config)
    : config_(config) {
  config_.validate();
  const ckt::SizingProblem* inner = &problem;
  if (config_.resilient) {
    resilient_ = std::make_unique<ckt::ResilientEvaluator>(problem, config_.resilient_config());
    inner = resilient_.get();
  }
  service_ = std::make_unique<eval::EvalService>(*inner, config_.eval_config());
}

}  // namespace maopt::serve
