// ServiceConfig — the one validated place to configure the evaluation stack
// (PR 9). What used to be four scattered constructors (ResilientEvaluator
// retry/deadline knobs, EvalService thread/cache settings, SweepPolicyConfig
// defaults, plus ad-hoc example flags) is now a single builder:
//
//   auto config = serve::ServiceConfig::builder()
//                     .threads(8)
//                     .cache_dir("cache")
//                     .resilient(true)
//                     .max_retries(3)
//                     .build();          // throws std::invalid_argument
//   serve::ServiceStack stack(problem, config);
//   optimizer.run(stack.service(), ...);
//
// build() validates every knob (the same rules the underlying layers
// enforce, surfaced before any thread or journal is created) so a daemon
// rejects a bad job configuration at submit time, not mid-run.
#pragma once

#include <string>

#include "circuits/resilient_problem.hpp"
#include "circuits/variation_sweep.hpp"
#include "eval/eval_service.hpp"

namespace maopt {
class ThreadPool;
}

namespace maopt::serve {

struct ServiceConfig {
  // --- EvalService knobs (eval::EvalServiceConfig) ---
  std::size_t num_threads = 0;  ///< batch workers; 0 = hardware_concurrency
  ThreadPool* shared_pool = nullptr;  ///< externally-owned pool (overrides num_threads)
  std::size_t memory_capacity = 4096;
  std::string cache_dir;       ///< persistent journal directory; empty = memory-only
  double quant_epsilon = 0.0;  ///< cache-key design quantization

  // --- ResilientEvaluator knobs (ckt::ResilientConfig); applied only when
  // --- `resilient` is set, otherwise the problem is wrapped bare. ---
  bool resilient = false;
  double deadline_seconds = 0.0;
  int max_retries = 2;
  double retry_jitter_frac = 1e-3;
  double max_metric_magnitude = 1e30;
  std::uint64_t retry_seed = 0x5EEDF00DULL;

  // --- Sweep-policy defaults handed to robust / yield workloads ---
  ckt::SweepPolicyConfig sweep;

  class Builder;
  static Builder builder();

  /// The validated sub-configs the stack layers consume.
  eval::EvalServiceConfig eval_config() const;
  ckt::ResilientConfig resilient_config() const;

  /// Validates every knob; throws std::invalid_argument naming the first
  /// offending field. Builder::build() calls this; configs assembled by
  /// hand can call it directly.
  void validate() const;
};

/// Fluent builder over ServiceConfig. Setters return *this; build()
/// validates and returns the config by value.
class ServiceConfig::Builder {
 public:
  Builder& threads(std::size_t n) { config_.num_threads = n; return *this; }
  Builder& pool(ThreadPool* shared) { config_.shared_pool = shared; return *this; }
  Builder& memory_capacity(std::size_t n) { config_.memory_capacity = n; return *this; }
  Builder& cache_dir(std::string dir) { config_.cache_dir = std::move(dir); return *this; }
  Builder& quant_epsilon(double eps) { config_.quant_epsilon = eps; return *this; }

  Builder& resilient(bool on) { config_.resilient = on; return *this; }
  Builder& deadline_seconds(double s) { config_.deadline_seconds = s; return *this; }
  Builder& max_retries(int n) { config_.max_retries = n; return *this; }
  Builder& retry_jitter_frac(double f) { config_.retry_jitter_frac = f; return *this; }
  Builder& max_metric_magnitude(double m) { config_.max_metric_magnitude = m; return *this; }
  Builder& retry_seed(std::uint64_t seed) { config_.retry_seed = seed; return *this; }

  Builder& sweep_policy(ckt::SweepPolicyConfig policy) {
    config_.sweep = policy;
    return *this;
  }
  Builder& failure_policy(ckt::SweepFailurePolicy policy) {
    config_.sweep.failure_policy = policy;
    return *this;
  }
  Builder& yield_target(double fraction) {
    config_.sweep.yield_target = fraction;
    return *this;
  }

  ServiceConfig build() const {
    config_.validate();
    return config_;
  }

 private:
  ServiceConfig config_;
};

inline ServiceConfig::Builder ServiceConfig::builder() { return Builder{}; }

/// Owns the decorator chain one validated config describes:
///
///   problem  <-  [ResilientEvaluator]  <-  EvalService
///
/// The wrapped problem stays caller-owned and must outlive the stack; the
/// optional resilience layer and the service are owned here. service() is
/// the SizingProblem optimizers should run against.
class ServiceStack {
 public:
  ServiceStack(const ckt::SizingProblem& problem, const ServiceConfig& config);

  ServiceStack(const ServiceStack&) = delete;
  ServiceStack& operator=(const ServiceStack&) = delete;

  eval::EvalService& service() { return *service_; }
  const eval::EvalService& service() const { return *service_; }
  const ServiceConfig& config() const { return config_; }

  /// The resilience layer, when the config enabled one (else null).
  const ckt::ResilientEvaluator* resilient() const { return resilient_.get(); }

 private:
  ServiceConfig config_;
  std::unique_ptr<ckt::ResilientEvaluator> resilient_;
  std::unique_ptr<eval::EvalService> service_;
};

}  // namespace maopt::serve
