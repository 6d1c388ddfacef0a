#include "eval/eval_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "../support/variation_test_problems.hpp"
#include "circuits/analytic_problems.hpp"
#include "circuits/resilient_problem.hpp"
#include "circuits/robust_problem.hpp"
#include "circuits/two_stage_ota.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace maopt::eval {
namespace {

/// Counts inner evaluate() calls and optionally runs a hook inside them —
/// the instrument for "exactly one simulation per unique key" assertions.
class CountingProblem final : public ckt::SizingProblem {
 public:
  explicit CountingProblem(const ckt::SizingProblem& inner) : inner_(&inner) {}

  const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override {
    return inner_->parameter_names();
  }

  ckt::EvalResult evaluate(const Vec& x) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (hook) hook(x);
    return inner_->evaluate(x);
  }

  ckt::EvalResult evaluate_at(const Vec& x, const ckt::ProcessVariation& pv) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (hook) hook(x);
    return inner_->evaluate_at(x, pv);
  }

  bool supports_process_variation() const override {
    return inner_->supports_process_variation();
  }

  mutable std::atomic<int> calls{0};
  std::function<void(const Vec&)> hook;

 private:
  const ckt::SizingProblem* inner_;
};

/// Always reports simulation failure (to prove failures are never cached).
class AlwaysFailing final : public ckt::SizingProblem {
 public:
  explicit AlwaysFailing(const ckt::SizingProblem& inner) : inner_(&inner) {}
  const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override {
    return inner_->parameter_names();
  }
  ckt::EvalResult evaluate(const Vec&) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return {inner_->failure_metrics(), /*simulation_ok=*/false};
  }
  mutable std::atomic<int> calls{0};

 private:
  const ckt::SizingProblem* inner_;
};

struct ServiceFixture : ::testing::Test {
  ckt::ConstrainedQuadratic quad{3};
  CountingProblem counting{quad};
};

TEST_F(ServiceFixture, ForwardsProblemInterface) {
  EvalService service(counting);
  EXPECT_EQ(service.dim(), quad.dim());
  EXPECT_EQ(service.spec().name, quad.spec().name);
  EXPECT_EQ(service.lower_bounds(), quad.lower_bounds());
  EXPECT_EQ(service.upper_bounds(), quad.upper_bounds());
  EXPECT_EQ(service.parameter_names(), quad.parameter_names());
  EXPECT_EQ(service.fingerprint(), problem_fingerprint(quad));
}

TEST_F(ServiceFixture, PointPathHitsOnRepeat) {
  EvalService service(counting);
  const Vec x = {0.1, 0.2, 0.3};

  const auto first = service.evaluate(x);
  EXPECT_TRUE(first.simulation_ok);
  EXPECT_TRUE(first.call.served);
  EXPECT_FALSE(first.call.cache_hit);
  EXPECT_FALSE(first.call.coalesced);
  EXPECT_GE(first.call.seconds, 0.0);

  const auto second = service.evaluate(x);
  EXPECT_TRUE(second.call.served);
  EXPECT_TRUE(second.call.cache_hit);
  EXPECT_FALSE(second.call.coalesced);
  EXPECT_EQ(second.call.seconds, 0.0);
  EXPECT_EQ(second.metrics, first.metrics);

  EXPECT_EQ(counting.calls.load(), 1);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, 2u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.coalesced, 0u);
  EXPECT_EQ(c.simulations, 1u);
}

TEST_F(ServiceFixture, MatchesUnwrappedResults) {
  EvalService service(counting);
  const Vec x = {0.25, 0.5, 0.75};
  EXPECT_EQ(service.evaluate(x).metrics, quad.evaluate(x).metrics);
}

TEST_F(ServiceFixture, FailuresAreNotCached) {
  AlwaysFailing failing(quad);
  EvalService service(failing);
  const Vec x = {0.1, 0.2, 0.3};
  EXPECT_FALSE(service.evaluate(x).simulation_ok);
  EXPECT_FALSE(service.evaluate(x).simulation_ok);
  EXPECT_EQ(failing.calls.load(), 2);  // the failure was re-attempted
  const auto c = service.counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.simulations, 2u);
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST_F(ServiceFixture, InnerExceptionPropagatesAndIsNotCached) {
  struct Throwing final : ckt::SizingProblem {
    explicit Throwing(const ckt::SizingProblem& inner) : inner_(&inner) {}
    const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
    std::size_t dim() const override { return inner_->dim(); }
    const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
    const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
    const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
    std::vector<std::string> parameter_names() const override {
      return inner_->parameter_names();
    }
    ckt::EvalResult evaluate(const Vec&) const override {
      calls.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("solver exploded");
    }
    mutable std::atomic<int> calls{0};
    const ckt::SizingProblem* inner_;
  } throwing(quad);

  EvalService service(throwing);
  const Vec x = {0.1, 0.2, 0.3};
  EXPECT_THROW(service.evaluate(x), std::runtime_error);
  // The key must not be stuck in the in-flight map: a retry throws again
  // (rather than deadlocking on a dead producer) and runs a fresh attempt.
  EXPECT_THROW(service.evaluate(x), std::runtime_error);
  EXPECT_EQ(throwing.calls.load(), 2);
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST_F(ServiceFixture, BatchIsPositionalAndDeduplicatesWithinBatch) {
  EvalService service(counting);
  const Vec a = {0.1, 0.2, 0.3};
  const Vec b = {0.4, 0.5, 0.6};
  const Vec c = {0.7, 0.8, 0.9};
  const std::vector<Vec> xs = {a, b, a, c, b, a};

  const auto results = service.evaluate_batch(xs);
  ASSERT_EQ(results.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_TRUE(results[i].simulation_ok);
    EXPECT_EQ(results[i].metrics, quad.evaluate(xs[i]).metrics) << "position " << i;
  }

  EXPECT_EQ(counting.calls.load(), 3) << "one simulation per unique design";
  const auto totals = service.counters();
  EXPECT_EQ(totals.requested, xs.size());
  EXPECT_EQ(totals.hits + totals.misses, xs.size());
  EXPECT_EQ(totals.simulations, 3u);
  EXPECT_EQ(totals.misses - totals.coalesced, 3u);

  // Exactly three requests produced a fresh simulation; the duplicates were
  // served by the cache or a concurrent producer (scheduling decides which).
  std::size_t fresh = 0;
  for (const auto& r : results) fresh += (!r.call.cache_hit && !r.call.coalesced) ? 1 : 0;
  EXPECT_EQ(fresh, 3u);
}

TEST_F(ServiceFixture, BatchHandlesEmptyAndSingle) {
  EvalService service(counting);
  EXPECT_TRUE(service.evaluate_batch({}).empty());
  const std::vector<Vec> one = {{0.1, 0.2, 0.3}};
  const auto results = service.evaluate_batch(one);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].metrics, quad.evaluate(one[0]).metrics);
  EXPECT_FALSE(results[0].call.cache_hit);
}

// Satellite #3: N threads requesting overlapping keys must coalesce onto
// exactly one underlying simulation per unique key, and every waiter must
// receive the producer's result. Deterministic even under TSan: the producer
// blocks *inside* the inner problem until all N waiters have registered
// (counted via the service's own coalesced counter), so the schedule cannot
// race the assertion.
TEST_F(ServiceFixture, ConcurrentRequestsCoalesceOntoOneSimulation) {
  constexpr int kWaiters = 4;
  EvalService service(counting);
  const Vec x = {0.3, 0.3, 0.3};

  std::atomic<bool> producer_entered{false};
  counting.hook = [&](const Vec&) {
    producer_entered.store(true, std::memory_order_release);
    while (service.counters().coalesced < kWaiters) std::this_thread::yield();
  };

  ckt::EvalResult producer_result;
  std::thread producer([&] { producer_result = service.evaluate(x); });
  while (!producer_entered.load(std::memory_order_acquire)) std::this_thread::yield();

  std::vector<ckt::EvalResult> waiter_results(kWaiters);
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i)
    waiters.emplace_back([&, i] { waiter_results[i] = service.evaluate(x); });
  for (auto& t : waiters) t.join();
  producer.join();
  counting.hook = nullptr;

  EXPECT_EQ(counting.calls.load(), 1) << "exactly one simulation for the shared key";
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(waiter_results[i].metrics, producer_result.metrics);
    EXPECT_TRUE(waiter_results[i].call.coalesced);
    EXPECT_FALSE(waiter_results[i].call.cache_hit);
    EXPECT_EQ(waiter_results[i].call.seconds, 0.0);
  }
  EXPECT_FALSE(producer_result.call.coalesced);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, static_cast<std::uint64_t>(kWaiters) + 1);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, static_cast<std::uint64_t>(kWaiters) + 1);
  EXPECT_EQ(c.coalesced, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(c.simulations, 1u);
}

// Overlapping keys across many free-running threads: whatever the schedule,
// each unique design simulates exactly once (a requester either hits the
// cache or joins the in-flight producer — the publish protocol has no gap).
TEST_F(ServiceFixture, ManyThreadsManyKeysSimulateEachKeyOnce) {
  constexpr int kThreads = 8;
  constexpr int kUnique = 4;
  EvalService service(counting);
  std::vector<Vec> designs;
  for (int k = 0; k < kUnique; ++k)
    designs.push_back({0.1 + 0.2 * k, 0.5, 0.5});

  std::vector<ckt::EvalResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { results[i] = service.evaluate(designs[i % kUnique]); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(counting.calls.load(), kUnique);
  for (int i = 0; i < kThreads; ++i)
    EXPECT_EQ(results[i].metrics, quad.evaluate(designs[i % kUnique]).metrics);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(c.hits + c.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(c.simulations, static_cast<std::uint64_t>(kUnique));
  EXPECT_LE(c.coalesced, c.misses);
}

TEST_F(ServiceFixture, CapturesResilientCallProvenance) {
  ckt::FaultInjectionConfig faults;
  faults.throw_rate = 1.0;  // every attempt throws: the call exhausts its retries
  const ckt::FaultInjectingProblem faulty(quad, faults);
  ckt::ResilientConfig rcfg;
  rcfg.max_retries = 2;
  const ckt::ResilientEvaluator resilient(faulty, rcfg);
  EvalService service(resilient);
  const auto result = service.evaluate({0.2, 0.2, 0.2});
  EXPECT_FALSE(result.simulation_ok);
  EXPECT_TRUE(result.call.served);
  EXPECT_TRUE(result.call.failed);
  EXPECT_EQ(result.call.retries, 2u);
  EXPECT_EQ(result.call.last_failure, ckt::FailureKind::Exception);
  EXPECT_EQ(service.fingerprint(), problem_fingerprint(quad))
      << "fingerprint must see through the resilient wrapper";
}

TEST_F(ServiceFixture, CachedExposesEvaluatedDesigns) {
  EvalService service(counting);
  const Vec a = {0.1, 0.2, 0.3};
  const Vec b = {0.4, 0.5, 0.6};
  service.evaluate(a);
  service.evaluate(b);
  service.evaluate(a);  // hit: no new entry
  const auto cached = service.cached();
  ASSERT_EQ(cached.size(), 2u);
  EXPECT_EQ(cached[0].x, a);
  EXPECT_EQ(cached[1].x, b);
  EXPECT_EQ(cached[0].metrics, quad.evaluate(a).metrics);
}

TEST_F(ServiceFixture, QuantizationEpsilonMergesNearbyDesigns) {
  EvalServiceConfig config;
  config.quant_epsilon = 1e-3;
  EvalService service(counting, config);
  const Vec a = {0.10000, 0.2, 0.3};
  const Vec b = {0.10004, 0.2, 0.3};  // same 1e-3 bucket
  const auto ra = service.evaluate(a);
  const auto rb = service.evaluate(b);
  EXPECT_EQ(counting.calls.load(), 1);
  EXPECT_EQ(rb.metrics, ra.metrics) << "b served from a's bucket";
  EXPECT_EQ(service.counters().hits, 1u);
}

/// Counts make_session() calls so the pool's reuse can be asserted.
class SessionCountingProblem final : public ckt::SizingProblem {
 public:
  explicit SessionCountingProblem(const ckt::SizingProblem& inner) : inner_(&inner) {}
  const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override {
    return inner_->parameter_names();
  }
  ckt::EvalResult evaluate(const Vec& x) const override { return inner_->evaluate(x); }
  std::unique_ptr<ckt::EvalSession> make_session() const override {
    sessions_created.fetch_add(1, std::memory_order_relaxed);
    return inner_->make_session();
  }

  mutable std::atomic<int> sessions_created{0};

 private:
  const ckt::SizingProblem* inner_;
};

TEST_F(ServiceFixture, SessionPoolCreatesAtMostOneSessionPerWorker) {
  SessionCountingProblem problem(quad);
  EvalServiceConfig config;
  config.num_threads = 2;
  EvalService service(problem, config);

  std::vector<Vec> designs;
  for (int i = 0; i < 8; ++i) designs.push_back({0.01 * i, 0.2, 0.3});
  service.evaluate_batch(designs);
  service.evaluate_batch(designs);  // all hits: no new sessions either way
  for (int i = 0; i < 8; ++i) designs[static_cast<std::size_t>(i)][0] = 0.5 + 0.01 * i;
  service.evaluate_batch(designs);  // misses again: sessions come from the pool

  const int created = problem.sessions_created.load();
  EXPECT_GE(created, 1);
  EXPECT_LE(created, 2) << "at most one session per concurrent worker";

  const auto c = service.counters();
  EXPECT_EQ(c.hits + c.misses, c.requested);
  EXPECT_EQ(c.simulations, c.misses - c.coalesced);
}

TEST(EvalServiceSessions, CircuitBatchThroughSessionsMatchesPointPath) {
  ckt::TwoStageOta ota;
  EvalServiceConfig config;
  config.num_threads = 2;
  EvalService service(ota, config);

  maopt::Rng rng(123);
  std::vector<Vec> designs;
  for (int i = 0; i < 3; ++i) designs.push_back(ota.random_design(rng));
  designs.push_back(designs[0]);  // duplicate: coalesces or hits

  const auto results = service.evaluate_batch(designs);
  ASSERT_EQ(results.size(), designs.size());
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const auto ref = ota.evaluate(designs[i]);
    EXPECT_EQ(results[i].simulation_ok, ref.simulation_ok) << "design " << i;
    EXPECT_EQ(results[i].metrics, ref.metrics) << "design " << i;
  }

  const auto c = service.counters();
  EXPECT_EQ(c.requested, 4u);
  EXPECT_EQ(c.hits + c.misses, c.requested);
  EXPECT_EQ(c.simulations, c.misses - c.coalesced);
  EXPECT_EQ(c.simulations, 3u) << "duplicate design must not re-simulate";
}

TEST(EvalServiceSessions, InnerCircuitCannotBeSwitchedToAVariation) {
  // A problem holds no variation state, so nothing can change what the
  // service's pooled sessions simulate behind its cache: setting a variation
  // on the inner circuit is refused, and the service's nominal answer is the
  // bare circuit's nominal answer, bit for bit, on a miss and on a hit.
  ckt::TwoStageOta ota;
  EvalService service(ota);
  const Vec x = ota.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const ckt::EvalResult bare = ota.evaluate(x);
  ASSERT_TRUE(bare.simulation_ok);

  ckt::ProcessVariation pv;
  pv.sigma_vth = 0.02;
  pv.sigma_kp_rel = 0.05;
  pv.seed = 1;
  EXPECT_THROW(ota.set_process_variation(pv), ContractViolation);
  EXPECT_NO_THROW(ota.set_process_variation(ckt::ProcessVariation{}));

  const ckt::EvalResult miss = service.evaluate(x);
  const ckt::EvalResult hit = service.evaluate(x);
  EXPECT_FALSE(miss.call.cache_hit);
  EXPECT_TRUE(hit.call.cache_hit);
  EXPECT_EQ(miss.metrics, bare.metrics);
  EXPECT_EQ(hit.metrics, bare.metrics);
  // The varied answer lives under its own key and differs from nominal.
  EXPECT_NE(service.evaluate_at(x, pv).metrics, bare.metrics);
  EXPECT_EQ(service.evaluate(x).metrics, bare.metrics);
}

TEST(ServiceSweep, EvaluateAtUsesPerVariantCacheKeys) {
  ckt::testing::VariedAnalytic varied;
  CountingProblem counting(varied);
  EvalService service(counting);

  const Vec x{0.4, 0.6};
  ckt::ProcessVariation corner;
  corner.nmos_vth_shift = 0.03;

  const auto nominal = service.evaluate(x);
  const auto at_corner = service.evaluate_at(x, corner);
  EXPECT_NE(nominal.metrics, at_corner.metrics);
  // A corner result must never be served from the nominal cache entry (or
  // vice versa), but repeats of either key are pure hits.
  EXPECT_EQ(service.evaluate(x).metrics, nominal.metrics);
  EXPECT_EQ(service.evaluate_at(x, corner).metrics, at_corner.metrics);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, 4u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 2u);
}

TEST(ServiceSweep, NominalEvaluateAtSharesTheNominalKey) {
  ckt::ConstrainedQuadratic quad(3);
  CountingProblem counting(quad);
  EvalService service(counting);
  const Vec x{0.3, 0.3, 0.3};
  service.evaluate(x);
  // A disabled variation is the nominal key: pure cache hit, no new sim.
  service.evaluate_at(x, ckt::ProcessVariation{});
  const auto c = service.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(counting.calls.load(), 1);
}

TEST(ServiceSweep, EvaluateVariantsMatchesDirectEvaluateAt) {
  ckt::testing::VariedAnalytic varied;
  EvalServiceConfig config;
  config.num_threads = 4;
  EvalService service(varied, config);

  std::vector<ckt::ProcessVariation> pvs(6);
  for (std::size_t k = 0; k < pvs.size(); ++k) {
    pvs[k].sigma_vth = 0.04;
    pvs[k].seed = k + 1;
  }
  const Vec x{0.2, 0.7};
  const auto batched = service.evaluate_variants(x, pvs);
  ASSERT_EQ(batched.size(), pvs.size());
  for (std::size_t k = 0; k < pvs.size(); ++k) {
    const auto direct = varied.evaluate_at(x, pvs[k]);
    EXPECT_EQ(batched[k].metrics, direct.metrics) << "variant " << k;
    EXPECT_TRUE(batched[k].simulation_ok) << "variant " << k;
  }
  // Re-running the same sweep is all cache hits.
  (void)service.evaluate_variants(x, pvs);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, 12u);
  EXPECT_EQ(c.hits, 6u);
  EXPECT_EQ(c.simulations, 6u);
}

TEST(ServiceSweep, ThrowingVariantIsReportedFailedNotPropagated) {
  ckt::testing::VariedAnalytic varied;
  ckt::FaultInjectionConfig fcfg;
  fcfg.throw_rate = 1.0;
  ckt::FaultInjectingProblem faulty(varied, fcfg);
  EvalService service(faulty);
  std::vector<ckt::ProcessVariation> pvs(3);
  for (std::size_t k = 0; k < pvs.size(); ++k) {
    pvs[k].sigma_vth = 0.02;
    pvs[k].seed = k;
  }
  std::vector<ckt::EvalResult> results;
  ASSERT_NO_THROW(results = service.evaluate_variants({0.5, 0.5}, pvs));
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_FALSE(r.simulation_ok);
    EXPECT_EQ(r.metrics, faulty.failure_metrics());
  }
}

TEST(ServiceSweep, SweepProblemOverServiceRunsBatched) {
  // The full tentpole stack: VariationSweepProblem detects the service as a
  // SweepBackend and fans corners through it, with per-variant caching.
  ckt::testing::VariedAnalytic varied;
  EvalServiceConfig config;
  config.num_threads = 4;
  EvalService service(varied, config);
  ckt::RobustProblem robust(service, ckt::RobustConfig{});
  EXPECT_TRUE(robust.batched());

  const Vec x{0.25, 0.25};
  const auto via_service = robust.evaluate(x);
  ckt::RobustProblem serial(varied, ckt::RobustConfig{});
  EXPECT_FALSE(serial.batched());
  const auto via_serial = serial.evaluate(x);
  ASSERT_TRUE(via_service.simulation_ok);
  EXPECT_EQ(via_service.metrics, via_serial.metrics);  // batched == serial, bitwise

  // Second sweep of the same design: all five corners served from cache.
  (void)robust.evaluate(x);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, 10u);
  EXPECT_EQ(c.hits, 5u);
  EXPECT_EQ(c.simulations, 5u);
}

}  // namespace
}  // namespace maopt::eval
