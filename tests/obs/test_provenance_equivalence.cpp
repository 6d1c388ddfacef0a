// Provenance golden test: the retry, failure-kind and cache provenance that
// reaches telemetry for every simulation, on every evaluation path.
//
// Each stack below drives a fixed-seed run into a JsonlObserver. The
// simulation_completed events and the run_finished counters, with every
// timing key dropped, are canonicalized into one transcript. The transcript
// must be identical across two runs in one process, and it must hash to the
// digest frozen below — a change to how provenance travels from the
// evaluation to the emit site must not change what the stream says.
//
// Stacks (no hang faults, no deadline, a 1-thread service so that an
// in-batch duplicate is always a cache hit, never a coalesced request):
//   * MA-Opt over a resilient ServiceStack on a 30% throw/NaN/garbage
//     FaultInjectingProblem, cold then warm (the batch path);
//   * MA-Opt over a bare ResilientEvaluator(FaultInjectingProblem) (the
//     lane path);
//   * BO, PSO, DE and RandomSearch over the same service, RandomSearch cold
//     then warm (the point path);
//   * MA-Opt over a RobustProblem over the faulty service (sweep aggregates).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../support/variation_test_problems.hpp"
#include "circuits/analytic_problems.hpp"
#include "circuits/resilient_problem.hpp"
#include "circuits/robust_problem.hpp"
#include "core/de.hpp"
#include "core/ma_optimizer.hpp"
#include "core/pso.hpp"
#include "core/random_search.hpp"
#include "gp/bo_optimizer.hpp"
#include "linalg/dispatch.hpp"
#include "obs/jsonl_writer.hpp"
#include "serve/service_config.hpp"

namespace maopt::obs {
namespace {

/// FNV-1a digest of the canonical transcript of all stacks. MA-Opt's
/// trajectory depends on the numeric path: the x86-64-v3 clones (FMA) round
/// differently from the baseline SSE2 code that sanitizer builds and older
/// hosts run, so each path has its own frozen digest.
std::uint64_t frozen_digest() {
#if MAOPT_V3_DISPATCH
  if (host_has_v3()) return 0x36F0CECF5B810CE4ULL;
#endif
  return 0x7361CE6F2DF9646AULL;
}

const char* const kSimKeys[] = {"index", "iteration", "lane",         "ok",        "feasible",
                                "fom",   "retries",   "failure_kind", "cache_hit", "coalesced"};

/// The raw JSON token for `key` in one flat JSONL line: a string with its
/// quotes, or a scalar up to the next ',' or '}'.
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "<missing>";
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (line[begin] == '"') {
    end = line.find('"', begin + 1) + 1;
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  return line.substr(begin, end - begin);
}

/// Appends the canonical form of one JSONL stream: every sim event reduced
/// to kSimKeys, every run_finished reduced to its counters object.
void canonicalize(const std::string& path, std::string& out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"simulation_completed\"") != std::string::npos) {
      out += "sim";
      for (const char* key : kSimKeys) out += std::string(" ") + key + "=" + field(line, key);
      out += '\n';
    } else if (line.find("\"event\":\"run_finished\"") != std::string::npos) {
      const std::size_t begin = line.find("\"counters\":{");
      const std::size_t end = line.find('}', begin);
      out += "finished " + line.substr(begin, end + 1 - begin) + '\n';
    }
  }
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

core::MaOptConfig small_ma_opt() {
  core::MaOptConfig c = core::MaOptConfig::ma_opt();
  c.critic.hidden = {24, 24};
  c.critic.steps_per_round = 15;
  c.actor.hidden = {16, 16};
  c.actor.steps_per_round = 8;
  c.near_sampling.num_samples = 100;
  c.t_ns = 2;
  return c;
}

ckt::FaultInjectionConfig faults(std::uint64_t seed) {
  ckt::FaultInjectionConfig f;
  f.throw_rate = 0.1;
  f.nan_rate = 0.1;
  f.garbage_rate = 0.1;
  f.seed = seed;
  return f;
}

serve::ServiceConfig service_config() {
  return serve::ServiceConfig::builder().threads(1).resilient(true).max_retries(1).build();
}

/// A shared initial set and the FoM fitted on it.
struct Start {
  std::vector<core::SimRecord> initial;
  ckt::FomEvaluator fom;
};

Start start(const ckt::SizingProblem& problem, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<core::SimRecord> initial = core::sample_initial_set(problem, n, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : initial) rows.push_back(r.metrics);
  const ckt::FomEvaluator fom = ckt::FomEvaluator::fit_reference(problem, rows);
  return {std::move(initial), fom};
}

/// Runs `opt` into a fresh JSONL sink and appends the canonical stream
/// under a "stack <label>" header.
void run_one(std::string& out, const std::string& label, core::Optimizer& opt,
             const ckt::SizingProblem& problem, const Start& s, std::uint64_t seed,
             std::size_t budget) {
  const std::string path = ::testing::TempDir() + "maopt_provenance.jsonl";
  std::remove(path.c_str());
  {
    JsonlObserver sink(path);
    opt.run(problem, s.initial, s.fom,
            {.seed = seed, .simulation_budget = budget, .observer = &sink});
  }
  out += "stack " + label + '\n';
  canonicalize(path, out);
  std::remove(path.c_str());
}

/// Runs every stack and returns the concatenated canonical transcript.
std::string record() {
  std::string out;
  const ckt::ConstrainedQuadratic quadratic(4);
  const Start s = start(quadratic, 16, 3);
  const ckt::FaultInjectingProblem faulty(quadratic, faults(31));

  {  // Batch path: MA-Opt over the service, cold then warm.
    serve::ServiceStack stack(faulty, service_config());
    for (int pass = 0; pass < 2; ++pass) {
      core::MaOptimizer opt(small_ma_opt());
      run_one(out, "ma-opt/service", opt, stack.service(), s, 7, 18);
    }
  }
  {  // Lane path: MA-Opt over a bare resilient evaluator.
    const ckt::ResilientEvaluator resilient(faulty, service_config().resilient_config());
    core::MaOptimizer opt(small_ma_opt());
    run_one(out, "ma-opt/resilient", opt, resilient, s, 8, 18);
  }
  {  // Point path: every other optimizer over the same service.
    serve::ServiceStack stack(faulty, service_config());
    gp::BoConfig bo_config;
    bo_config.hyperfit_restarts = 2;
    bo_config.random_candidates = 64;
    bo_config.local_candidates = 16;
    gp::BoOptimizer bo(bo_config);
    core::PsoOptimizer pso;
    core::DeOptimizer de;
    core::RandomSearch random;
    core::Optimizer* const optimizers[] = {&bo, &pso, &de, &random, &random};
    for (core::Optimizer* opt : optimizers)
      run_one(out, opt->name() + "/service", *opt, stack.service(), s, 9, 12);
  }
  {  // Sweep aggregates: MA-Opt over corners over the faulty service.
    const ckt::testing::VariedAnalytic varied;
    const ckt::FaultInjectingProblem faulty_varied(varied, faults(41));
    serve::ServiceStack stack(faulty_varied, service_config());
    const ckt::RobustProblem robust(stack.service(), ckt::RobustConfig{});
    core::MaOptimizer opt(small_ma_opt());
    run_one(out, "ma-opt/robust", opt, robust, start(robust, 10, 5), 10, 12);
  }
  return out;
}

TEST(ProvenanceEquivalence, TranscriptIsReproducibleAndMatchesTheFrozenDigest) {
  const std::string first = record();
  const std::string second = record();
  ASSERT_EQ(first, second);

  // The transcript must exercise what it guards: retries, exhausted calls,
  // cache hits on the warm passes, and sweep-aggregate events with none.
  EXPECT_NE(first.find("retries=1"), std::string::npos);
  EXPECT_NE(first.find("failure_kind=\"exception\""), std::string::npos);
  EXPECT_NE(first.find("failure_kind=\"non-finite\""), std::string::npos);
  EXPECT_NE(first.find("cache_hit=true"), std::string::npos);
  EXPECT_NE(first.find("stack ma-opt/robust"), std::string::npos);

  EXPECT_EQ(fnv1a(first), frozen_digest()) << "transcript:\n" << first;
}

}  // namespace
}  // namespace maopt::obs
