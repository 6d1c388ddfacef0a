// Fault-tolerant optimization demo: MA-Opt driven over a simulator that
// throws, hangs, and returns NaN/garbage at a configurable rate — wrapped in
// the ResilientEvaluator (deadline + retries + scrubbing) and checkpointed so
// a killed run can resume without repeating simulations.
//
//   ./examples/fault_tolerance [--fault-rate 25] [--sims 40] [--seed 7]
//
// The demo runs the same budget twice: once uninterrupted, once resumed from
// the last mid-run checkpoint, and verifies both trajectories agree.
#include <cmath>
#include <cstdio>

#include "maopt.hpp"

int main(int argc, char** argv) {
  using namespace maopt;
  const CliArgs args(argc, argv);
  if (args.has("help")) {
    std::printf("usage: fault_tolerance [--fault-rate PCT] [--sims N] [--seed N]\n"
                "Runs MA-Opt over a faulty simulator, then resumes from a checkpoint\n"
                "and verifies the trajectories agree.\n");
    return 0;
  }
  const auto sims = static_cast<std::size_t>(args.get_int("sims", 40));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const double fault_rate = args.get_int("fault-rate", 25) / 100.0;

  // A clean analytic circuit, then a decorator stack that makes it nasty and
  // a second decorator that makes it safe again:
  //   ConstrainedQuadratic -> FaultInjectingProblem -> ResilientEvaluator
  ckt::ConstrainedQuadratic circuit(6);
  const ckt::FaultInjectingProblem faulty(
      circuit, ckt::FaultInjectionConfig::mixed(fault_rate, seed, /*hang_seconds=*/0.05));
  ckt::ResilientConfig rcfg;
  rcfg.deadline_seconds = 0.01;      // hangs become timeouts well before 50 ms
  rcfg.max_retries = 1;
  rcfg.max_metric_magnitude = 1e6;   // screens the injected ~1e12 garbage
  const ckt::ResilientEvaluator resilient(faulty, rcfg);

  Rng rng(seed);
  const auto initial = core::sample_initial_set(resilient, 30, rng);
  // Fit the FoM reference on clean rows only: failure sentinels would skew
  // f0_ref and silently rescale the FoM (making runs incomparable).
  std::vector<linalg::Vec> rows;
  for (const auto& r : initial)
    if (r.simulation_ok) rows.push_back(r.metrics);
  if (rows.empty())
    for (const auto& r : initial) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(circuit, rows);

  core::MaOptConfig cfg = core::MaOptConfig::ma_opt();
  cfg.checkpoint_path = "/tmp/maopt_demo.ckpt";
  cfg.checkpoint_every = 7;

  std::printf("%s with %.0f%% injected faults (throw/hang/NaN/garbage), %zu simulations\n\n",
              circuit.spec().name.c_str(), fault_rate * 100, sims);

  core::MaOptimizer opt(cfg);
  const core::RunHistory h = opt.run(resilient, initial, fom, {.seed = seed, .simulation_budget = sims});

  std::printf("run:      best FoM %.5g  (log10 %.2f), %zu/%zu simulations failed%s\n",
              h.best_fom_after.back(), std::log10(std::max(h.best_fom_after.back(), 1e-12)),
              h.failures(), h.simulations_used(), h.aborted ? " [ABORTED]" : "");
  std::printf("injector: %llu faults injected\n",
              static_cast<unsigned long long>(faulty.injected()));
  std::printf("shield:   %s\n\n", resilient.stats().report().c_str());

  // Pretend the run above was killed: resume from its last mid-run snapshot.
  // Replayed iterations retrain from the recorded simulations, so the resumed
  // trajectory lands on exactly the same designs and best FoM.
  const core::RunCheckpoint snapshot = core::load_checkpoint(cfg.checkpoint_path);
  std::printf("resuming from checkpoint at %zu/%zu simulations...\n",
              snapshot.history.simulations_used(), sims);
  core::MaOptimizer resumed_opt(cfg);
  const core::RunHistory resumed =
      resumed_opt.resume(resilient, snapshot, fom, {.simulation_budget = sims});
  const bool identical = resumed.records.size() == h.records.size() &&
                         resumed.best_fom_after.back() == h.best_fom_after.back();
  std::printf("resumed:  best FoM %.5g — trajectories %s\n", resumed.best_fom_after.back(),
              identical ? "identical" : "DIVERGED");
  return identical ? 0 : 1;
}
