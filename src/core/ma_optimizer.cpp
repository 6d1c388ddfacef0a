#include "core/ma_optimizer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "eval/eval_service.hpp"

namespace maopt::core {

MaOptConfig MaOptConfig::dnn_opt() {
  MaOptConfig c;
  c.name = "DNN-Opt";
  c.num_actors = 1;
  c.shared_elite_set = true;  // single actor: shared vs individual identical
  c.use_near_sampling = false;
  return c;
}

MaOptConfig MaOptConfig::ma_opt1() {
  MaOptConfig c;
  c.name = "MA-Opt1";
  c.num_actors = 3;
  c.shared_elite_set = false;
  c.use_near_sampling = false;
  return c;
}

MaOptConfig MaOptConfig::ma_opt2() {
  MaOptConfig c;
  c.name = "MA-Opt2";
  c.num_actors = 3;
  c.shared_elite_set = true;
  c.use_near_sampling = false;
  return c;
}

MaOptConfig MaOptConfig::ma_opt() {
  MaOptConfig c;
  c.name = "MA-Opt";
  c.num_actors = 3;
  c.shared_elite_set = true;
  c.use_near_sampling = true;
  return c;
}

RunHistory MaOptimizer::do_run(const SizingProblem& problem,
                               const std::vector<SimRecord>& initial, const FomEvaluator& fom,
                               const RunOptions& options, obs::RunTelemetry& telemetry) {
  return run_impl(problem, initial, {}, fom, options.seed, options.simulation_budget,
                  /*checkpoint_timers=*/nullptr, options.control, telemetry);
}

RunHistory MaOptimizer::resume(const SizingProblem& problem, const RunCheckpoint& checkpoint,
                               const FomEvaluator& fom, const RunOptions& options) {
  const RunHistory& h = checkpoint.history;
  MAOPT_CHECK(h.num_initial <= h.records.size(),
              "MaOptimizer::resume: corrupt checkpoint (num_initial > records)");
  const auto split = h.records.begin() + static_cast<std::ptrdiff_t>(h.num_initial);
  std::vector<SimRecord> initial(h.records.begin(), split);
  std::vector<SimRecord> replay(split, h.records.end());
  // Replayed records are not simulated again, so they carry no call detail.
  for (SimRecord& r : replay) r.call = {};

  // Same telemetry bracketing as Optimizer::run — a resumed run is a run.
  obs::RunTelemetry telemetry(options.observer);
  RunOptions effective = options;
  effective.seed = checkpoint.seed;
  emit_run_started(telemetry, name(), problem, initial.size(), effective);
  RunHistory history = run_impl(problem, std::move(initial), std::move(replay), fom,
                                checkpoint.seed, options.simulation_budget, &h, options.control,
                                telemetry);
  emit_run_finished(telemetry, history);
  return history;
}

RunHistory MaOptimizer::run_impl(const SizingProblem& problem, std::vector<SimRecord> initial,
                                 std::vector<SimRecord> replay, const FomEvaluator& fom,
                                 std::uint64_t seed, std::size_t simulation_budget,
                                 const RunHistory* checkpoint_timers, RunControl* control,
                                 obs::RunTelemetry& telemetry) {
  RunHistory history;
  history.algorithm = config_.name;
  history.records = std::move(initial);
  history.num_initial = history.records.size();
  annotate_foms(history.records, problem, fom);
  if (checkpoint_timers != nullptr) {
    // Replayed iterations retrain but do not simulate; carry the original
    // run's cost accounting and add only post-resume work on top.
    history.sim_seconds = checkpoint_timers->sim_seconds;
    history.train_seconds = checkpoint_timers->train_seconds;
    history.ns_seconds = checkpoint_timers->ns_seconds;
    history.wall_seconds = checkpoint_timers->wall_seconds;
  }

  const std::size_t d = problem.dim();
  const std::size_t m1 = problem.num_metrics();
  const nn::RangeScaler scaler(problem.lower_bounds(), problem.upper_bounds());
  const auto n_act = static_cast<std::size_t>(std::max(1, config_.num_actors));

  Rng critic_rng(derive_seed(seed, 0xC0));
  CriticEnsemble critic(static_cast<std::size_t>(std::max(1, config_.num_critics)), d, m1,
                        config_.critic, critic_rng);

  std::vector<Actor> actors;
  actors.reserve(n_act);
  for (std::size_t i = 0; i < n_act; ++i) {
    Rng actor_rng(derive_seed(seed, 0xA0 + i));
    actors.emplace_back(d, config_.actor, actor_rng);
  }

  // Elite sets: one shared, or one per actor (Fig. 2a vs 2b). Only clean
  // simulations may enter: a failed record's penalty FoM would anchor the
  // elite bounding box to a garbage design.
  const std::size_t n_sets = config_.shared_elite_set ? 1 : n_act;
  std::deque<EliteSet> elites;  // deque: EliteSet holds a mutex (immovable)
  for (std::size_t i = 0; i < n_sets; ++i) elites.emplace_back(config_.elite_size);
  for (const auto& r : history.records)
    if (r.simulation_ok)
      for (auto& es : elites) es.try_insert(r.x, r.fom);

  bool specs_met = false;
  for (const auto& r : history.records) specs_met = specs_met || r.feasible;

  // Surrogate training set: clean records only (failed simulations would
  // teach the critic penalty plateaus instead of circuit behaviour). The
  // scrubbed full history is the fallback for the all-failed degenerate case
  // so batching stays well-posed.
  std::vector<SimRecord> ok_records;
  ok_records.reserve(history.records.size() + simulation_budget);
  for (const auto& r : history.records)
    if (r.simulation_ok) ok_records.push_back(r);

  // Finite stand-in used by the trajectory until a clean design exists.
  const double penalty_fom = fom(problem.failure_metrics());

  ThreadPool pool(config_.num_threads == 0 ? n_act : config_.num_threads);
  Rng ns_rng(derive_seed(seed, 0x45));

  Stopwatch total;
  std::size_t sims = 0;
  bool critic_trained = false;
  int consecutive_failures = 0;
  double running_best = penalty_fom;
  bool have_best = false;
  for (const auto& r : history.records)
    if (r.simulation_ok) {
      running_best = have_best ? std::min(running_best, r.fom) : r.fom;
      have_best = true;
    }

  std::size_t replay_pos = 0;
  const std::size_t replay_count = replay.size();
  std::atomic<bool> replay_diverged{false};
  const bool checkpointing = config_.checkpoint_every > 0 && !config_.checkpoint_path.empty();

  // Telemetry plumbing: spans collected per iteration (actor workers report
  // into their own lanes). With no observer every emit below is a single
  // branch on null.
  obs::SpanCollector spans(telemetry.enabled());
  // When the problem is an EvalService, per-iteration proposals are routed
  // through evaluate_batch (one batch per iteration).
  const auto* service = dynamic_cast<const eval::EvalService*>(&problem);
  int current_iter = 0;

  auto emit_checkpoint = [&](std::uint64_t bytes, int iteration) {
    ++telemetry.counters().checkpoints;
    telemetry.counters().checkpoint_bytes += bytes;
    if (telemetry.enabled()) {
      obs::CheckpointWritten event;
      event.path = config_.checkpoint_path;
      event.iteration = static_cast<std::uint64_t>(iteration);
      event.simulations_done = sims;
      event.bytes = bytes;
      telemetry.emit(event);
    }
  };

  // `lane` is the proposing actor (-1 for near-sampling); `seconds` the
  // simulation's wall clock (0 for a replayed record).
  auto append_record = [&](SimRecord rec, std::ptrdiff_t actor_set, int lane, double seconds) {
    const bool ok = annotate_record(rec, problem, fom);
    specs_met = specs_met || rec.feasible;
    if (ok) {
      consecutive_failures = 0;
      const obs::ScopedSpan elite_span(spans, obs::Phase::EliteUpdate);
      if (config_.shared_elite_set) {
        elites[0].try_insert(rec.x, rec.fom);
      } else if (actor_set >= 0) {
        // Individual sets: actor i's result refreshes only its own set.
        elites[static_cast<std::size_t>(actor_set)].try_insert(rec.x, rec.fom);
      } else {
        // Near-sampling results are not tied to one actor; refresh every set.
        for (auto& es : elites) es.try_insert(rec.x, rec.fom);
      }
      ok_records.push_back(rec);
      running_best = have_best ? std::min(running_best, rec.fom) : rec.fom;
      have_best = true;
    } else {
      ++consecutive_failures;
    }
    history.records.push_back(std::move(rec));
    // Failed records never improve the trajectory: their penalty FoM is
    // budget bookkeeping, not a design the run could return.
    history.best_fom_after.push_back(running_best);
    emit_simulation(telemetry, history.records.back(), sims,
                    static_cast<std::uint64_t>(current_iter), lane, seconds);
    ++sims;
  };

  for (int t = 1; sims < simulation_budget; ++t) {
    // Cooperative yield point: records are consistent at iteration
    // boundaries, so this is the one place a pause checkpoint may be taken.
    // Pause is deferred while a resume replay is still in progress — the
    // on-disk snapshot already covers the replayed prefix.
    if (control != nullptr) {
      const RunControl::Signal signal = control->poll();
      if (signal == RunControl::Signal::Kill) {
        history.aborted = true;
        history.abort_reason = "killed";
        break;
      }
      if (signal == RunControl::Signal::Pause && replay_pos >= replay_count) {
        if (!config_.checkpoint_path.empty())
          emit_checkpoint(save_checkpoint(config_.checkpoint_path, history, seed), t - 1);
        break;
      }
    }

    if (config_.max_consecutive_failures > 0 &&
        consecutive_failures >= config_.max_consecutive_failures) {
      history.aborted = true;
      history.abort_reason = std::to_string(consecutive_failures) +
                             " consecutive failed simulations (circuit breaker)";
      log_warn() << config_.name << ": aborting run after " << history.abort_reason;
      break;
    }

    current_iter = t;
    Stopwatch iter_clock;
    const bool replaying = replay_pos < replay_count;
    const bool ns_turn = specs_met && config_.use_near_sampling && critic_trained &&
                         (t % std::max(1, config_.t_ns) == 0);
    const SimRecord* anchor = ns_turn ? history.best() : nullptr;
    const bool ns_iteration = ns_turn && anchor != nullptr;
    if (ns_iteration) {
      // --- Algorithm 2: near-sampling, one simulation, no training ---
      Stopwatch ns_clock;
      Vec candidate;
      {
        const obs::ScopedSpan ns_span(spans, obs::Phase::NearSample);
        candidate = near_sampling_candidate(problem, fom, critic, scaler, anchor->x,
                                            config_.near_sampling, ns_rng);
      }
      if (!replaying) history.ns_seconds += ns_clock.elapsed_seconds();

      SimRecord rec;
      double sim_s = 0.0;
      if (replaying) {
        rec = std::move(replay[replay_pos++]);
        if (rec.x != candidate) replay_diverged.store(true, std::memory_order_relaxed);
      } else {
        Stopwatch sim_clock;
        {
          const obs::ScopedSpan sim_span(spans, obs::Phase::Simulate);
          rec = evaluate_record(problem, candidate);
        }
        sim_s = sim_clock.elapsed_seconds();
        history.sim_seconds += sim_s;
      }
      append_record(std::move(rec), /*actor_set=*/-1, /*lane=*/-1, sim_s);
      ++telemetry.counters().ns_iterations;
    } else {
      // --- Algorithm 1: critic training, then parallel actor rounds ---
      Stopwatch train_clock;
      const std::vector<SimRecord>& training_set =
          ok_records.empty() ? history.records : ok_records;
      {
        const obs::ScopedSpan train_span(spans, obs::Phase::CriticTrain);
        const PseudoSampleBatcher batcher(training_set, scaler);
        critic.fit_normalizer(training_set, &pool);
        critic.train_round(batcher, critic_rng, &pool);
      }
      critic_trained = true;
      if (!replaying) history.train_seconds += train_clock.elapsed_seconds();

      const std::size_t workers = std::min(n_act, simulation_budget - sims);
      std::vector<SimRecord> results(workers);
      // Per lane: training and simulation time for the history (thread CPU
      // time on the lane path), and the simulation wall clock for telemetry.
      std::vector<double> worker_train_s(workers, 0.0), worker_sim_s(workers, 0.0);
      std::vector<double> worker_wall_s(workers, 0.0);
      // Batched path: workers only *propose*; the proposals are evaluated
      // below as one evaluate_batch call (in-batch duplicates coalesce).
      std::vector<Vec> pending(workers);
      std::vector<unsigned char> needs_sim(workers, 0);

      pool.parallel_for(workers, [&](std::size_t i) {
        Rng rng(derive_seed(seed, 0x1000 + static_cast<std::uint64_t>(t) * 64 + i));
        EliteSet& elite = config_.shared_elite_set ? elites[0] : elites[i];

        ThreadCpuTimer tclock;
        obs::ScopedSpan train_span(spans, obs::Phase::ActorTrain, static_cast<int>(i));
        CriticEnsemble local_critic(critic);  // private forward/backward workspace
        Vec lb_raw, ub_raw;
        elite.bounds(lb_raw, ub_raw);
        // Map the elite box to unit space (degenerate boxes stay degenerate:
        // the violation term then pins proposals to the elite's column values).
        const Vec lb_unit = scaler.to_unit(lb_raw);
        const Vec ub_unit = scaler.to_unit(ub_raw);
        actors[i].train_round(local_critic, fom, training_set, scaler, lb_unit, ub_unit, rng);
        const Vec proposal_unit =
            actors[i].select_candidate_unit(local_critic, fom, elite.snapshot(), scaler);
        worker_train_s[i] = tclock.elapsed_seconds();
        train_span.stop();

        Vec candidate(d);
        for (std::size_t c = 0; c < d; ++c) candidate[c] = std::clamp(proposal_unit[c], -1.0, 1.0);
        candidate = problem.clip(scaler.from_unit(candidate));

        if (replay_pos + i < replay_count) {
          results[i] = replay[replay_pos + i];
          if (results[i].x != candidate) replay_diverged.store(true, std::memory_order_relaxed);
        } else if (service != nullptr) {
          pending[i] = std::move(candidate);
          needs_sim[i] = 1;
        } else {
          ThreadCpuTimer sclock;
          Stopwatch sim_wall;
          {
            const obs::ScopedSpan sim_span(spans, obs::Phase::Simulate, static_cast<int>(i));
            results[i] = evaluate_record(problem, std::move(candidate));
          }
          worker_sim_s[i] = sclock.elapsed_seconds();
          worker_wall_s[i] = sim_wall.elapsed_seconds();
        }
      });

      if (service != nullptr) {
        // One batch per iteration: the N_act proposals fan over the service
        // pool, sharing the cache and coalescing duplicates.
        std::vector<Vec> batch;
        std::vector<std::size_t> owner;
        for (std::size_t i = 0; i < workers; ++i) {
          if (needs_sim[i] == 0) continue;
          batch.push_back(std::move(pending[i]));
          owner.push_back(i);
        }
        if (!batch.empty()) {
          std::vector<ckt::EvalResult> batch_results;
          bool batch_ok = true;
          try {
            batch_results = service->evaluate_batch(batch);
          } catch (...) {
            batch_ok = false;  // fall back to per-item exception capture below
          }
          for (std::size_t k = 0; k < owner.size(); ++k) {
            const std::size_t i = owner[k];
            if (batch_ok) {
              results[i].x = std::move(batch[k]);
              results[i].metrics = std::move(batch_results[k].metrics);
              results[i].simulation_ok = batch_results[k].simulation_ok;
              copy_provenance(results[i], batch_results[k]);
            } else {
              results[i] = evaluate_record(problem, std::move(batch[k]));
            }
            const double sim_s = results[i].call.seconds;
            worker_sim_s[i] = sim_s;
            worker_wall_s[i] = sim_s;
            // Not a ScopedSpan: the duration was measured inside the service
            // worker; a call-site span would time result bookkeeping instead.
            spans.add(obs::Phase::Simulate, static_cast<int>(i), sim_s);  // maopt-lint: allow(observer-bracketing)
          }
        }
      }

      for (std::size_t i = 0; i < workers; ++i) {
        if (replay_pos + i >= replay_count) {
          history.train_seconds += worker_train_s[i];
          history.sim_seconds += worker_sim_s[i];
        }
        append_record(std::move(results[i]),
                      config_.shared_elite_set ? 0 : static_cast<std::ptrdiff_t>(i),
                      static_cast<int>(i), worker_wall_s[i]);
      }
      replay_pos += std::min(workers, replay_count - replay_pos);
    }

    ++telemetry.counters().iterations;
    if (telemetry.enabled()) {
      obs::IterationCompleted event;
      event.iteration = static_cast<std::uint64_t>(t);
      event.simulations_done = sims;
      event.best_fom = running_best;
      event.feasible_found = specs_met;
      event.near_sampling = ns_iteration;
      event.wall_seconds = iter_clock.elapsed_seconds();
      event.spans = spans.take();
      telemetry.emit(event);
    }

    // Snapshot at iteration boundaries only (records are consistent there);
    // replayed iterations are skipped — the on-disk state already covers them.
    if (checkpointing && replay_pos >= replay_count && t % config_.checkpoint_every == 0)
      emit_checkpoint(save_checkpoint(config_.checkpoint_path, history, seed), t);
  }

  if (replay_diverged.load(std::memory_order_relaxed))
    log_warn() << config_.name
               << ": resume replay diverged from the checkpointed trajectory (different "
                  "problem/config/budget?); the recorded simulations were kept";
  // A final snapshot on abort lets the operator inspect (or resume) the
  // partial run the circuit breaker saved.
  if (history.aborted && checkpointing)
    emit_checkpoint(save_checkpoint(config_.checkpoint_path, history, seed), current_iter);
  history.wall_seconds += total.elapsed_seconds();
  return history;
}

}  // namespace maopt::core
