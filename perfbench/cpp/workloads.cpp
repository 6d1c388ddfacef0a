#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>

#include "circuits/fom.hpp"
#include "circuits/ldo_regulator.hpp"
#include "circuits/robust_problem.hpp"
#include "circuits/two_stage_ota.hpp"
#include "core/history.hpp"
#include "core/ma_optimizer.hpp"
#include "deck/deck_problem.hpp"
#include "serve/daemon.hpp"
#include "serve/service_config.hpp"

#include "probes.hpp"
#include "timed_problem.hpp"

namespace perfbench {

namespace {

using namespace maopt;

// Paper budget (Section IV): 100 random initial designs, then 200 sims.
constexpr std::size_t kOtaInitial = 100;
constexpr std::size_t kOtaBudget = 200;
// One yield rep: this many seeded designs, each swept over 64 instances.
constexpr std::size_t kYieldDesigns = 16;
constexpr int kYieldInstances = 64;
// Daemon jobs use the JobSpec defaults: 40 initial designs + 100 sims.
constexpr std::size_t kJobInitial = 40;
constexpr std::size_t kJobBudget = 100;
// Per-attempt simulation deadline of the production service config: far
// above any single simulation, so it bounds work without ever firing.
constexpr double kDeadlineSeconds = 5.0;

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_result(const ckt::EvalResult& a, const ckt::EvalResult& b) {
  return same_bits(a.metrics, b.metrics) && a.simulation_ok == b.simulation_ok &&
         a.degraded == b.degraded && a.variants_failed == b.variants_failed &&
         a.variants_total == b.variants_total;
}

void write_circuits(Json& out, const CircuitStats& s) {
  out.key("circuits").begin_object();
  out.field("evaluations", s.evaluations);
  out.field("failed", s.failed);
  out.field("sessions_created", s.sessions_created);
  out.field("busy_s", s.busy_s);
  out.field("durations_us", s.durations_us);
  out.end_object();
}

CircuitStats merge(CircuitStats a, const CircuitStats& b) {
  a.evaluations += b.evaluations;
  a.failed += b.failed;
  a.sessions_created += b.sessions_created;
  a.busy_s += b.busy_s;
  a.durations_us.insert(a.durations_us.end(), b.durations_us.begin(), b.durations_us.end());
  return a;
}

void write_eval(Json& out, const eval::EvalCounters& c) {
  out.begin_object();
  out.field("requested", c.requested);
  out.field("hits", c.hits);
  out.field("misses", c.misses);
  out.field("coalesced", c.coalesced);
  out.field("simulations", c.simulations);
  out.end_object();
}

void write_check(Json& out, const char* name, bool ok) {
  out.begin_object().field("name", name).field("ok", ok).end_object();
}

void write_iterations(Json& out, const std::vector<IterationRecord>& iterations) {
  out.key("iterations").begin_array();
  for (const IterationRecord& it : iterations) {
    out.begin_object();
    out.field("wall_s", it.wall_s);
    out.field("near_sampling", it.near_sampling);
    out.key("spans").begin_array();
    for (const obs::PhaseSpan& s : it.spans)
      out.begin_array().value(obs::to_string(s.phase)).value(s.lane).value(s.seconds).end_array();
    out.end_array();
    out.end_object();
  }
  out.end_array();
}

/// ota_ma_opt: paper-config MA-Opt on the bare two-stage OTA.
void ota_ma_opt(std::uint64_t seed, bool traced, Json& out) {
  const auto rep_start = Clock::now();
  ckt::TwoStageOta ota;
  TimedProblem problem(ota, traced);
  Rng rng(seed);
  const std::vector<core::SimRecord> initial = core::sample_initial_set(problem, kOtaInitial, rng);
  std::vector<Vec> rows;
  rows.reserve(initial.size());
  for (const core::SimRecord& r : initial) rows.push_back(r.metrics);
  const ckt::FomEvaluator fom = ckt::FomEvaluator::fit_reference(problem, rows);
  const double setup_s = seconds_between(rep_start, Clock::now());

  core::MaOptimizer optimizer(core::MaOptConfig::ma_opt());
  StepClock steps;
  SpanRecorder spans;
  core::RunOptions run;
  run.seed = seed;
  run.simulation_budget = kOtaBudget;
  run.control = &steps;
  run.observer = traced ? &spans : nullptr;
  const auto run_start = Clock::now();
  const core::RunHistory history = optimizer.run(problem, initial, fom, run);
  const auto run_end = Clock::now();
  const CircuitStats circuits = problem.stats();

  // Output check outside the timed region: the best design re-simulates on a
  // fresh circuit to exactly the metrics the run recorded for it.
  const core::SimRecord* best = history.best();
  const bool best_replays = best != nullptr && same_bits(ckt::TwoStageOta().evaluate(best->x).metrics,
                                                         best->metrics);
  bool initial_feasible = false;
  long first_feasible = -1;
  std::vector<double> foms;
  foms.reserve(history.records.size());
  for (std::size_t i = 0; i < history.records.size(); ++i) {
    const core::SimRecord& r = history.records[i];
    foms.push_back(r.fom);
    if (!r.feasible) continue;
    if (i < history.num_initial) initial_feasible = true;
    else if (first_feasible < 0) first_feasible = static_cast<long>(i - history.num_initial);
  }
  const std::size_t used = history.simulations_used();
  const bool spent = used == kOtaBudget && !history.aborted;

  out.field("setup_s", setup_s);
  out.field("wall_s", seconds_between(run_start, run_end));
  out.field("sims", static_cast<std::uint64_t>(used));
  out.field("budget", static_cast<std::uint64_t>(kOtaBudget));
  out.field("unspent", static_cast<std::uint64_t>(kOtaBudget - std::min(used, kOtaBudget)));
  out.field("operations", std::uint64_t{1});
  out.field("failed_operations", std::uint64_t{spent ? 0U : 1U});
  out.field("dim", static_cast<std::uint64_t>(problem.dim()));
  out.field("metrics", static_cast<std::uint64_t>(problem.num_metrics()));
  out.field("steps_ms", steps.steps_ms(run_end));
  out.field("foms", foms);
  out.field("best_fom", best != nullptr ? best->fom : fom(problem.failure_metrics()));
  out.field("initial_feasible", initial_feasible);
  out.field("first_feasible", first_feasible);
  out.field("train_s", history.train_seconds);
  out.field("lanes", optimizer.config().num_actors);
  write_circuits(out, circuits);
  if (traced) write_iterations(out, spans.iterations());
  out.key("checks").begin_array();
  write_check(out, "budget_spent_exactly", spent);
  write_check(out, "best_design_replays", best_replays);
  write_check(out, "every_sim_reached_circuit", circuits.evaluations == history.records.size());
  out.end_array();
}

/// ota_mc_yield: 64-instance Monte Carlo yield of seeded OTA designs through
/// a cold ServiceStack.
void ota_mc_yield(const Options& o, std::uint64_t seed, bool traced, Json& out) {
  const auto rep_start = Clock::now();
  ckt::TwoStageOta ota;
  TimedProblem problem(ota, traced);
  serve::ServiceStack stack(problem, serve::ServiceConfig::builder().threads(o.workers).build());
  ckt::YieldConfig config;
  config.mismatch.instances = kYieldInstances;
  config.mismatch.seed_base = 1 + seed % 1000000007ULL;  // 0 would be nominal-like
  const ckt::YieldProblem yield(stack.service(), config);
  Rng rng(seed);
  std::vector<Vec> designs;
  for (std::size_t i = 0; i < kYieldDesigns; ++i) designs.push_back(problem.random_design(rng));
  const double setup_s = seconds_between(rep_start, Clock::now());

  std::vector<double> steps_ms;
  std::vector<ckt::EvalResult> results;
  const auto run_start = Clock::now();
  for (const Vec& x : designs) {
    const auto t = Clock::now();
    results.push_back(yield.evaluate(x));
    steps_ms.push_back(1e3 * seconds_between(t, Clock::now()));
  }
  const auto run_end = Clock::now();
  const CircuitStats circuits = problem.stats();
  const eval::EvalCounters counters = stack.service().counters();

  // Output checks outside the timed region: every sweep covered all 64
  // instances, and the first design's batched result equals a serial sweep
  // over a bare circuit bit for bit.
  bool full_width = true;
  std::uint64_t failed_results = 0;
  std::vector<double> trajectory;
  for (const ckt::EvalResult& r : results) {
    full_width = full_width && r.variants_total == static_cast<std::uint32_t>(kYieldInstances);
    failed_results += r.simulation_ok ? 0 : 1;
    trajectory.insert(trajectory.end(), r.metrics.begin(), r.metrics.end());
    trajectory.push_back(r.simulation_ok ? 1.0 : 0.0);
    trajectory.push_back(static_cast<double>(r.variants_failed));
  }
  const ckt::TwoStageOta reference_ota;
  const ckt::YieldProblem serial(reference_ota, config);
  const bool matches_serial = !serial.batched() && yield.batched() &&
                              same_result(serial.evaluate(designs[0]), results[0]);

  out.field("setup_s", setup_s);
  out.field("wall_s", seconds_between(run_start, run_end));
  out.field("sims", static_cast<std::uint64_t>(kYieldDesigns * kYieldInstances));
  out.field("unspent", std::uint64_t{0});
  out.field("operations", static_cast<std::uint64_t>(kYieldDesigns));
  out.field("failed_operations", failed_results);
  out.field("steps_ms", steps_ms);
  out.field("foms", trajectory);
  out.field("workers", static_cast<std::uint64_t>(o.workers));
  write_circuits(out, circuits);
  out.key("eval").begin_object();
  out.key("service");
  write_eval(out, counters);
  out.end_object();
  out.key("checks").begin_array();
  write_check(out, "variants_total_is_64", full_width);
  write_check(out, "batched_equals_serial", matches_serial);
  write_check(out, "every_variant_simulated_once",
              circuits.evaluations == kYieldDesigns * kYieldInstances &&
                  counters.simulations == circuits.evaluations);
  out.end_array();
}

serve::JobSpec job(const std::string& name, const std::string& tenant, const std::string& problem,
                   std::uint64_t seed, const std::filesystem::path& dir) {
  serve::JobSpec spec;
  spec.name = name;
  spec.tenant = tenant;
  spec.problem = problem;
  spec.algorithm = "MA-Opt";
  spec.seed = seed;
  spec.simulation_budget = kJobBudget;
  spec.initial_samples = kJobInitial;
  spec.jsonl_path = (dir / (name + ".jsonl")).string();
  return spec;
}

/// daemon_tenants: two tenants' concurrent MA-Opt jobs (LDO, compiled deck)
/// on one OptDaemon, then the LDO job again at the same seed.
void daemon_tenants(const Options& o, std::uint64_t seed, bool traced, int rep, Json& out) {
  const std::filesystem::path dir =
      std::filesystem::path(o.work_dir) / ("daemon-" + std::to_string(rep) + (traced ? "-t" : "-u"));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Declaration order is teardown order in reverse: the daemon (and with it
  // every job thread) goes first, before the problems and probes it calls.
  const auto rep_start = Clock::now();
  ckt::LdoRegulator ldo;
  TimedProblem ldo_timed(ldo, traced);
  const auto compile_start = Clock::now();
  deck::DeckProblem deck = deck::DeckProblem::from_files(o.deck_path);
  const double compile_s = seconds_between(compile_start, Clock::now());
  TimedProblem deck_timed(deck, traced);
  JobClock job_clock;
  std::optional<TimedAdmission> admission;
  serve::DaemonConfig config;
  config.work_dir = (dir / "state").string();
  config.num_threads = o.workers;
  config.service =
      serve::ServiceConfig::builder().resilient(true).deadline_seconds(kDeadlineSeconds).build();
  config.scheduler.capacity = o.workers;
  config.observer = &job_clock;
  serve::OptDaemon daemon(config);
  daemon.add_problem("ldo", ldo_timed);
  daemon.add_problem("ota5", deck_timed);
  daemon.register_tenant("tenant-ldo");
  daemon.register_tenant("tenant-deck");
  if (traced) {
    job_clock.attach(&daemon.scheduler());
    admission.emplace(daemon.scheduler());
    daemon.service("ldo").set_admission(&*admission);
    daemon.service("ota5").set_admission(&*admission);
  }
  const double construct_s = seconds_between(rep_start, Clock::now());

  const auto cold_start = Clock::now();
  daemon.submit(job("ldo-cold", "tenant-ldo", "ldo", seed, dir));
  daemon.submit(job("ota5-cold", "tenant-deck", "ota5", seed, dir));
  daemon.wait("ldo-cold");
  daemon.wait("ota5-cold");
  const auto warm_start = Clock::now();
  daemon.submit(job("ldo-warm", "tenant-ldo", "ldo", seed, dir));
  daemon.wait("ldo-warm");
  const auto warm_end = Clock::now();

  const std::vector<serve::JobStatus> statuses = daemon.jobs();
  const eval::EvalCounters ldo_counters = daemon.service("ldo").counters();
  const eval::EvalCounters deck_counters = daemon.service("ota5").counters();
  // Every job has ended (wait returned on a terminal state), so the circuit
  // counters are final.
  const CircuitStats circuits = merge(ldo_timed.stats(), deck_timed.stats());

  bool all_done = true;
  std::uint64_t requests = 0, unspent = 0, failed_jobs = 0;
  const std::map<std::string, double> run_s = job_clock.run_seconds();
  // The jobs' initial-set sampling completes the set-up; run.py adds it from
  // the job streams.
  out.field("construct_s", construct_s);
  out.field("deck_compile_s", compile_s);
  out.field("cold_s", seconds_between(cold_start, warm_start));
  out.field("warm_s", seconds_between(warm_start, warm_end));
  out.field("wall_s", seconds_between(cold_start, warm_end));
  out.field("workers", static_cast<std::uint64_t>(o.workers));
  out.key("shapes").begin_object();
  out.key("ldo").begin_array().value(static_cast<std::uint64_t>(ldo.dim()))
      .value(static_cast<std::uint64_t>(ldo.num_metrics())).end_array();
  out.key("ota5").begin_array().value(static_cast<std::uint64_t>(deck.dim()))
      .value(static_cast<std::uint64_t>(deck.num_metrics())).end_array();
  out.end_object();
  out.key("jobs").begin_array();
  for (const serve::JobStatus& status : statuses) {
    const bool done = status.state == serve::JobState::Done && status.simulations == kJobBudget;
    all_done = all_done && done;
    failed_jobs += done ? 0 : 1;
    requests += kJobInitial + status.simulations;
    unspent += kJobBudget - std::min<std::uint64_t>(status.simulations, kJobBudget);
    const auto clock = run_s.find(status.spec.name);
    out.begin_object();
    out.field("name", status.spec.name);
    out.field("problem", status.spec.problem);
    out.field("state", serve::to_string(status.state));
    out.field("simulations", status.simulations);
    out.field("best_fom", status.best_fom);
    out.field("run_s", clock == run_s.end() ? 0.0 : clock->second);
    out.field("jsonl", status.spec.jsonl_path);
    out.end_object();
  }
  out.end_array();
  out.field("sims", requests);
  out.field("unspent", unspent);
  out.field("operations", static_cast<std::uint64_t>(statuses.size()));
  out.field("failed_operations", failed_jobs);
  write_circuits(out, circuits);
  out.key("eval").begin_object();
  out.key("ldo");
  write_eval(out, ldo_counters);
  out.key("ota5");
  write_eval(out, deck_counters);
  out.end_object();
  if (traced) {
    out.key("admission").begin_object();
    out.field("wait_s", admission->wait_s());
    out.field("requests", admission->requests());
    out.field("waiting_max", admission->waiting_max());
    out.key("grants_at_first_finish").begin_object();
    for (const auto& [tenant, granted] : job_clock.grants_at_first_finish())
      out.field(tenant, granted);
    out.end_object();
    out.end_object();
  }
  out.key("checks").begin_array();
  write_check(out, "every_job_done_with_budget_spent", all_done && statuses.size() == 3);
  out.end_array();
}

}  // namespace

int planned_reps(const Options& options) {
  // Typical seconds per rep: set-up, the workload and its output checks.
  const double rep_seconds = options.workload == "ota_ma_opt"     ? 5.3
                             : options.workload == "ota_mc_yield" ? 1.1
                                                                  : 8.6;
  const double per_unit = options.trace ? 2.0 * rep_seconds : rep_seconds;
  return std::max(1, static_cast<int>(options.seconds / per_unit));
}

bool known_workload(const std::string& name) {
  return name == "ota_ma_opt" || name == "ota_mc_yield" || name == "daemon_tenants";
}

void run_rep(const Options& options, std::uint64_t sub_seed, bool traced, int rep, Json& out) {
  out.begin_object();
  out.field("rep", rep);
  out.field("traced", traced);
  out.field("sub_seed", sub_seed);
  if (options.workload == "ota_ma_opt")
    ota_ma_opt(sub_seed, traced, out);
  else if (options.workload == "ota_mc_yield")
    ota_mc_yield(options, sub_seed, traced, out);
  else
    daemon_tenants(options, sub_seed, traced, rep, out);
  out.end_object();
}

}  // namespace perfbench
