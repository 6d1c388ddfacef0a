// MA-Opt (paper Algorithms 1 and 3) and its ablations, configured by
// MaOptConfig:
//   * DNN-Opt  [16]: 1 actor,            no near-sampling
//   * MA-Opt^1     : N_act actors, individual elite sets, no near-sampling
//   * MA-Opt^2     : N_act actors, shared elite set,      no near-sampling
//   * MA-Opt       : N_act actors, shared elite set,      near-sampling
//
// Per iteration (Algorithm 1): the critic is trained on pseudo-samples of
// the total design set, then each actor — concurrently on its own thread,
// with a private critic copy — trains against the critic (Eq. 5), picks the
// elite state whose proposed move has the lowest predicted FoM, and
// simulates the proposal. Once specs are met, every T_NS-th iteration runs
// the near-sampling method instead (Algorithm 3), costing one simulation
// and no actor training.
#pragma once

#include "core/actor.hpp"
#include "core/critic.hpp"
#include "core/history.hpp"
#include "core/history_io.hpp"
#include "core/near_sampling.hpp"
#include "core/optimizer.hpp"

namespace maopt::core {

struct MaOptConfig {
  std::string name = "MA-Opt";
  int num_actors = 3;          ///< N_act (paper: 3)
  int num_critics = 1;         ///< >1: ensemble (paper rejects this for memory; see ablation)
  bool shared_elite_set = true;
  bool use_near_sampling = true;
  int t_ns = 5;                ///< T_NS (paper: 5)
  std::size_t elite_size = 20; ///< N_es
  NearSamplingConfig near_sampling{};  ///< N_samples = 2000 (paper)
  CriticConfig critic{};
  ActorConfig actor{};
  std::size_t num_threads = 0;  ///< 0 -> num_actors

  // Fault tolerance / checkpointing (see README "Fault tolerance"). Failed
  // simulations always count against the budget (the paper budgets runs in
  // simulations, successful or not); the breaker only guards against a
  // simulator that stops producing usable results altogether.
  int max_consecutive_failures = 100;  ///< circuit breaker; 0 disables
  std::string checkpoint_path;         ///< snapshot target; empty disables
  int checkpoint_every = 0;            ///< snapshot every K iterations; 0 disables

  /// Paper configurations.
  static MaOptConfig dnn_opt();
  static MaOptConfig ma_opt1();
  static MaOptConfig ma_opt2();
  static MaOptConfig ma_opt();
};

class MaOptimizer final : public Optimizer {
 public:
  explicit MaOptimizer(MaOptConfig config = MaOptConfig::ma_opt()) : config_(std::move(config)) {}

  std::string name() const override { return config_.name; }
  const MaOptConfig& config() const { return config_; }

  /// Resumes a run from a snapshot written via MaOptConfig::checkpoint_path
  /// (or save_checkpoint): the recorded post-initial trajectory is replayed
  /// — critic/actor/elite/RNG state is rebuilt by re-running the training
  /// side deterministically while simulations are taken from the record —
  /// then the run continues live until `options.simulation_budget`
  /// (options.seed is ignored: the checkpoint carries the run's seed).
  /// Called with the same problem, FoM, config, and budget as the original
  /// run, the resumed run reproduces the uninterrupted trajectory exactly.
  /// Emits the same telemetry bracketing as run().
  RunHistory resume(const SizingProblem& problem, const RunCheckpoint& checkpoint,
                    const FomEvaluator& fom, const RunOptions& options);

 protected:
  RunHistory do_run(const SizingProblem& problem, const std::vector<SimRecord>& initial,
                    const FomEvaluator& fom, const RunOptions& options,
                    obs::RunTelemetry& telemetry) override;

 private:
  RunHistory run_impl(const SizingProblem& problem, std::vector<SimRecord> initial,
                      std::vector<SimRecord> replay, const FomEvaluator& fom, std::uint64_t seed,
                      std::size_t simulation_budget, const RunHistory* checkpoint_timers,
                      RunControl* control, obs::RunTelemetry& telemetry);

  MaOptConfig config_;
};

}  // namespace maopt::core
