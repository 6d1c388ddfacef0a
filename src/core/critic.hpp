// Critic network (paper Eq. 4): an MLP regression surrogate of the SPICE
// simulator. Input (x, dx) in the unit design space, output the m+1 metric
// vector (z-scored internally). Unlike a true RL critic it predicts the
// full simulation outcome, and the FoM g(.) is applied on top (Eq. 5).
#pragma once

#include "circuits/fom.hpp"
#include "common/thread_pool.hpp"
#include "core/pseudo_samples.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace maopt::core {

/// Interface shared by a single critic and a critic ensemble — everything
/// the actors and the near-sampling method need from the simulator
/// surrogate Q(x, dx).
class Surrogate {
 public:
  virtual ~Surrogate() = default;
  /// Predicted raw metric vectors for a batch of (x, dx) unit-space inputs,
  /// written into `raw` (reshaped, capacity reused).
  virtual void predict(const nn::Mat& x_dx, nn::Mat& raw) = 0;
  /// Gradient of a scalar loss w.r.t. the dx part of the input, given the
  /// loss gradient w.r.t. the raw predicted metrics, written into `da`
  /// (reshaped, capacity reused); must follow the matching predict() call
  /// (forward caches).
  virtual void action_gradient(const nn::Mat& d_loss_d_raw_metrics, nn::Mat& da) = 0;
  /// Allocating form of predict, for code off the hot path.
  nn::Mat predict(const nn::Mat& x_dx) {
    nn::Mat raw;
    predict(x_dx, raw);
    return raw;
  }
  virtual std::size_t dim() const = 0;
  virtual std::size_t num_metrics() const = 0;
};

struct CriticConfig {
  std::vector<std::size_t> hidden = {100, 100};  ///< paper: 2 x 100
  double learning_rate = 1e-3;
  std::size_t batch_size = 64;   ///< N_b
  int steps_per_round = 50;      ///< minibatch SGD steps per training round
};

class Critic final : public Surrogate {
 public:
  Critic(std::size_t dim, std::size_t num_metrics, const CriticConfig& config, Rng& rng);

  /// Copy shares no state; used to give each actor-training thread a private
  /// forward/backward workspace. The optimizer state is reset in the copy.
  Critic(const Critic& other);
  Critic& operator=(const Critic&) = delete;

  /// Runs `steps_per_round` minibatch steps on pseudo-samples (after
  /// fit_normalizer). Each step runs on a Team of the caller and `pool`'s
  /// workers (nullptr: the caller alone); the parameters and the loss are
  /// the same bits for every pool size. Returns mean MSE (normalized units)
  /// over the round.
  double train_round(const PseudoSampleBatcher& batcher, Rng& rng, ThreadPool* pool = nullptr);

  using Surrogate::predict;
  void predict(const nn::Mat& x_dx, nn::Mat& raw) override;
  /// Single-sample convenience.
  Vec predict_one(const Vec& x_unit, const Vec& dx_unit);

  void action_gradient(const nn::Mat& d_loss_d_raw_metrics, nn::Mat& da) override;

  void fit_normalizer(const std::vector<SimRecord>& records);
  bool normalizer_ready() const { return norm_.fitted(); }
  std::size_t dim() const override { return dim_; }
  std::size_t num_metrics() const override { return num_metrics_; }
  std::size_t num_parameters() const { return mlp_.num_parameters(); }
  nn::Mlp& network() { return mlp_; }

 private:
  std::size_t dim_;
  std::size_t num_metrics_;
  CriticConfig config_;
  nn::Mlp mlp_;
  nn::Adam adam_;
  nn::MseStep step_;
  nn::ZScoreNormalizer norm_;
  // Minibatch scratch reused across all train_round calls (not copied).
  nn::Mat batch_x_, batch_y_raw_, batch_y_;
  // action_gradient's normalized-output gradient (not copied).
  nn::Mat dz_;
};

/// Ensemble of independently initialized critics whose predictions (and
/// action gradients) are averaged. The paper (Section II-B) considered
/// multiple critics and rejected them for memory cost; MaOptConfig's
/// num_critics > 1 reproduces that trade-off for the ablation bench.
class CriticEnsemble final : public Surrogate {
 public:
  CriticEnsemble(std::size_t num_critics, std::size_t dim, std::size_t num_metrics,
                 const CriticConfig& config, Rng& rng);
  CriticEnsemble(const CriticEnsemble& other) = default;

  /// Trains every member for one round: several members across `pool`,
  /// one at a time each on a Team with `pool` otherwise (nullptr: serially).
  /// Each member draws from its own derive_seed-derived stream keyed off a
  /// single draw from `rng`, so the resulting parameters are bit-identical
  /// for every thread count.
  double train_round(const PseudoSampleBatcher& batcher, Rng& rng, ThreadPool* pool = nullptr);
  void fit_normalizer(const std::vector<SimRecord>& records, ThreadPool* pool = nullptr);

  using Surrogate::predict;
  void predict(const nn::Mat& x_dx, nn::Mat& raw) override;
  void action_gradient(const nn::Mat& d_loss_d_raw_metrics, nn::Mat& da) override;
  std::size_t dim() const override { return members_.front().dim(); }
  std::size_t num_metrics() const override { return members_.front().num_metrics(); }

  std::size_t size() const { return members_.size(); }
  Critic& member(std::size_t i) { return members_[i]; }
  /// Total trainable parameters across members (the memory-cost axis).
  std::size_t num_parameters() const;

 private:
  std::vector<Critic> members_;
  // Per-member output of predict/action_gradient before averaging.
  nn::Mat member_out_;
};

}  // namespace maopt::core
