#include "core/critic.hpp"

#include "common/check.hpp"

namespace maopt::core {

namespace {
nn::Mlp make_net(std::size_t dim, std::size_t num_metrics, const CriticConfig& config, Rng& rng) {
  return nn::Mlp(2 * dim, config.hidden, num_metrics, rng, nn::Activation::Relu,
                 /*output_tanh=*/false);
}
}  // namespace

Critic::Critic(std::size_t dim, std::size_t num_metrics, const CriticConfig& config, Rng& rng)
    : dim_(dim),
      num_metrics_(num_metrics),
      config_(config),
      mlp_(make_net(dim, num_metrics, config, rng)),
      adam_(mlp_.params(), {.lr = config.learning_rate}),
      step_(mlp_, adam_) {}

Critic::Critic(const Critic& other)
    : dim_(other.dim_),
      num_metrics_(other.num_metrics_),
      config_(other.config_),
      mlp_(other.mlp_),
      adam_(mlp_.params(), {.lr = other.config_.learning_rate}),
      step_(mlp_, adam_),
      norm_(other.norm_) {}

void Critic::fit_normalizer(const std::vector<SimRecord>& records) {
  MAOPT_CHECK(!records.empty(), "Critic::fit_normalizer: empty population");
  nn::Mat metrics(records.size(), num_metrics_);
  for (std::size_t i = 0; i < records.size(); ++i) {
    MAOPT_CHECK(records[i].metrics.size() == num_metrics_,
                "Critic::fit_normalizer: record metric count != num_metrics");
    for (std::size_t j = 0; j < num_metrics_; ++j) metrics(i, j) = records[i].metrics[j];
  }
  norm_.fit(metrics);
}

double Critic::train_round(const PseudoSampleBatcher& batcher, Rng& rng, ThreadPool* pool) {
  MAOPT_CHECK(norm_.fitted(), "Critic::train_round: fit_normalizer must run first");
  MAOPT_CHECK(config_.batch_size > 0, "Critic::train_round: batch_size must be >= 1");
  // Each step is three phases on the team: draw the minibatch (one chunk),
  // the step's row chunks, then its parameter chunks plus one chunk that
  // adds the step's loss to the total, in step order.
  Team team(pool);
  double total = 0.0;
  const Team::ChunkFn sample = [&](std::size_t, std::size_t) {
    batcher.sample(config_.batch_size, rng, batch_x_, batch_y_raw_);
    norm_.transform_into(batch_y_raw_, batch_y_);
    step_.begin(batch_x_, batch_y_, team.size());
  };
  const Team::ChunkFn rows = [&](std::size_t chunk, std::size_t rank) {
    step_.run_rows(chunk, rank);
  };
  const Team::ChunkFn params = [&](std::size_t chunk, std::size_t) {
    if (chunk < step_.param_chunks())
      step_.run_params(chunk);
    else
      total += step_.loss();
  };
  std::vector<Team::Phase> phases;
  phases.reserve(3 * static_cast<std::size_t>(std::max(0, config_.steps_per_round)));
  for (int s = 0; s < config_.steps_per_round; ++s) {
    phases.push_back({1, &sample});
    phases.push_back({nn::MseStep::row_chunks(config_.batch_size), &rows});
    phases.push_back({step_.param_chunks() + 1, &params});
  }
  team.run(phases);
  return total / std::max(1, config_.steps_per_round);
}

void Critic::predict(const nn::Mat& x_dx, nn::Mat& raw) {
  MAOPT_CHECK(x_dx.cols() == 2 * dim_, "Critic::predict: input must be (batch x 2*dim)");
  MAOPT_CHECK(norm_.fitted(), "Critic::predict: fit_normalizer must run first");
  norm_.inverse_into(mlp_.forward(x_dx), raw);
}

Vec Critic::predict_one(const Vec& x_unit, const Vec& dx_unit) {
  nn::Mat in(1, 2 * dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    in(0, i) = x_unit[i];
    in(0, dim_ + i) = dx_unit[i];
  }
  const nn::Mat out = predict(in);
  return Vec(out.row(0).begin(), out.row(0).end());
}

void Critic::action_gradient(const nn::Mat& d_loss_d_raw_metrics, nn::Mat& da) {
  MAOPT_CHECK(d_loss_d_raw_metrics.cols() == num_metrics_,
              "Critic::action_gradient: gradient width != num_metrics");
  MAOPT_CHECK(&da != &d_loss_d_raw_metrics, "Critic::action_gradient: da aliases the input");
  // Chain through the inverse z-score: raw = z * std + mean  =>  dz = draw * std.
  const Vec& std = norm_.std();
  dz_.ensure_shape(d_loss_d_raw_metrics.rows(), num_metrics_);
  for (std::size_t r = 0; r < dz_.rows(); ++r)
    for (std::size_t c = 0; c < dz_.cols(); ++c) dz_(r, c) = d_loss_d_raw_metrics(r, c) * std[c];
  const nn::Mat& dx_full = mlp_.input_gradient(dz_);
  da.ensure_shape(dx_full.rows(), dim_);
  for (std::size_t r = 0; r < dx_full.rows(); ++r)
    for (std::size_t c = 0; c < dim_; ++c) da(r, c) = dx_full(r, dim_ + c);
}

CriticEnsemble::CriticEnsemble(std::size_t num_critics, std::size_t dim,
                               std::size_t num_metrics, const CriticConfig& config, Rng& rng) {
  MAOPT_CHECK(num_critics > 0, "CriticEnsemble: need >= 1 member");
  MAOPT_CHECK(dim > 0 && num_metrics > 0, "CriticEnsemble: zero-dimensional surrogate");
  members_.reserve(num_critics);
  for (std::size_t i = 0; i < num_critics; ++i) members_.emplace_back(dim, num_metrics, config, rng);
}

double CriticEnsemble::train_round(const PseudoSampleBatcher& batcher, Rng& rng,
                                   ThreadPool* pool) {
  // One draw keys every member's private stream: the caller's rng advances
  // the same amount regardless of member count, and member i's minibatch
  // sequence is independent of who else trains when — so parallel and serial
  // execution produce bit-identical parameters.
  const std::uint64_t round_key = rng.next();
  std::vector<double> losses(members_.size(), 0.0);
  auto train_member = [&](std::size_t i, ThreadPool* team_pool) {
    Rng member_rng(derive_seed(round_key, i));
    losses[i] = members_[i].train_round(batcher, member_rng, team_pool);
  };
  if (pool != nullptr && pool->size() > 1 && members_.size() > 1) {
    pool->parallel_for(members_.size(), [&](std::size_t i) { train_member(i, nullptr); });
  } else {
    for (std::size_t i = 0; i < members_.size(); ++i) train_member(i, pool);
  }
  double total = 0.0;
  for (const double l : losses) total += l;  // fixed order: thread-count invariant
  return total / static_cast<double>(members_.size());
}

void CriticEnsemble::fit_normalizer(const std::vector<SimRecord>& records, ThreadPool* pool) {
  if (pool != nullptr && pool->size() > 1 && members_.size() > 1) {
    pool->parallel_for(members_.size(), [&](std::size_t i) { members_[i].fit_normalizer(records); });
  } else {
    for (auto& m : members_) m.fit_normalizer(records);
  }
}

void CriticEnsemble::predict(const nn::Mat& x_dx, nn::Mat& raw) {
  MAOPT_CHECK(&raw != &x_dx, "CriticEnsemble::predict: raw aliases the input");
  members_.front().predict(x_dx, raw);
  for (std::size_t i = 1; i < members_.size(); ++i) {
    members_[i].predict(x_dx, member_out_);
    for (std::size_t k = 0; k < raw.data().size(); ++k) raw.data()[k] += member_out_.data()[k];
  }
  const double inv = 1.0 / static_cast<double>(members_.size());
  for (auto& v : raw.data()) v *= inv;
}

void CriticEnsemble::action_gradient(const nn::Mat& d_loss_d_raw_metrics, nn::Mat& da) {
  // d(mean of members)/d(dx) = mean of member gradients. Each member's
  // forward cache is still valid from predict() because predict() ran every
  // member's forward pass last.
  members_.front().action_gradient(d_loss_d_raw_metrics, da);
  for (std::size_t i = 1; i < members_.size(); ++i) {
    members_[i].action_gradient(d_loss_d_raw_metrics, member_out_);
    for (std::size_t k = 0; k < da.data().size(); ++k) da.data()[k] += member_out_.data()[k];
  }
  const double inv = 1.0 / static_cast<double>(members_.size());
  for (auto& v : da.data()) v *= inv;
}

std::size_t CriticEnsemble::num_parameters() const {
  std::size_t n = 0;
  for (const auto& m : members_) n += m.num_parameters();
  return n;
}

}  // namespace maopt::core
