#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/adam.hpp"

namespace maopt::nn {
namespace {

TEST(Mlp, ShapesPropagate) {
  Rng rng(0);
  Mlp net(3, {8, 8}, 2, rng);
  EXPECT_EQ(net.input_size(), 3u);
  EXPECT_EQ(net.output_size(), 2u);
  Mat x(5, 3, 0.1);
  const Mat y = net.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Mlp, PaperNetHasTwoHiddenHundredUnitLayers) {
  Rng rng(0);
  Mlp net = Mlp::make_paper_net(16, 9, rng, false);
  // 16*100+100 + 100*100+100 + 100*9+9 parameters
  EXPECT_EQ(net.num_parameters(), 16u * 100 + 100 + 100 * 100 + 100 + 100 * 9 + 9);
}

TEST(Mlp, ConstParamsViewMatchesMutableParams) {
  Rng rng(3);
  Mlp net(4, {8, 8}, 2, rng);
  const Mlp& cnet = net;
  const auto mut = net.params();
  const auto ro = cnet.params();
  ASSERT_EQ(mut.size(), ro.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < mut.size(); ++i) {
    EXPECT_EQ(ro[i].value, mut[i].value);  // same underlying storage
    EXPECT_EQ(ro[i].grad, mut[i].grad);
    total += ro[i].value->size();
  }
  EXPECT_EQ(cnet.num_parameters(), total);
}

TEST(Mlp, FullGradientCheck) {
  Rng rng(1);
  Mlp net(2, {5}, 2, rng, Activation::Tanh, false);
  Mat x(3, 2);
  Rng xr(2);
  for (auto& v : x.data()) v = xr.uniform(-1, 1);

  Mat y = net.forward(x);
  Mat dy(y.rows(), y.cols(), 1.0);
  net.zero_grad();
  const Mat dx = net.backward(dy);

  auto loss = [&](const Mat& input) {
    const Mat out = net.forward(input);
    double s = 0.0;
    for (const double v : out.data()) s += v;
    return s;
  };
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    Mat xp = x, xm = x;
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    EXPECT_NEAR(dx.data()[i], (loss(xp) - loss(xm)) / (2 * eps), 1e-6);
  }
  for (const auto& p : net.params()) {
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      const double saved = (*p.value)[i];
      (*p.value)[i] = saved + eps;
      const double lp = loss(x);
      (*p.value)[i] = saved - eps;
      const double lm = loss(x);
      (*p.value)[i] = saved;
      EXPECT_NEAR((*p.grad)[i], (lp - lm) / (2 * eps), 1e-6);
    }
  }
}

TEST(Mlp, InputGradientLeavesParamGradsUntouched) {
  Rng rng(3);
  Mlp net(2, {4}, 1, rng);
  Mat x(2, 2, 0.3);
  net.forward(x);
  net.zero_grad();
  Mat dy(2, 1, 1.0);
  net.input_gradient(dy);
  for (const auto& p : net.params())
    for (const double g : *p.grad) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(Mlp, InputGradientMatchesBackward) {
  Rng rng(4);
  Mlp net(3, {6}, 2, rng);
  Mat x(2, 3, 0.2);
  Mat dy(2, 2, 0.7);
  net.forward(x);
  const Mat g1 = net.input_gradient(dy);
  net.forward(x);
  net.zero_grad();
  const Mat g2 = net.backward(dy);
  for (std::size_t i = 0; i < g1.data().size(); ++i)
    EXPECT_DOUBLE_EQ(g1.data()[i], g2.data()[i]);
}

TEST(Mlp, CopyIsDeepAndEquivalent) {
  Rng rng(5);
  Mlp net(2, {4}, 1, rng);
  Mlp copy = net;
  Mat x(1, 2, 0.5);
  const Mat y1 = net.forward(x);
  const Mat y2 = copy.forward(x);
  EXPECT_DOUBLE_EQ(y1(0, 0), y2(0, 0));
  // Mutate the copy; the original must not change.
  copy.params()[0].value->at(0) += 1.0;
  const Mat y3 = net.forward(x);
  EXPECT_DOUBLE_EQ(y1(0, 0), y3(0, 0));
}

TEST(Mlp, OutputTanhBoundsOutputs) {
  Rng rng(6);
  Mlp net(2, {8}, 3, rng, Activation::Relu, /*output_tanh=*/true);
  Mat x(10, 2);
  Rng xr(7);
  for (auto& v : x.data()) v = xr.uniform(-10, 10);
  const Mat y = net.forward(x);
  for (const double v : y.data()) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Mlp, LearnsSineFunction) {
  Rng rng(8);
  Mlp net(1, {32, 32}, 1, rng, Activation::Tanh, false);
  Adam opt(net.params(), {.lr = 5e-3});
  Rng data_rng(9);
  Mat x(64, 1), y(64, 1), grad;
  double final_loss = 1.0;
  for (int step = 0; step < 800; ++step) {
    for (std::size_t i = 0; i < 64; ++i) {
      x(i, 0) = data_rng.uniform(-2.0, 2.0);
      y(i, 0) = std::sin(x(i, 0));
    }
    const Mat pred = net.forward(x);
    final_loss = mse_loss(pred, y, &grad);
    net.backward(grad);
    opt.step();
  }
  EXPECT_LT(final_loss, 1e-3);
}

TEST(MseLoss, KnownValueAndGradient) {
  Mat pred(1, 2, {1.0, 3.0});
  Mat target(1, 2, {0.0, 0.0});
  Mat grad;
  const double loss = mse_loss(pred, target, &grad);
  EXPECT_DOUBLE_EQ(loss, (1.0 + 9.0) / 2.0);
  EXPECT_DOUBLE_EQ(grad(0, 0), 2.0 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(grad(0, 1), 2.0 * 3.0 / 2.0);
}

TEST(MseLoss, ShapeMismatchThrows) {
  Mat pred(1, 2), target(2, 1);
  EXPECT_THROW(mse_loss(pred, target, nullptr), std::invalid_argument);
}

// MseStep's chunks, run in reverse order and on assorted ranks, give the
// bits of forward + mse_loss + backward_params + Adam::step: the same
// network stepped both ways, tanh output included, several steps, an odd
// batch and layers wide enough to split into several parameter chunks.
TEST(MseStep, ChunksInAnyOrderMatchTheWholeBatchStep) {
  Rng rng(5);
  Mlp serial(7, {40, 60}, 3, rng, Activation::Tanh, /*output_tanh=*/true);
  Mlp split = serial;
  Adam serial_adam(serial.params(), {.lr = 1e-2});
  Adam split_adam(split.params(), {.lr = 1e-2});
  MseStep step(split, split_adam);
  ASSERT_GT(step.param_chunks(), 3u);
  for (int s = 0; s < 4; ++s) {
    Mat x(37, 7), y(37, 3);
    for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
    for (auto& v : y.data()) v = rng.uniform(-1.0, 1.0);
    Mat grad;
    const double serial_loss = mse_loss(serial.forward(x), y, &grad);
    serial.backward_params(grad);
    serial_adam.step();

    step.begin(x, y, 3);
    const std::size_t rows = MseStep::row_chunks(x.rows());
    for (std::size_t c = rows; c > 0; --c) step.run_rows(c - 1, c % 3);
    for (std::size_t c = step.param_chunks(); c > 0; --c) step.run_params(c - 1);
    const double split_loss = step.loss();
    EXPECT_EQ(std::memcmp(&serial_loss, &split_loss, sizeof(double)), 0) << "step " << s;
    const auto a = serial.params();
    const auto b = split.params();
    for (std::size_t p = 0; p < a.size(); ++p) {
      ASSERT_EQ(std::memcmp(a[p].value->data(), b[p].value->data(),
                            a[p].value->size() * sizeof(double)),
                0)
          << "step " << s << ", param " << p;
      for (const double g : *b[p].grad) ASSERT_EQ(g, 0.0);
    }
  }
}

}  // namespace
}  // namespace maopt::nn
