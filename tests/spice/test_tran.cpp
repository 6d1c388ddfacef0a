#include "spice/tran_analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "spice/devices.hpp"
#include "spice/mosfet.hpp"

namespace maopt::spice {
namespace {

TEST(Tran, RcStepResponseMatchesAnalytic) {
  // R = 1k, C = 1n -> tau = 1 us; step at t = 1 us.
  Netlist n;
  const int vin = n.node("vin");
  const int out = n.node("out");
  n.add<VSource>(vin, kGround,
                 Waveform::pwl({{0.0, 0.0}, {1e-6, 0.0}, {1.001e-6, 1.0}}));
  n.add<Resistor>(vin, out, 1e3);
  n.add<Capacitor>(out, kGround, 1e-9);

  TranOptions opt;
  opt.t_stop = 6e-6;
  opt.dt = 10e-9;
  TranAnalysis tran(opt);
  const auto r = tran.run(n);
  ASSERT_TRUE(r.converged);
  const auto wave = r.node_waveform(out);

  for (std::size_t k = 0; k < r.time.size(); ++k) {
    const double t = r.time[k];
    double expect = 0.0;
    if (t > 1.001e-6) expect = 1.0 - std::exp(-(t - 1.0005e-6) / 1e-6);
    EXPECT_NEAR(wave[k], expect, 0.01) << "t=" << t;
  }
  // Fully settled by 5 tau.
  EXPECT_NEAR(wave.back(), 1.0, 0.01);
}

TEST(Tran, PassedDeadlineStopsTheRunUnconverged) {
  Netlist n;
  const int vin = n.node("vin");
  const int out = n.node("out");
  n.add<VSource>(vin, kGround, Waveform::pwl({{0.0, 0.0}, {1e-6, 0.0}, {1.001e-6, 1.0}}));
  n.add<Resistor>(vin, out, 1e3);
  n.add<Capacitor>(out, kGround, 1e-9);

  TranOptions opt;
  opt.t_stop = 6e-6;
  opt.dt = 10e-9;
  opt.dc.deadline = Deadline::after(0.0);  // already passed
  const auto r = TranAnalysis(opt).run(n);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.num_steps(), 0u);
  EXPECT_FALSE(DcAnalysis(opt.dc).solve(n).converged);

  opt.dc.deadline = Deadline::after(60.0);
  EXPECT_TRUE(TranAnalysis(opt).run(n).converged);
}

TEST(Tran, InitialConditionFromDc) {
  Netlist n;
  const int vin = n.node("vin");
  const int out = n.node("out");
  n.add<VSource>(vin, kGround, Waveform::dc(2.0));
  n.add<Resistor>(vin, out, 1e3);
  n.add<Resistor>(out, kGround, 1e3);
  n.add<Capacitor>(out, kGround, 1e-9);
  TranOptions opt;
  opt.t_stop = 1e-6;
  opt.dt = 10e-9;
  TranAnalysis tran(opt);
  const auto r = tran.run(n);
  ASSERT_TRUE(r.converged);
  const auto wave = r.node_waveform(out);
  // DC steady state from the start: flat at the divider value.
  for (const double v : wave) EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(Tran, CapacitorDividerConservesCharge) {
  // Step through a capacitive divider: out = step * C1/(C1+C2).
  Netlist n;
  const int vin = n.node("vin");
  const int out = n.node("out");
  n.add<VSource>(vin, kGround, Waveform::pwl({{0.0, 0.0}, {1e-7, 0.0}, {1.1e-7, 1.0}}));
  n.add<Capacitor>(vin, out, 2e-12);   // C1
  n.add<Capacitor>(out, kGround, 2e-12);  // C2
  n.add<Resistor>(out, kGround, 1e12);    // weak bleed to keep DC defined
  TranOptions opt;
  opt.t_stop = 5e-7;
  opt.dt = 1e-9;
  TranAnalysis tran(opt);
  const auto r = tran.run(n);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.node_waveform(out).back(), 0.5, 0.01);
}

TEST(Tran, RejectsInductors) {
  Netlist n;
  const int a = n.node("a");
  n.add<VSource>(a, kGround, Waveform::dc(1.0));
  n.add<Inductor>(a, kGround, 1e-3);
  TranOptions opt;
  TranAnalysis tran(opt);
  EXPECT_THROW(tran.run(n), std::logic_error);
}

TEST(Tran, TimeAxisCoversStopTime) {
  Netlist n;
  const int a = n.node("a");
  n.add<VSource>(a, kGround, Waveform::dc(1.0));
  n.add<Resistor>(a, kGround, 1e3);
  TranOptions opt;
  opt.t_stop = 1e-6;
  opt.dt = 1e-7;
  TranAnalysis tran(opt);
  const auto r = tran.run(n);
  ASSERT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.time.front(), 0.0);
  EXPECT_NEAR(r.time.back(), 1e-6, 1e-12);
  EXPECT_EQ(r.time.size(), 11u);
}

TEST(Tran, MosInverterSwitchesDynamically) {
  // Common-source stage driven by a pulse: output swings rail-ward.
  Netlist n;
  const int vdd = n.node("vdd");
  const int in = n.node("in");
  const int out = n.node("out");
  n.add<VSource>(vdd, kGround, Waveform::dc(1.8));
  n.add<VSource>(in, kGround,
                 Waveform::pwl({{0.0, 0.0}, {1e-8, 0.0}, {1.2e-8, 1.8}}));
  n.add<Resistor>(vdd, out, 10e3);
  n.add<Mosfet>(out, in, kGround, kGround, MosModel::nmos_180(), 10e-6, 0.5e-6);
  n.add<Capacitor>(out, kGround, 50e-15);
  TranOptions opt;
  opt.t_stop = 1e-7;
  opt.dt = 1e-10;
  TranAnalysis tran(opt);
  const auto r = tran.run(n);
  ASSERT_TRUE(r.converged);
  const auto wave = r.node_waveform(out);
  EXPECT_NEAR(wave.front(), 1.8, 1e-3);  // off at t=0
  EXPECT_LT(wave.back(), 0.2);           // pulled low after the input step
}

TEST(Tran, TrapezoidalBeatsCoarseAccuracyBound) {
  // Halving dt should reduce the max error roughly 4x (2nd-order method);
  // we only assert it does not get worse.
  auto max_err = [](double dt) {
    Netlist n;
    const int vin = n.node("vin");
    const int out = n.node("out");
    n.add<VSource>(vin, kGround, Waveform::pwl({{0.0, 0.0}, {1e-8, 0.0}, {1.05e-8, 1.0}}));
    n.add<Resistor>(vin, out, 1e3);
    n.add<Capacitor>(out, kGround, 1e-9);
    TranOptions opt;
    opt.t_stop = 4e-6;
    opt.dt = dt;
    const auto r = TranAnalysis(opt).run(n);
    EXPECT_TRUE(r.converged);
    const auto wave = r.node_waveform(out);
    double worst = 0.0;
    for (std::size_t k = 0; k < r.time.size(); ++k) {
      const double t = r.time[k];
      if (t < 2e-8) continue;
      const double expect = 1.0 - std::exp(-(t - 1.025e-8) / 1e-6);
      worst = std::max(worst, std::abs(wave[k] - expect));
    }
    return worst;
  };
  const double coarse = max_err(4e-8);
  const double fine = max_err(1e-8);
  EXPECT_LE(fine, coarse + 1e-12);
  EXPECT_LT(fine, 0.02);
}

}  // namespace
}  // namespace maopt::spice
