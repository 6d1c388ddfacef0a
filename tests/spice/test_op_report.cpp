#include "spice/op_report.hpp"

#include <gtest/gtest.h>

#include "spice/dc_analysis.hpp"
#include "spice/dc_sweep.hpp"
#include "spice/devices.hpp"
#include "spice/mosfet.hpp"

namespace maopt::spice {
namespace {

/// Labelled NMOS common-source stage: VDD (1.8 V) -> RL -> out, M1 with its
/// gate on VIN, source and bulk grounded.
struct CommonSource {
  CommonSource(double rl, double w, double l, double vin_dc) {
    const int vdd = n.node("vdd");
    const int in = n.node("in");
    out = n.node("out");
    n.set_label(n.add<VSource>(vdd, kGround, Waveform::dc(1.8)), "VDD");
    vin = n.add<VSource>(in, kGround, Waveform::dc(vin_dc));
    n.set_label(vin, "VIN");
    n.set_label(n.add<Resistor>(vdd, out, rl), "RL");
    n.set_label(n.add<Mosfet>(out, in, kGround, kGround, MosModel::nmos_180(), w, l), "M1");
    n.prepare();
  }

  Netlist n;
  VSource* vin = nullptr;
  int out = kGround;
};

TEST(OpReport, NamesRegionsAndCurrentsFromParsedDeck) {
  CommonSource stage(5e3, 20e-6, 1e-6, 0.7);
  DcAnalysis dc;
  const auto op = dc.solve(stage.n);
  ASSERT_TRUE(op.converged);
  const std::string report = operating_point_report(stage.n, op.x);
  EXPECT_NE(report.find("M1"), std::string::npos);
  EXPECT_NE(report.find("saturation"), std::string::npos);
  EXPECT_NE(report.find("RL"), std::string::npos);
  EXPECT_NE(report.find("VDD"), std::string::npos);
  EXPECT_NE(report.find("V(out)"), std::string::npos);
}

TEST(OpReport, UnlabeledDevicesGetIndexedFallbackNames) {
  Netlist n;
  const int a = n.node("a");
  n.add<VSource>(a, kGround, Waveform::dc(1.0));
  n.add<Resistor>(a, kGround, 1e3);
  DcAnalysis dc;
  const auto op = dc.solve(n);
  ASSERT_TRUE(op.converged);
  const std::string report = operating_point_report(n, op.x);
  EXPECT_NE(report.find("V#1"), std::string::npos);
  EXPECT_NE(report.find("R#2"), std::string::npos);
}

TEST(DcSweepAnalysis, LinearGridEndpoints) {
  const auto grid = DcSweep::linear_grid(0.0, 1.0, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 1.0);
  EXPECT_DOUBLE_EQ(grid[2], 0.5);
  EXPECT_THROW(DcSweep::linear_grid(0, 1, 1), std::invalid_argument);
}

TEST(DcSweepAnalysis, DividerTransferIsLinear) {
  Netlist n;
  const int vin = n.node("vin");
  const int mid = n.node("mid");
  auto* src = n.add<VSource>(vin, kGround, Waveform::dc(0.0));
  n.add<Resistor>(vin, mid, 1e3);
  n.add<Resistor>(mid, kGround, 1e3);
  DcSweep sweep;
  const auto grid = DcSweep::linear_grid(0.0, 2.0, 11);
  const auto result = sweep.run(n, grid, [&](double v) { src->set_dc(v); });
  ASSERT_TRUE(result.all_converged);
  const auto curve = result.node_curve(mid);
  for (std::size_t k = 0; k < grid.size(); ++k)
    EXPECT_NEAR(curve[k], 0.5 * grid[k], 1e-6) << k;
}

TEST(DcSweepAnalysis, WarmStartTracksNonlinearCurve) {
  // MOS inverter transfer curve: must be monotone decreasing and converged
  // at every point thanks to warm starting.
  CommonSource stage(10e3, 10e-6, 0.5e-6, 0.0);
  DcSweep sweep;
  const auto grid = DcSweep::linear_grid(0.0, 1.8, 19);
  const auto result = sweep.run(stage.n, grid, [&](double v) { stage.vin->set_dc(v); });
  ASSERT_TRUE(result.all_converged);
  const auto curve = result.node_curve(stage.out);
  for (std::size_t k = 1; k < curve.size(); ++k) EXPECT_LE(curve[k], curve[k - 1] + 1e-9);
}

}  // namespace
}  // namespace maopt::spice
