#include "spice/op_report.hpp"

#include <gtest/gtest.h>

#include "spice/dc_analysis.hpp"
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
    const int out = n.node("out");
    n.set_label(n.add<VSource>(vdd, kGround, Waveform::dc(1.8)), "VDD");
    n.set_label(n.add<VSource>(in, kGround, Waveform::dc(vin_dc)), "VIN");
    n.set_label(n.add<Resistor>(vdd, out, rl), "RL");
    n.set_label(n.add<Mosfet>(out, in, kGround, kGround, MosModel::nmos_180(), w, l), "M1");
    n.prepare();
  }

  Netlist n;
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

}  // namespace
}  // namespace maopt::spice
