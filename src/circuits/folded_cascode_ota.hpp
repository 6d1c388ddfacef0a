// Folded-cascode OTA testbench — an *extension* beyond the paper's three
// circuits, exercising a different design space: a single-stage PMOS-input
// folded cascode with a high-swing cascode PMOS mirror load.
//
// Topology:
//   * PMOS input pair M1/M2 (W1,L1), PMOS tail M0 (W2,L2, m=N1) mirrored
//     from a 20 uA diode,
//   * NMOS folding current sinks M3/M4 (W3,L3, m=N2) mirrored from a diode,
//   * NMOS cascodes M5/M6 (W4,L4) with an ideal 0.9 V gate bias,
//   * PMOS cascode mirror M7..M10 (W5,L5, m=N3) with an ideal 0.9 V cascode
//     bias; the diode side (M1 path) mirrors into the output side (M2 path),
//   * load capacitor C at OUT. VDD = 1.8 V, inputs biased at mid-rail.
//
// Signal polarity: M2's gate is the inverting input (out follows -gm2), so
// the unity-gain bench ties OUT to M2's gate and drives M1's gate.
//
// Parameter vector (14): [L1..L5 (um), W1..W5 (um), C (fF), N1..N3 (int)].
// Metrics: f0 = power (mW); constraints = DC gain, CMRR, phase margin,
// settling time, UGF, integrated output noise.
#pragma once

#include "circuits/sizing_problem.hpp"

namespace maopt::ckt {

class FoldedCascodeOta final : public SessionProblem {
 public:
  FoldedCascodeOta();

  const ProblemSpec& spec() const override { return spec_; }
  std::size_t dim() const override { return 14; }
  const Vec& lower_bounds() const override { return lower_; }
  const Vec& upper_bounds() const override { return upper_; }
  const std::vector<bool>& integer_mask() const override { return integer_; }
  std::vector<std::string> parameter_names() const override;

  /// Monte Carlo mismatch and corner support (see process_variation.hpp).
  bool supports_process_variation() const override { return true; }

  enum Metric {
    kPowerMw = 0,
    kDcGainDb,
    kCmrrDb,
    kPhaseMarginDeg,
    kSettlingNs,
    kUgfMhz,
    kNoiseMvrms,
  };

 protected:
  /// Persistent-testbench session: amortizes netlist construction and solver
  /// workspaces across same-topology designs (see EvalSession).
  std::unique_ptr<EvalSession> open_session(const ProcessVariation& pv) const override;

 private:
  ProblemSpec spec_;
  Vec lower_, upper_;
  std::vector<bool> integer_;
};

}  // namespace maopt::ckt
