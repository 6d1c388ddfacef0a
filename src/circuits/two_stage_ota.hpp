// Two-stage Miller-compensated OTA testbench (paper Fig. 4a, Table I, Eq. 7).
//
// Topology (classic Allen-Holberg two-stage):
//   * NMOS input pair M1/M2 (W1,L1), PMOS mirror load M3/M4 (W2,L2),
//   * NMOS tail M5 (W3,L3, m=N1) mirrored from a 20 uA bias diode M8 (W3,L3),
//   * second stage: PMOS common-source M6 (W4,L4, m=N2) with NMOS sink
//     M7 (W5,L5, m=N3),
//   * nulling resistor R in series with Miller cap Cf from the first-stage
//     output to OUT, load capacitor C at OUT. VDD = 1.8 V, inputs biased at
//     mid-rail.
//
// Parameter vector (natural units, matching Table I):
//   [L1..L5 (um), W1..W5 (um), R (kOhm), C (fF), Cf (fF), N1..N3 (integer)]
//
// Metrics: f0 = power (mW); constraints = DC gain (dB), CMRR (dB), PSRR (dB),
// phase margin (deg), settling time (ns), unity-gain frequency (MHz),
// output swing (V), integrated output noise (mVrms)  — the Eq. 7 set.
#pragma once

#include "circuits/sizing_problem.hpp"

namespace maopt::ckt {

class TwoStageOta final : public SessionProblem {
 public:
  TwoStageOta();

  const ProblemSpec& spec() const override { return spec_; }
  std::size_t dim() const override { return 16; }
  const Vec& lower_bounds() const override { return lower_; }
  const Vec& upper_bounds() const override { return upper_; }
  const std::vector<bool>& integer_mask() const override { return integer_; }
  std::vector<std::string> parameter_names() const override;

  /// Monte Carlo mismatch and corner support (see process_variation.hpp).
  bool supports_process_variation() const override { return true; }

  /// Indices of the metric columns, for tests and reporting.
  enum Metric {
    kPowerMw = 0,
    kDcGainDb,
    kCmrrDb,
    kPsrrDb,
    kPhaseMarginDeg,
    kSettlingNs,
    kUgfMhz,
    kSwingV,
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
