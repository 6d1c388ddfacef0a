// Three-stage shunt-feedback transimpedance amplifier testbench
// (paper Fig. 4b, Table III, Eq. 8).
//
// Topology: three inverting gain stages (NMOS common-source drivers M1..M3
// with shared-geometry PMOS diode loads), an NMOS source-follower output
// buffer, and a feedback resistor R (with parallel bandwidth-limiting cap
// Cf) from the buffer output back to the input node. The input is a current
// source with a 200 fF photodiode capacitance. VDD = 1.8 V.
//
// Parameter vector (natural units, matching Table III):
//   [L1..L5 (um), W1..W5 (um), R (kOhm), Cf (fF), N1..N3 (integer)]
// Stage drivers: M1 (W1,L1,m=N1), M2 (W2,L2,m=N2), M3 (W3,L3,m=N3);
// diode loads share (W4,L4); follower is (W5,L5).
//
// Metrics: f0 = power (mW); constraints = transimpedance DC gain (dBOhm),
// open-loop amplifier unity-gain frequency (GHz), input-referred current
// noise at 10 MHz (pA/sqrt(Hz)) — the Eq. 8 set. The open-loop UGF is
// measured with a replica-bias bench: the closed-loop operating point is
// solved first, then the loop is broken and DC sources pin the bias.
#pragma once

#include "circuits/sizing_problem.hpp"

namespace maopt::ckt {

class ThreeStageTia final : public SessionProblem {
 public:
  ThreeStageTia();

  const ProblemSpec& spec() const override { return spec_; }
  std::size_t dim() const override { return 15; }
  const Vec& lower_bounds() const override { return lower_; }
  const Vec& upper_bounds() const override { return upper_; }
  const std::vector<bool>& integer_mask() const override { return integer_; }
  std::vector<std::string> parameter_names() const override;

  /// Monte Carlo mismatch and corner support (see process_variation.hpp).
  bool supports_process_variation() const override { return true; }

  enum Metric {
    kPowerMw = 0,
    kZtDbOhm,
    kUgfGhz,
    kInputNoisePa,
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
