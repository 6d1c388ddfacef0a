// 3.3 V -> 1.8 V low-dropout regulator testbench
// (paper Fig. 4c, Table V, Eq. 9).
//
// Topology: two-stage error amplifier (NMOS diff pair W1/L1 with PMOS
// mirror W2/L2 and tail W3/L3 m=N1; second stage NMOS common-source W4/L4
// m=N2 with PMOS current-source load), PMOS pass device (W5,L5, m=N3),
// resistive feedback divider R1/R2 against an ideal 0.9 V reference,
// compensation cap C at the pass gate, and a fixed 1 nF output capacitor.
//
// Parameter vector (natural units, matching Table V):
//   [L1..L5 (um), W1..W5 (um), R1 R2 (kOhm), C (fF), N1..N3 (integer)]
//
// Metrics: f0 = quiescent current at 50 mA load (mA); constraints =
// Vout window at Vin=3.3 V, load regulation (mV/mA), line regulation (%/V),
// four load/line transient settling times (us), PSRR at 1 kHz (dB)
// — the Eq. 9 set.
#pragma once

#include "circuits/sizing_problem.hpp"

namespace maopt::ckt {

/// Transient resolution profile: the four settling measurements dominate the
/// evaluation cost, so benches can trade accuracy for speed explicitly.
struct LdoTranProfile {
  double t_stop = 25e-6;
  double dt = 25e-9;
  double t_event = 2e-6;   ///< when the load / line step fires
  double t_edge = 100e-9;  ///< step edge duration
};

class LdoRegulator final : public SessionProblem {
 public:
  explicit LdoRegulator(LdoTranProfile profile = {});

  const ProblemSpec& spec() const override { return spec_; }
  std::size_t dim() const override { return 16; }
  const Vec& lower_bounds() const override { return lower_; }
  const Vec& upper_bounds() const override { return upper_; }
  const std::vector<bool>& integer_mask() const override { return integer_; }
  std::vector<std::string> parameter_names() const override;

  /// Monte Carlo mismatch and corner support (see process_variation.hpp).
  bool supports_process_variation() const override { return true; }

  enum Metric {
    kQuiescentMa = 0,
    kVoutMinV,      // Vout > 1.75
    kVoutMaxV,      // Vout < 1.85 (same measured value, two bounds)
    kLoadRegMvMa,
    kLineRegPctV,
    kTLoadUpUs,
    kTLoadDownUs,
    kTLineUpUs,
    kTLineDownUs,
    kPsrrDb,
  };

 protected:
  /// Persistent-testbench session: amortizes netlist construction and solver
  /// workspaces across same-topology designs (see EvalSession).
  std::unique_ptr<EvalSession> open_session(const ProcessVariation& pv) const override;

 private:
  ProblemSpec spec_;
  Vec lower_, upper_;
  std::vector<bool> integer_;
  LdoTranProfile profile_;
};

}  // namespace maopt::ckt
