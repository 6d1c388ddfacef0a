// Transient analysis with trapezoidal integration.
//
// Capacitances (explicit capacitors plus MOSFET parasitics) are collected
// once at the initial operating point and integrated as linear elements via
// companion models; the nonlinear device currents are re-linearized by a
// full Newton solve at every time step. This "OP-frozen capacitance"
// simplification preserves the dominant time constants that the settling
// time measurements depend on, at a fraction of the cost of re-evaluating
// charge models per iteration.
#pragma once

#include <vector>

#include "spice/dc_analysis.hpp"
#include "spice/netlist.hpp"

namespace maopt::spice {

struct TranOptions {
  double t_stop = 1e-6;
  double dt = 1e-9;
  int max_step_halvings = 6;  ///< local step halving on Newton failure
  DcOptions dc;               ///< Newton settings for the initial OP and steps;
                              ///< a run stops unconverged once dc.deadline passes
};

struct TranResult {
  std::vector<double> time;
  /// Accepted solutions (including t=0), flattened row-major: step k's state
  /// occupies states[k*stride .. k*stride+stride). One flat buffer instead
  /// of a Vec per step keeps the fixed-step hot loop allocation-free.
  Vec states;
  std::size_t stride = 0;
  bool converged = false;
  std::size_t newton_iterations = 0;  ///< total Newton iterations across the run
  std::size_t newton_memo_hits = 0;   ///< factor+solves skipped via the identical-system memo
  std::size_t step_memo_hits = 0;     ///< whole steps (assembly included) served from the step memo

  std::size_t num_steps() const { return time.size(); }

  /// Unknown `i` (node voltage or branch current) at accepted step `k`.
  double value(std::size_t k, int i) const {
    return i == kGround ? 0.0 : states[k * stride + static_cast<std::size_t>(i)];
  }

  /// Waveform of one node across all accepted steps.
  std::vector<double> node_waveform(int node) const {
    std::vector<double> v;
    v.reserve(num_steps());
    for (std::size_t k = 0; k < num_steps(); ++k) v.push_back(value(k, node));
    return v;
  }
};

class TranAnalysis {
 public:
  explicit TranAnalysis(TranOptions options) : options_(options) {}

  /// Runs from a DC operating point computed at t = 0. Throws
  /// std::logic_error if the netlist contains inductors.
  TranResult run(Netlist& netlist) const;

 private:
  TranOptions options_;
};

}  // namespace maopt::spice
