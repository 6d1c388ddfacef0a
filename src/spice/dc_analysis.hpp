// DC operating-point analysis: damped Newton-Raphson over the nonlinear MNA
// system, with gmin stepping and source stepping as convergence fallbacks
// (the standard HSPICE-style continuation ladder).
#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "common/deadline.hpp"
#include "linalg/lu.hpp"
#include "spice/netlist.hpp"

namespace maopt::spice {

struct DcOptions {
  int max_iterations = 200;
  double v_tol = 1e-6;        ///< node-voltage convergence tolerance [V]
  double i_tol = 1e-9;        ///< branch-current convergence tolerance [A]
  double max_step = 0.5;      ///< per-iteration node-voltage step clamp [V]
  double gmin = 1e-12;        ///< final gmin value [S]
  bool allow_gmin_stepping = true;
  bool allow_source_stepping = true;
  /// Newton solves that start after this fail at once (see newton()).
  Deadline deadline;
};

struct DcResult {
  Vec x;            ///< node voltages then branch currents
  bool converged = false;
  int iterations = 0;
  std::string method;  ///< "direct", "gmin", or "source"
};

/// Reusable storage for the Newton loop: the Jacobian (inside the pivoted LU
/// workspace), the residual, and the candidate iterate. One workspace reused
/// across Newton calls — the continuation ladder, every transient step, every
/// design in a batch — makes the loop allocation-free in steady state.
/// Also accumulates the solver effort counters the benchmarks report.
struct NewtonWorkspace {
  linalg::LuWorkReal lu;
  Vec rhs;
  Vec x_new;
  std::size_t solves = 0;      ///< newton() invocations
  std::size_t iterations = 0;  ///< total Newton iterations (incl. memo hits)

  /// Identical-system memo, used only on transient steps (companion-model
  /// solves): in the settled tail of a waveform the assembled (A, rhs)
  /// repeats bit-identically, so the cached solution of those exact bits —
  /// a pure function of them — replaces the factor+solve. Two slots because
  /// the trapezoidal companion current alternates sign when the node
  /// voltages are static (i' = geq·(v_new − v_prev) − i = −i), making the
  /// settled system period-2, not period-1.
  struct MemoSlot {
    Mat a;
    Vec rhs;
    Vec x;
    bool valid = false;
  };
  std::array<MemoSlot, 2> memo;
  std::size_t memo_next = 0;  ///< round-robin replacement cursor
  std::size_t memo_hits = 0;  ///< factor+solves skipped via the memo
};

class DcAnalysis {
 public:
  explicit DcAnalysis(DcOptions options = {}) : options_(options) {}

  /// Solves for the operating point; `initial_guess` (if given and the right
  /// size) seeds Newton — essential for fast DC sweeps. Reuses the analysis
  /// object's internal workspace, so one DcAnalysis solving many points (a
  /// DC sweep, a batch of designs) performs zero steady-state allocations.
  /// Not safe to call concurrently on one DcAnalysis instance.
  DcResult solve(Netlist& netlist, const Vec* initial_guess = nullptr) const;

  void set_deadline(const Deadline& deadline) { options_.deadline = deadline; }

  /// Inner Newton loop at fixed gmin / source scale; exposed for the
  /// transient engine, which performs its own continuation over time.
  /// Fails at once past `options.deadline`, so every ladder above unwinds.
  static bool newton(const Netlist& netlist, double source_scale, double time, double gmin,
                     const DcOptions& options, Vec& x, int* iterations_out, NewtonWorkspace& ws,
                     const std::vector<CapacitorStamp>* companion_caps = nullptr,
                     const Vec* companion_ieq = nullptr);

  /// Convenience overload with a throwaway workspace (cold paths, tests).
  static bool newton(const Netlist& netlist, double source_scale, double time, double gmin,
                     const DcOptions& options, Vec& x, int* iterations_out,
                     const std::vector<CapacitorStamp>* companion_caps = nullptr,
                     const Vec* companion_ieq = nullptr);

  /// Solver-effort counters and buffers (inspection only; benchmarks report
  /// Newton-iterations/solve, tests assert buffer pointer stability).
  const NewtonWorkspace& workspace() const { return ws_; }

 private:
  DcOptions options_;
  mutable NewtonWorkspace ws_;
};

}  // namespace maopt::spice
