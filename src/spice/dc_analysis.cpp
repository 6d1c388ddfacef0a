#include "spice/dc_analysis.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/lu.hpp"

#include "common/thread_annotations.hpp"

namespace maopt::spice {

MAOPT_HOT bool DcAnalysis::newton(const Netlist& netlist, double source_scale, double time,
                                  double gmin, const DcOptions& options, Vec& x,
                                  int* iterations_out, NewtonWorkspace& ws,
                                  const std::vector<CapacitorStamp>* companion_caps,
                                  const Vec* companion_ieq) {
  if (options.deadline.expired()) return false;
  const std::size_t n = netlist.system_size();
  const std::size_t num_nodes = netlist.num_nodes();
  if (x.size() != n) x.assign(n, 0.0);  // maopt-lint: allow(hot-alloc) cold-start sizing
  ++ws.solves;

  Vec& x_new = ws.x_new;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    netlist.build_nonlinear_system(x, source_scale, time, gmin, ws.lu.matrix(), ws.rhs);
    if (companion_caps) {
      // Transient companion models: conductance + equivalent current per cap.
      RealStamper s(ws.lu.matrix(), ws.rhs);
      for (std::size_t k = 0; k < companion_caps->size(); ++k) {
        const auto& c = (*companion_caps)[k];
        // geq was folded into the cap list as `capacitance` by the caller
        // (already 2C/dt); ieq provided alongside.
        s.conductance(c.node_a, c.node_b, c.capacitance);
        s.current_into(c.node_a, (*companion_ieq)[k]);
        s.current_into(c.node_b, -(*companion_ieq)[k]);
      }
    }

    ++ws.iterations;
    // Identical-system memo (transient steps only): in the settled tail of a
    // run the assembled (A, rhs) repeats bit-identically with period <= 2
    // (see NewtonWorkspace::memo); the cached solution of those exact bits
    // replaces the factor+solve.
    const bool memo_on = companion_caps != nullptr;
    bool memo_hit = false;
    if (memo_on) {
      for (const auto& slot : ws.memo) {
        if (slot.valid && ws.rhs == slot.rhs && ws.lu.matrix().data() == slot.a.data()) {
          x_new = slot.x;
          ++ws.memo_hits;
          memo_hit = true;
          break;
        }
      }
    }
    if (!memo_hit) {
      NewtonWorkspace::MemoSlot* slot = memo_on ? &ws.memo[ws.memo_next] : nullptr;
      if (slot) {
        slot->valid = false;
        slot->a = ws.lu.matrix();  // snapshot before the in-place factor
        slot->rhs = ws.rhs;
      }
      if (!linalg::lu_factor(ws.lu)) {
        return false;  // singular Jacobian; caller escalates the continuation
      }
      linalg::lu_solve_factored(ws.lu, ws.rhs, x_new);
      if (slot) {
        slot->x = x_new;
        slot->valid = true;
        ws.memo_next = (ws.memo_next + 1) % ws.memo.size();
      }
    }

    // Damping: clamp the max node-voltage change.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < num_nodes; ++i) max_dv = std::max(max_dv, std::abs(x_new[i] - x[i]));
    double alpha = 1.0;
    if (max_dv > options.max_step) alpha = options.max_step / max_dv;

    bool converged = alpha == 1.0;
    if (alpha == 1.0) {
      // Settle snap: when every component moves by less than kSettleSnap of
      // the convergence tolerance the update is last-ulp noise (trapezoidal
      // companion ringing, rounding in the solve), not information. Keeping
      // the previous iterate bit-for-bit lets settled transients reach an
      // exactly periodic state, which the identical-system and step memos
      // then collapse to table lookups. Well below the stated tolerance, so
      // accuracy is unaffected.
      constexpr double kSettleSnap = 1e-3;
      bool settled = true;
      for (std::size_t i = 0; i < n; ++i) {
        const double dx = std::abs(x_new[i] - x[i]);
        const double tol = i < num_nodes ? options.v_tol : options.i_tol;
        const double scale = 1.0 + std::abs(x[i]);
        if (dx > tol * scale) converged = false;
        if (dx > kSettleSnap * tol * scale) settled = false;
      }
      // Undamped accept adopts the solved iterate bit-for-bit (writing
      // x += (x_new - x) would perturb the last ulp every step).
      if (!settled) {
        for (std::size_t i = 0; i < n; ++i) x[i] = x_new[i];
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) x[i] += alpha * (x_new[i] - x[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(x[i])) return false;
    }
    if (converged) {
      if (iterations_out) *iterations_out = iter + 1;
      return true;
    }
  }
  return false;
}

bool DcAnalysis::newton(const Netlist& netlist, double source_scale, double time, double gmin,
                        const DcOptions& options, Vec& x, int* iterations_out,
                        const std::vector<CapacitorStamp>* companion_caps,
                        const Vec* companion_ieq) {
  NewtonWorkspace ws;
  return newton(netlist, source_scale, time, gmin, options, x, iterations_out, ws, companion_caps,
                companion_ieq);
}

DcResult DcAnalysis::solve(Netlist& netlist, const Vec* initial_guess) const {
  if (!netlist.prepared()) netlist.prepare();
  DcResult result;
  result.x.assign(netlist.system_size(), 0.0);
  if (initial_guess && initial_guess->size() == netlist.system_size()) result.x = *initial_guess;

  // 1) Direct attempt.
  if (newton(netlist, 1.0, -1.0, options_.gmin, options_, result.x, &result.iterations, ws_)) {
    result.converged = true;
    result.method = "direct";
    return result;
  }

  // 2) gmin stepping: start heavily damped toward ground, relax to target.
  if (options_.allow_gmin_stepping) {
    Vec x(netlist.system_size(), 0.0);
    bool ok = true;
    for (double g = 1e-2; g >= options_.gmin * 0.99; g *= 1e-2) {
      if (!newton(netlist, 1.0, -1.0, std::max(g, options_.gmin), options_, x, nullptr, ws_)) {
        ok = false;
        break;
      }
    }
    if (ok && newton(netlist, 1.0, -1.0, options_.gmin, options_, x, &result.iterations, ws_)) {
      result.x = std::move(x);
      result.converged = true;
      result.method = "gmin";
      return result;
    }
  }

  // 3) Source stepping: ramp all independent sources from 0.
  if (options_.allow_source_stepping) {
    Vec x(netlist.system_size(), 0.0);
    bool ok = true;
    for (double scale = 0.1; scale < 1.0001; scale += 0.1) {
      // The final ramp step (scale ~ 1.0) is the real solve; report its
      // Newton count instead of the old max_iterations placeholder.
      int* iters = scale > 0.95 ? &result.iterations : nullptr;
      if (!newton(netlist, std::min(scale, 1.0), -1.0, options_.gmin, options_, x, iters, ws_)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      result.x = std::move(x);
      result.converged = true;
      result.method = "source";
      return result;
    }
  }

  result.converged = false;
  return result;
}

}  // namespace maopt::spice
