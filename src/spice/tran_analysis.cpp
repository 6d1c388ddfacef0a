#include "spice/tran_analysis.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "spice/devices.hpp"

namespace maopt::spice {

TranResult TranAnalysis::run(Netlist& netlist) const {
  if (!netlist.prepared()) netlist.prepare();
  for (const auto& dev : netlist.devices())
    if (dynamic_cast<const Inductor*>(dev.get()) != nullptr)
      throw std::logic_error("TranAnalysis: inductors are not supported in transient");

  TranResult result;

  // One Newton workspace for the whole run: the t=0 point and every time
  // step (including halved retries) factor into the same buffers.
  NewtonWorkspace ws;

  // Initial operating point with sources evaluated at t = 0.
  Vec x(netlist.system_size(), 0.0);
  if (!DcAnalysis::newton(netlist, 1.0, 0.0, options_.dc.gmin, options_.dc, x, nullptr, ws)) {
    // Fall back to the full continuation ladder for the t=0 point.
    DcAnalysis dc(options_.dc);
    DcResult op = dc.solve(netlist);
    if (!op.converged) return result;
    x = std::move(op.x);
    // Re-polish at t=0 source values (solve() used DC waveform values, which
    // equal value(0) for all shipped waveform kinds).
    if (!DcAnalysis::newton(netlist, 1.0, 0.0, options_.dc.gmin, options_.dc, x, nullptr, ws))
      return result;
  }

  const std::vector<CapacitorStamp> caps = netlist.collect_caps(x);

  // Per-capacitor trapezoidal state.
  std::vector<double> v_prev(caps.size()), i_prev(caps.size(), 0.0);
  auto cap_voltage = [&](const CapacitorStamp& c, const Vec& sol) {
    return Netlist::voltage(sol, c.node_a) - Netlist::voltage(sol, c.node_b);
  };
  for (std::size_t k = 0; k < caps.size(); ++k) v_prev[k] = cap_voltage(caps[k], x);

  // Fixed-step run: the final size is known up front, so the waveform
  // storage never reallocates mid-run (halved retries only add entries).
  const auto expected_steps = static_cast<std::size_t>(options_.t_stop / options_.dt) + 2;
  result.stride = netlist.system_size();
  result.time.reserve(expected_steps);
  result.states.reserve(expected_steps * result.stride);
  result.time.push_back(0.0);
  result.states.insert(result.states.end(), x.begin(), x.end());

  std::vector<CapacitorStamp> companions(caps.size());
  Vec ieq(caps.size());

  // Whole-step memo: the accepted solution of a step is a pure function of
  // (starting iterate, companion currents, source waveform values, step
  // size) — everything else (topology, device parameters, gmin, Newton
  // options) is fixed for the run. Once the waveform settles into an exactly
  // periodic state (the settle snap in DcAnalysis::newton makes that happen
  // in FP, with the trapezoidal companion current alternating at period 2),
  // the whole Newton solve — assembly included — collapses to a lookup.
  struct StepMemo {
    double step = 0.0;
    Vec x_in, ieq, src, x_out;
    bool valid = false;
  };
  std::array<StepMemo, 2> smemo;
  std::size_t smemo_next = 0;
  Vec src_now;

  double t = 0.0;
  double dt = options_.dt;
  Vec x_try;
  while (t < options_.t_stop - 1e-18) {
    if (options_.dc.deadline.expired()) return result;  // converged=false
    double step = std::min(dt, options_.t_stop - t);
    bool ok = false;
    int halvings = 0;
    while (!ok) {
      const double geq_scale = 2.0 / step;
      for (std::size_t k = 0; k < caps.size(); ++k) {
        const double geq = geq_scale * caps[k].capacitance;
        companions[k] = {caps[k].node_a, caps[k].node_b, geq};
        ieq[k] = geq * v_prev[k] + i_prev[k];
      }
      netlist.collect_time_inputs(t + step, src_now);
      bool memo_hit = false;
      for (const auto& slot : smemo) {
        if (slot.valid && slot.step == step && slot.ieq == ieq && slot.src == src_now &&
            slot.x_in == x) {
          x_try = slot.x_out;
          ++result.step_memo_hits;
          memo_hit = ok = true;
          break;
        }
      }
      if (!memo_hit) {
        x_try = x;
        ok = DcAnalysis::newton(netlist, 1.0, t + step, options_.dc.gmin, options_.dc, x_try,
                                nullptr, ws, &companions, &ieq);
        if (ok) {
          StepMemo& slot = smemo[smemo_next];
          slot.step = step;
          slot.x_in = x;
          slot.ieq = ieq;
          slot.src = src_now;
          slot.x_out = x_try;
          slot.valid = true;
          smemo_next = (smemo_next + 1) % smemo.size();
        }
      }
      if (!ok) {
        if (++halvings > options_.max_step_halvings) return result;  // converged=false
        step *= 0.5;
      }
    }
    // Accept the step; update trapezoidal states.
    for (std::size_t k = 0; k < caps.size(); ++k) {
      const double geq = companions[k].capacitance;
      const double v_new = cap_voltage(caps[k], x_try);
      i_prev[k] = geq * v_new - ieq[k];
      v_prev[k] = v_new;
    }
    t += step;
    std::swap(x, x_try);  // keep x_try's storage for the next step
    result.time.push_back(t);
    result.states.insert(result.states.end(), x.begin(), x.end());
  }
  result.converged = true;
  result.newton_iterations = ws.iterations;
  result.newton_memo_hits = ws.memo_hits;
  return result;
}

}  // namespace maopt::spice
