// Evaluation-layer benchmark (writes BENCH_eval.json): the in-tree
// simulator's hot path on a real circuit, layer by layer. The service,
// sweep and daemon mechanisms are measured end to end on the real OTA and
// LDO by perfbench (ota_mc_yield, daemon_tenants), not here.
//
// Rows (raw in-tree simulator, real TwoStageOta — per-layer hot-path record;
// each is the best of several interleaved rounds so one noisy round cannot
// fake a regression or an improvement):
//   raw_point_sims_per_s      fresh evaluate() per design (cold benches)
//   raw_session_sims_per_s    one persistent EvalSession (amortized benches)
//   raw_session_speedup       session / point
//   raw_batch_sims_per_s      EvalService::evaluate_batch over the session pool
//   newton_iterations_per_solve  DC-sweep Newton effort (workspace counters)
//   lu_factor_solve_per_s     assemble-factor-solve cycles on the MNA size
//   lu_resolve_per_s          back-substitutions against a held factorization
//   lu_reuse_speedup          resolve / factor+solve (the factor/solve split)
//   ac_sweep_points_per_s     hot-path AC points (G/C split + SIMD combine)
//   ac_multi_rhs_speedup      3-excitation run_multi vs 3 independent runs
//
// Flags:
//   --smoke        tiny sizes (CTest wiring; a few seconds)
//   --threads N    service batch pool size (default 4)
//   --raw-evals N  raw-simulator evaluations per round (default 24; smoke 4)
//   --json PATH    output path (default BENCH_eval.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "exp_common.hpp"
#include "spice/ac_analysis.hpp"
#include "spice/dc_analysis.hpp"
#include "spice/devices.hpp"
#include "spice/mosfet.hpp"

namespace {

using namespace maopt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke");
  const auto threads =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.get_int("threads", 4)));
  const std::string json_path = args.get("json", "BENCH_eval.json");
  std::vector<bench::BenchMetric> metrics;

  // --- 1) raw in-tree simulator hot path (real TwoStageOta) ---
  // Interleaved A/B: every path is timed once per round and the best round
  // wins, so background load hits all paths alike instead of whichever ran
  // last.
  {
    using linalg::Vec;
    const auto raw_evals = static_cast<std::size_t>(args.get_int("raw-evals", smoke ? 4 : 24));
    const int rounds = smoke ? 2 : 5;

    ckt::TwoStageOta ota;
    const Vec x0 = ota.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
    // Distinct neighbours of x0 so the batch path cannot coalesce them.
    std::vector<Vec> raw_designs;
    for (std::size_t i = 0; i < raw_evals; ++i) {
      Vec xi = x0;
      xi[10] += 0.01 * static_cast<double>(i);
      raw_designs.push_back(ota.clip(xi));
    }

    const auto session = ota.make_session();
    session->evaluate(x0);  // warm-up: builds the persistent benches

    double point_rate = 0.0, session_rate = 0.0, batch_rate = 0.0;
    for (int r = 0; r < rounds; ++r) {
      auto t0 = Clock::now();
      for (const auto& x : raw_designs) ota.evaluate(x);
      point_rate = std::max(point_rate, static_cast<double>(raw_evals) / seconds_since(t0));

      t0 = Clock::now();
      for (const auto& x : raw_designs) session->evaluate(x);
      session_rate = std::max(session_rate, static_cast<double>(raw_evals) / seconds_since(t0));

      eval::EvalServiceConfig raw_config;
      raw_config.num_threads = threads;
      eval::EvalService raw_service(ota, raw_config);  // fresh memory-only cache per round
      t0 = Clock::now();
      raw_service.evaluate_batch(raw_designs);
      batch_rate = std::max(batch_rate, static_cast<double>(raw_evals) / seconds_since(t0));
    }
    std::printf("raw simulator, %zu evals x %d rounds: point %.0f, session %.0f (%.2fx), "
                "batch %.0f sims/s\n",
                raw_evals, rounds, point_rate, session_rate, session_rate / point_rate,
                batch_rate);
    metrics.push_back({"raw_point_sims_per_s", point_rate, "sims/s"});
    metrics.push_back({"raw_session_sims_per_s", session_rate, "sims/s"});
    metrics.push_back({"raw_session_speedup", session_rate / point_rate, "x"});
    metrics.push_back({"raw_batch_sims_per_s", batch_rate, "sims/s"});
  }

  // --- 2) per-layer micro metrics on a shared MOSFET testbench ---
  {
    using namespace maopt::spice;
    Netlist net;
    const int vdd = net.node("vdd");
    const int in = net.node("in");
    const int out = net.node("out");
    net.add<VSource>(vdd, kGround, Waveform::dc(1.8));
    auto* vin = net.add<VSource>(in, kGround, Waveform::dc(0.7), 1.0);
    net.add<Resistor>(vdd, out, 5e3);
    net.add<Mosfet>(out, in, kGround, kGround, MosModel::nmos_180(), 20e-6, 1e-6);
    net.add<Capacitor>(out, kGround, 1e-12);
    net.prepare();

    // Newton effort: a 33-point DC sweep with guess chaining, counted by the
    // analysis workspace.
    DcAnalysis dc;
    linalg::Vec guess;
    for (int k = 0; k < 33; ++k) {
      vin->set_dc(0.4 + 0.6 * static_cast<double>(k) / 32.0);
      const DcResult pt = dc.solve(net, guess.empty() ? nullptr : &guess);
      if (pt.converged) guess = pt.x;
    }
    vin->set_dc(0.7);
    const double iters_per_solve = static_cast<double>(dc.workspace().iterations) /
                                   static_cast<double>(dc.workspace().solves);
    metrics.push_back({"newton_iterations_per_solve", iters_per_solve, "iters"});

    // Factor/solve split at a representative MNA size: full
    // assemble+factor+solve cycles vs back-substitutions against a held
    // factorization.
    const std::size_t n = 24;
    Rng lu_rng(7);
    linalg::Mat a(n, n);
    for (auto& v : a.data()) v = lu_rng.uniform(-1, 1);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n) + 2.0;
    std::vector<double> b(n, 1.0), xs;
    linalg::LuWorkReal ws;
    const int lu_reps = smoke ? 2000 : 20000;
    double factor_rate = 0.0, resolve_rate = 0.0;
    for (int r = 0; r < (smoke ? 2 : 5); ++r) {
      auto t0 = Clock::now();
      for (int i = 0; i < lu_reps; ++i) {
        ws.matrix() = a;
        linalg::lu_factor(ws);
        linalg::lu_solve_factored(ws, b, xs);
      }
      factor_rate = std::max(factor_rate, lu_reps / seconds_since(t0));
      t0 = Clock::now();
      for (int i = 0; i < lu_reps; ++i) linalg::lu_solve_factored(ws, b, xs);
      resolve_rate = std::max(resolve_rate, lu_reps / seconds_since(t0));
    }
    metrics.push_back({"lu_factor_solve_per_s", factor_rate, "ops/s"});
    metrics.push_back({"lu_resolve_per_s", resolve_rate, "ops/s"});
    metrics.push_back({"lu_reuse_speedup", resolve_rate / factor_rate, "x"});

    // AC layer: hot-path sweep rate and the shared-factorization multi-rhs
    // win (three excitations, the OTA measurement trio's shape).
    const DcResult op = dc.solve(net);
    AcAnalysis ac;
    const auto freqs = log_frequency_grid(1.0, 10e9, 10);
    CVec rhs;
    net.build_ac_rhs(rhs);
    const std::vector<CVec> excitations(3, rhs);
    const int ac_reps = smoke ? 20 : 200;
    double ac_rate = 0.0, multi3_rate = 0.0, single3_rate = 0.0;
    for (int r = 0; r < (smoke ? 2 : 5); ++r) {
      auto t0 = Clock::now();
      for (int i = 0; i < ac_reps; ++i) ac.run(net, op.x, freqs);
      const double sweep_s = seconds_since(t0);
      ac_rate = std::max(ac_rate, static_cast<double>(freqs.size()) * ac_reps / sweep_s);
      single3_rate = std::max(single3_rate, ac_reps / (3.0 * sweep_s));
      t0 = Clock::now();
      for (int i = 0; i < ac_reps; ++i) ac.run_multi(net, op.x, freqs, excitations);
      multi3_rate = std::max(multi3_rate, ac_reps / seconds_since(t0));
    }
    metrics.push_back({"ac_sweep_points_per_s", ac_rate, "points/s"});
    metrics.push_back({"ac_multi_rhs_speedup", multi3_rate / single3_rate, "x"});
    std::printf("layers: %.2f newton iters/solve, LU reuse %.1fx, AC %.0f points/s "
                "(multi-rhs %.2fx)\n",
                iters_per_solve, resolve_rate / factor_rate, ac_rate,
                multi3_rate / single3_rate);
  }

  bench::write_bench_json(json_path, metrics);
  return 0;
}
