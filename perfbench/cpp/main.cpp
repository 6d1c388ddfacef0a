// maopt_perfbench — runs one workload of the end-to-end benchmark and
// writes its raw measurements as JSON.
//
//   maopt_perfbench --workload ota_ma_opt --seed 1 --seconds 36 --trace 0
//       --out raw.json --work-dir work --deck decks/five_transistor_ota.cir
//
// A run makes planned_reps() reps back to back, about --seconds of work.
// With --trace 1 reps come in pairs at one sub-seed, untraced and traced,
// alternating which goes first, so the traced numbers and their overhead
// are measured against the same inputs. perfbench/run.py builds this
// binary, calls it and turns the file into metrics.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <thread>

#include "common/cli.hpp"
#include "common/rng.hpp"

#include "probes.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const maopt::CliArgs args(argc, argv);
  Options options;
  options.workload = args.get("workload", "");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.seconds = args.get_double("seconds", 10.0);
  options.trace = args.get_int("trace", 0) != 0;
  options.work_dir = args.get("work-dir", "");
  options.deck_path = args.get("deck", "");
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  // One simulator worker per core this process may run on.
  options.workers = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                        ? static_cast<std::size_t>(CPU_COUNT(&cpus))
                        : std::thread::hardware_concurrency();
  const std::string out_path = args.get("out", "");
  if (!known_workload(options.workload) || out_path.empty() || options.workers == 0 ||
      (options.workload == "daemon_tenants" && (options.work_dir.empty() || options.deck_path.empty()))) {
    std::fprintf(stderr,
                 "usage: maopt_perfbench --workload ota_ma_opt|ota_mc_yield|daemon_tenants --seed N "
                 "--seconds S --trace 0|1 --out FILE [--work-dir DIR --deck FILE]\n");
    return 2;
  }

  try {
    Json out;
    out.begin_object();
    out.field("workload", options.workload);
    out.field("seed", options.seed);
    out.field("trace", options.trace);
    out.field("workers", static_cast<std::uint64_t>(options.workers));
    out.key("reps").begin_array();
    const auto start = Clock::now();
    const int reps = planned_reps(options);
    for (int k = 0; k < reps; ++k) {
      const std::uint64_t sub_seed = maopt::derive_seed(options.seed, static_cast<std::uint64_t>(k));
      if (!options.trace) {
        run_rep(options, sub_seed, false, k, out);
      } else {
        const bool traced_first = k % 2 == 1;
        run_rep(options, sub_seed, traced_first, k, out);
        run_rep(options, sub_seed, !traced_first, k, out);
      }
    }
    out.end_array();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out.field("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    out.field("elapsed_s", seconds_between(start, Clock::now()));
    out.end_object();

    std::ofstream file(out_path);
    file << out.str() << '\n';
    if (!file) {
      std::fprintf(stderr, "maopt_perfbench: cannot write %s\n", out_path.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maopt_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
