// The benchmark's three workloads. Each rep writes one JSON object of raw
// measurements (times, counts, trajectories, spans) into `out`; perfbench's
// Python side turns them into metrics and checks. A rep is a pure function
// of (sub_seed, traced) apart from its timings.
#pragma once

#include <cstdint>
#include <string>

#include "json_out.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch space for daemon state and job streams
  std::string deck_path;  ///< the five-transistor OTA deck (daemon_tenants)
  std::size_t workers = 0;  ///< simulator workers; the machine's core count
};

/// Runs one rep of `options.workload`, writing it as one JSON object.
void run_rep(const Options& options, std::uint64_t sub_seed, bool traced, int rep, Json& out);

bool known_workload(const std::string& name);

/// Reps (untraced) or traced pairs a run of `options.seconds` makes. The count is
/// fixed from each workload's typical rep time on a 4-core x86 host rather
/// than taken from the clock, so every run at one seed does the same work
/// on the same inputs whatever the program's speed, and a faster program is
/// compared with a slower one rep for rep.
int planned_reps(const Options& options);

}  // namespace perfbench
