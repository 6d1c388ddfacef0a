#!/usr/bin/env python3
"""End-to-end benchmark of MA-Opt on the repo's real circuits.

    python3 perfbench/run.py --workload ota_ma_opt --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ together with ../src
(Release) into .bench_build/, runs one workload for --seconds, checks its
outputs and prints, as the last line of stdout, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A human-readable report
(and, with --trace 1, the layer table) goes to stderr, and a copy of the
result stamped with the host and build goes to .bench_build/results/.

Workloads and metric definitions: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Row, core_layers, critic_gflops, render_table  # noqa: E402
from stats import digest, median, ratio, tail  # noqa: E402

WORKLOADS = ("ota_ma_opt", "ota_mc_yield", "daemon_tenants")
BENCH_DIR = Path(__file__).resolve().parent
DECK = Path("decks") / "five_transistor_ota.cir"
# Time limits: a run stays under 3 minutes; the first run in a checkout also
# builds, which may take several more.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 780.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def cmake_cache(build_dir):
    cache = {}
    path = build_dir / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text(errors="replace").splitlines():
            m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def build(root, build_dir, jobs, deadline):
    """Configures (once) and builds the benchmark; returns the binary path."""
    def step(cmd):
        left = deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("no time left to build")
        subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=left)

    if not any((build_dir / f).exists() for f in ("Makefile", "build.ninja")):
        step(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", str(build_dir), "--target", "maopt_perfbench", "-j", str(jobs)])
    return build_dir / "maopt_perfbench"


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def job_stream(path):
    """Trajectory, iteration latencies and spans of one daemon job's JSONL."""
    sims, steps, iterations, first_feasible = [], [], [], -1
    last_t = initial_s = None
    for e in read_jsonl(path):
        kind = e["event"]
        if kind == "run_started":
            # The stream opens at submit, so this is the job's start-up and
            # initial-set sampling.
            last_t = initial_s = e["t"]
        elif kind == "simulation_completed":
            sims.extend([e["index"], e["ok"], e["feasible"], e["fom"]])
            if e["feasible"] and first_feasible < 0:
                first_feasible = e["index"]
        elif kind == "iteration_completed":
            steps.append(1e3 * (e["t"] - last_t))
            last_t = e["t"]
            iterations.append({
                "wall_s": e["wall_seconds"], "near_sampling": e["near_sampling"],
                "spans": [[s["phase"], s["lane"], s["seconds"]] for s in e["spans"]]})
        elif kind == "run_finished":
            sims.extend([e["simulations"], e["best_fom"]])
    return {"trajectory": sims, "steps_ms": steps, "iterations": iterations,
            "first_feasible": first_feasible, "initial_s": initial_s}


def attach_streams(raw):
    for rep in raw["reps"]:
        for job in rep.get("jobs", []):
            job["stream"] = job_stream(job["jsonl"])


def trajectory(rep):
    if "jobs" in rep:
        return [v for job in rep["jobs"] for v in [job["name"], *job["stream"]["trajectory"]]]
    return rep["foms"]


def setup_s(rep):
    """Set-up of a rep. On daemon_tenants it is the daemon's construction
    plus the cold jobs' initial-set sampling, which run concurrently."""
    if "jobs" in rep:
        return rep["construct_s"] + max(j["stream"]["initial_s"] for j in rep["jobs"]
                                        if j["name"].endswith("-cold"))
    return rep["setup_s"]


def steps_ms(rep):
    if "jobs" in rep:
        return [s for job in rep["jobs"] for s in job["stream"]["steps_ms"]]
    return rep["steps_ms"]


def eval_counters(rep):
    """Service totals summed over the rep's services (none on ota_ma_opt)."""
    total = {k: 0 for k in ("requested", "hits", "misses", "coalesced", "simulations")}
    for counters in rep.get("eval", {}).values():
        for k in total:
            total[k] += counters[k]
    return total


def invariant_counters(rep):
    """Counters that cannot depend on thread timing. Whether an in-flight
    duplicate is served as a hit or as a coalesced miss can, but their sum
    and the simulations run cannot."""
    e = eval_counters(rep)
    c = rep["circuits"]
    return (e["requested"], e["simulations"], e["hits"] + e["coalesced"],
            c["evaluations"], c["failed"], c["sessions_created"])


# --- end-to-end metrics ------------------------------------------------------

def end_to_end(raw, reps):
    steps = [s for r in reps for s in steps_ms(r)]
    step_tail = tail(steps)
    setups = [setup_s(r) for r in reps]
    evaluations = sum(r["circuits"]["evaluations"] for r in reps)
    failed = sum(r["circuits"]["failed"] for r in reps)
    unspent = sum(r["unspent"] for r in reps)
    ok = ratio(evaluations - failed, evaluations + unspent, "simulations attempted + unspent budget")
    metrics = {
        "sims_per_s": (median([r["sims"] / r["wall_s"] for r in reps]), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "sim_ok_ratio": (ok.value, "ratio"),
    }
    # Step latency is reported but not gated: on a shared host its median and
    # tail moved between runs by more than any allowed bound (see README).
    notes = [f"step latency over {len(steps)} steps ({len(reps)} reps): p50 {median(steps):.4g} ms, "
             f"tail {step_tail.value:.4g} ms = p{step_tail.percentile:.1f}",
             f"setup median of {len(setups)} set-ups", f"sim_ok_ratio {ok.describe()}"]
    return metrics, notes


# --- per-layer metrics -------------------------------------------------------

LAYER_UNITS = {
    "core.critic.train_share": "ratio",
    "core.critic.gflops_computed": "GFLOP",
    "core.actor.train_crit_share": "ratio",
    "core.actor.train_cpu_share": "ratio",
    "core.actor.lane_efficiency": "ratio",
    "core.near_sampling.share": "ratio",
    "core.near_sampling.iterations": "count",
    "core.elite.update_share": "ratio",
    "core.iterations": "count",
    "core.unattributed_share": "ratio",
    "circuits.crit_share": "ratio",
    "circuits.evaluate.count": "count",
    "circuits.evaluate.busy_s": "s",
    "circuits.evaluate_p50_us": "us",
    "circuits.evaluate_tail_us": "us",
    "circuits.evaluate.failed": "count",
    "circuits.sessions_created": "count",
    "eval.requested": "count",
    "eval.hits": "count",
    "eval.misses": "count",
    "eval.coalesced": "count",
    "eval.simulations": "count",
    "eval.hit_ratio": "ratio",
    "eval.pool_utilization": "ratio",
    "serve.jobs": "count",
    "serve.job_queue_share": "ratio",
    "serve.job_concurrency": "ratio",
    "serve.warm_rerun_ratio": "ratio",
    "serve.scheduler.fairness_ratio": "ratio",
    "serve.scheduler.waiting_max": "count",
    "deck.compile_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "run.best_fom": "fom",
    "run.sims_to_feasible": "count",
}


def rep_layers(workload, rep):
    """Per-layer values of one traced rep, their ratio bases, and table rows."""
    wall = rep["wall_s"]
    c = rep["circuits"]
    e = eval_counters(rep)
    v = dict.fromkeys(LAYER_UNITS, 0.0)
    bases = {}
    rows = []

    def put(name, r):
        v[name], bases[name] = r.value, r

    def share(name, seconds):
        put(name, ratio(seconds, wall, "workload wall s"))

    core = None
    if workload == "ota_ma_opt":
        core = core_layers(rep["iterations"])
        actor_cpu = rep["train_s"] - core.critic_s  # ThreadCpuTimer, summed over lanes
        v["core.critic.gflops_computed"] = critic_gflops(core.critic_rounds, rep["dim"], rep["metrics"])
        share("core.unattributed_share", wall - core.crit_s())
        first = rep["first_feasible"]
        v["run.best_fom"] = rep["best_fom"]
        v["run.sims_to_feasible"] = 0 if rep["initial_feasible"] else (first if first >= 0 else rep["budget"])
        lanes = rep["lanes"]
    elif workload == "daemon_tenants":
        jobs = rep["jobs"]
        per_job = [core_layers(j["stream"]["iterations"]) for j in jobs]
        core = sum(per_job[1:], per_job[0])
        actor_cpu = core.actor_lane_s  # no CPU clock in the job stream: lane wall
        v["core.critic.gflops_computed"] = sum(
            critic_gflops(layers.critic_rounds, *rep["shapes"][j["problem"]])
            for layers, j in zip(per_job, jobs))
        lanes = 3
        ldo_cold = next(j for j in jobs if j["name"] == "ldo-cold")
        ldo_warm = next(j for j in jobs if j["name"] == "ldo-warm")
        v["run.best_fom"] = ldo_cold["best_fom"]
        first = ldo_cold["stream"]["first_feasible"]
        v["run.sims_to_feasible"] = first if first >= 0 else ldo_cold["simulations"]
        run_s = sum(j["run_s"] for j in jobs)
        adm = rep["admission"]
        v["serve.jobs"] = len(jobs)
        put("serve.job_queue_share", ratio(adm["wait_s"], run_s, "job running s"))
        share("serve.job_concurrency", run_s)
        put("serve.warm_rerun_ratio", ratio(ldo_warm["run_s"], ldo_cold["run_s"], "cold ldo job s"))
        put("deck.compile_share", ratio(rep["deck_compile_s"], rep["construct_s"],
                                        "daemon construction s"))
        grants = list(adm["grants_at_first_finish"].values())
        if len(grants) >= 2 and min(grants) > 0:
            v["serve.scheduler.fairness_ratio"] = max(grants) / min(grants)
        v["serve.scheduler.waiting_max"] = adm["waiting_max"]
        rows.append(Row("serve.admission_wait", adm["requests"], None, adm["wait_s"]))
        rows.append(Row("deck.compile", 1, rep["deck_compile_s"], rep["deck_compile_s"]))

    if core is not None:
        share("core.critic.train_share", core.critic_s)
        share("core.actor.train_crit_share", core.actor_crit_s)
        share("core.actor.train_cpu_share", actor_cpu)
        share("core.near_sampling.share", core.ns_s)
        share("core.elite.update_share", core.elite_s)
        share("circuits.crit_share", core.sim_crit_s)
        put("core.actor.lane_efficiency",
            ratio(actor_cpu, lanes * core.actor_crit_s, "lanes x actor critical-path s"))
        v["core.near_sampling.iterations"] = core.ns_iterations
        v["core.iterations"] = core.iterations
        rows[:0] = [Row("core.critic", core.critic_rounds, core.critic_s, core.critic_s),
                    Row("core.actor", core.actor_trainings, core.actor_crit_s, actor_cpu),
                    Row("circuits.evaluate", c["evaluations"], core.sim_crit_s, c["busy_s"]),
                    Row("core.near_sampling", core.ns_iterations, core.ns_s, core.ns_s),
                    Row("core.elite", core.elite_updates, core.elite_s, core.elite_s)]
        if workload == "ota_ma_opt":
            rows.append(Row("unattributed", 0, wall - core.crit_s(), None))
    else:
        rows.append(Row("circuits.evaluate", c["evaluations"], None, c["busy_s"]))

    if e["requested"]:
        util = ratio(c["busy_s"], wall * rep["workers"], "workload wall s x workers")
        put("eval.pool_utilization", util)
        if workload == "ota_mc_yield":
            # Every yield step waits on the pool: its busy share is the
            # simulator's share of the critical path.
            put("circuits.crit_share", util)
    put("eval.hit_ratio", ratio(e["hits"], e["requested"], "eval.requested"))
    for k in ("requested", "hits", "misses", "coalesced", "simulations"):
        v["eval." + k] = e[k]
    v["circuits.evaluate.count"] = c["evaluations"]
    v["circuits.evaluate.busy_s"] = c["busy_s"]
    v["circuits.evaluate.failed"] = c["failed"]
    v["circuits.sessions_created"] = c["sessions_created"]
    return v, bases, rows


def per_layer(workload, raw, pairs):
    traced = [t for _, t in pairs]
    per_rep = [rep_layers(workload, r) for r in traced]
    metrics = {name: (median([v[name] for v, _, _ in per_rep]), unit)
               for name, unit in LAYER_UNITS.items()}
    durations = [d for r in traced for d in r["circuits"]["durations_us"]]
    if durations:
        metrics["circuits.evaluate_p50_us"] = (median(durations), "us")
        metrics["circuits.evaluate_tail_us"] = (tail(durations).value, "us")
    overhead = [t["wall_s"] / u["wall_s"] for u, t in pairs]
    metrics["trace.overhead_ratio"] = (median(overhead), "ratio")

    # The rep closest to the median wall stands for the run in the table.
    mid = sorted(range(len(traced)), key=lambda i: traced[i]["wall_s"])[len(traced) // 2]
    _, bases, rows = per_rep[mid]
    table = render_table(rows, traced[mid]["wall_s"],
                         f"layer table ({workload}, traced rep {traced[mid]['rep']}, "
                         f"share = crit / wall)")
    notes = [table, "ratio bases (that rep):"]
    notes += [f"  {name}: {r.describe()}" for name, r in sorted(bases.items())]
    notes.append(f"trace.overhead_ratio = median traced/untraced wall over {len(pairs)} pairs")
    return metrics, notes


# --- checks ------------------------------------------------------------------

def run_checks(workload, raw, pairs):
    checks = []
    for rep in raw["reps"]:
        tag = f"rep{rep['rep']}{'t' if rep['traced'] else 'u'}"
        checks += [(f"{tag}.{c['name']}", c["ok"]) for c in rep["checks"]]
        if workload == "daemon_tenants":
            jobs = {j["name"]: j["stream"]["trajectory"] for j in rep["jobs"]}
            checks.append((f"{tag}.warm_rerun_trajectory_identical",
                           digest(jobs["ldo-warm"]) == digest(jobs["ldo-cold"])))
    for untraced, traced in pairs:
        tag = f"rep{untraced['rep']}"
        checks.append((f"{tag}.traced_trajectory_identical",
                       digest(trajectory(untraced)) == digest(trajectory(traced))))
        checks.append((f"{tag}.traced_counters_identical",
                       invariant_counters(untraced) == invariant_counters(traced)))
        if workload == "ota_ma_opt":
            # Named layers may not claim more than the wall (1% for clocks).
            core = core_layers(traced["iterations"])
            checks.append((f"{tag}.layers_fit_in_wall", core.crit_s() <= 1.01 * traced["wall_s"]))
    return checks


def operations(raw):
    return (sum(r["operations"] for r in raw["reps"]),
            sum(r["failed_operations"] for r in raw["reps"]))


# --- stamp -------------------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler(build_dir):
    for path in sorted(build_dir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = path.read_text(errors="replace")
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            return f"{cid.group(1)} {ver.group(1)}"
    return "unknown"


def source_sha(root):
    """Hash of the sources built (used when the checkout is not a git repo)."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(root, build_dir, workers):
    cache = cmake_cache(build_dir)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": workers, "cpu_model": cpu_model(), "compiler": compiler(build_dir),
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "maopt_native": cache.get("MAOPT_NATIVE", "OFF"),
            "git_sha": sha, "source_sha256": source_sha(root)}


# --- main --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    build_dir = root / ".bench_build"
    workers = len(os.sched_getaffinity(0))
    try:
        binary = build(root, build_dir, workers, started + BUILD_LIMIT_S)
    except (OSError, subprocess.SubprocessError, RuntimeError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = build_dir / "work" / tag
    raw_path = build_dir / "raw" / f"{tag}.json"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(raw_path),
           "--work-dir", str(work_dir), "--deck", str(DECK)]
    deadline = max(started + RUN_LIMIT_S, time.monotonic() + args.seconds + 60.0)
    try:
        subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=deadline - time.monotonic())
        raw = json.loads(raw_path.read_text())
        attach_streams(raw)
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"perfbench: {args.workload} failed: {e}")
        return 1

    reps = raw["reps"]
    untraced = [r for r in reps if not r["traced"]]
    by_rep = {}
    for r in reps:
        by_rep.setdefault(r["rep"], {})[r["traced"]] = r
    pairs = [(p[False], p[True]) for p in by_rep.values() if len(p) == 2]

    if args.trace:
        metrics, notes = per_layer(args.workload, raw, pairs)
    else:
        metrics, notes = end_to_end(raw, untraced)
    checks = run_checks(args.workload, raw, pairs)
    attempted, failed = operations(raw)
    correct = all(ok for _, ok in checks)
    shutil.rmtree(work_dir, ignore_errors=True)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    host = stamp(root, build_dir, workers)
    results_dir = build_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "stamp": host, "reps": len(reps), "notes": notes,
         "checks": {name: ok for name, ok in checks}}, indent=1))

    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(reps)} reps in {raw['elapsed_s']:.1f} s; host {host}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<34} {value:>14.6g} {unit}")
    for note in notes:
        log(note)
    bad = [name for name, ok in checks if not ok]
    log(f"checks: {len(checks) - len(bad)}/{len(checks)} passed" + (f"; FAILED: {bad}" if bad else ""))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
