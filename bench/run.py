#!/usr/bin/env python3
"""Benchmark of the stratshear CLI on seeded workloads.

    python3 bench/run.py --workload couette_pointwise --seed 0 --seconds 40 --trace 0

With ``--trace 0`` it times complete CLI runs in fresh processes (``run_s``,
``peak_rss_mb``) and the set-up calls before stepping (``setup_s``), and
gates every run's outputs for correctness.  With ``--trace 1`` it alternates
untraced runs with traced ones, in which every public function of the
package is wrapped in a timer, and reports the per-layer metrics and the
tracing overhead.  Run it from anywhere; it uses the ``src`` tree next to
this directory.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the detail (samples, percentiles, environment).  See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_out"

SETUP_PROBES = 3   # fresh-process set-up measurements per untraced run
MIN_RUNS = 3       # untraced CLI runs per untraced run, even past --seconds
MIN_PAIRS = 2      # untraced/traced pairs per traced run, even past --seconds
HARD_LIMIT_S = 170.0  # no child may still be running this long after start

MATVEC = "spectral_ops.apply_profile_convolution"
RHS = ("evolution.couette_rhs", "evolution.full_rhs")

END_TO_END = {"run_s": ("s", "lower"), "setup_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}

# name -> (unit, better); names not ending in _s or _us are work counters,
# which must repeat exactly across runs.
PER_LAYER = {
    "spectral_ops.matvec.calls": ("count", "lower"),
    "spectral_ops.matvec.calls.g1": ("count", "lower"),
    "spectral_ops.matvec.calls.g2": ("count", "lower"),
    "spectral_ops.matvec.calls.b": ("count", "lower"),
    "spectral_ops.matvec.busy_s": ("s", "lower"),
    "spectral_ops.matvec.mean_us": ("us", "lower"),
    "spectral_ops.matvec.flops_computed": ("flop", "lower"),
    "spectral_ops.matvec.bytes_computed": ("B", "lower"),
    "spectral_ops.matvec.calls_in_rhs": ("count", "lower"),
    "spectral_ops.matvecs_per_rhs": ("matvec/rhs", "lower"),
    "spectral_ops.solve_TL.calls": ("count", "lower"),
    "spectral_ops.solve_TL.busy_s": ("s", "lower"),
    "spectral_ops.solve_TB.calls": ("count", "lower"),
    "spectral_ops.solve_TB.busy_s": ("s", "lower"),
    "spectral_ops.solver.solves": ("count", "lower"),
    "spectral_ops.solver.iterations_max": ("count", "lower"),
    "spectral_ops.solver.contraction_ratio_max": ("ratio", "lower"),
    "evolution.rhs.calls": ("count", "lower"),
    "evolution.rhs.busy_s": ("s", "lower"),
    "evolution.rhs.mean_us": ("us", "lower"),
    "evolution.evolve.busy_s": ("s", "lower"),
    "evolution.evolve.self_s": ("s", "lower"),
    "evolution.weighted_energy_Es.calls": ("count", "lower"),
    "evolution.weighted_energy_Es.busy_s": ("s", "lower"),
    "multipliers.eval_bl.calls": ("count", "lower"),
    "multipliers.eval_bl.busy_s": ("s", "lower"),
    "observables.series_norms.busy_s": ("s", "lower"),
    "observables.fit_power_law.busy_s": ("s", "lower"),
    "shear.build_profile.busy_s": ("s", "lower"),
    "shear.sample_spectrum.calls": ("count", "lower"),
    "shear.sample_spectrum.busy_s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
COUNTERS = {name for name in PER_LAYER if not name.endswith(("_s", "_us"))}


class BenchError(RuntimeError):
    """The benchmark cannot measure: missing program, or a probe failed."""


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    output: str


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, log_path, hard_deadline):
    """Run one child to completion; wall time and peak RSS come from wait4."""
    timeout = hard_deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("time limit reached before a child could start")
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, Path(log_path).read_text())


def probe_json(work, hard_deadline, *args):
    child = run_child([sys.executable, str(HERE / "probe.py"), *args],
                      work / "probe.log", hard_deadline)
    lines = child.output.strip().splitlines()
    if child.code != 0 or not lines:
        raise BenchError(f"probe {args[0]} failed with exit code {child.code}:\n{child.output}")
    return json.loads(lines[-1])


def run_cli(cfg_path, out, work, hard_deadline):
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, "-m", "stratshear.cli", "--config", str(cfg_path),
            "--out", str(out), "--jobs", "1"]
    return run_child(argv, work / "cli.log", hard_deadline)


def outputs_digest(out):
    """Digest of the deterministic outputs: the CSVs and summary.json."""
    h = hashlib.sha256()
    for path in sorted([*Path(out).glob("series_k*.csv"), Path(out) / "summary.json"]):
        data = path.read_bytes() if path.is_file() else b"(missing)"
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def gate_run(child, out, name, params, seed):
    if child.code != 0:
        return [f"exit code {child.code}: {child.output.strip()[-500:]}"]
    failures = gate.check_outputs(out, params)
    if seed == workloads.DEFAULT_SEED:
        failures += gate.check_reference(name, out, params)
    return failures


def summarize(samples, unit):
    """Median and the highest nearest-rank percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10
    p_hi = None
    if rank >= 1:
        p_hi = {"percentile": round(100.0 * rank / n, 1), "value": ordered[rank - 1]}
    return {"unit": unit, "n": n, "median": statistics.median(ordered), "p_hi": p_hi,
            "samples": samples}


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def in_window(ctx, durations):
    """Start another run only if it would end at most half a run past the deadline."""
    return time.perf_counter() + 0.5 * statistics.median(durations) <= ctx["deadline"]


def measure_untraced(ctx):
    """Closed-loop CLI runs until the deadline, with the set-up probes spread
    evenly over the window so that both sample the same machine conditions."""
    setups, runs, failures, digest = [], [], [], None
    while len(runs) < MIN_RUNS or in_window(ctx, [r.wall_s for r in runs]):
        probe_due = ctx["start"] + len(setups) * ctx["seconds"] / SETUP_PROBES
        if len(setups) < SETUP_PROBES and time.perf_counter() >= probe_due:
            setups.append(probe_json(ctx["work"], ctx["hard"], "setup", str(ctx["cfg"])))
            continue
        child = run_cli(ctx["cfg"], ctx["out"], ctx["work"], ctx["hard"])
        found = gate_run(child, ctx["out"], ctx["name"], ctx["params"], ctx["seed"])
        if not found:
            digest = digest or outputs_digest(ctx["out"])
            if outputs_digest(ctx["out"]) != digest:
                found = ["outputs differ from the first run of the same config"]
        runs.append(child)
        failures.append(found)

    while len(setups) < SETUP_PROBES:
        setups.append(probe_json(ctx["work"], ctx["hard"], "setup", str(ctx["cfg"])))

    good = [r for r, f in zip(runs, failures) if not f] or runs
    stats = {
        "run_s": summarize([r.wall_s for r in good], "s"),
        "setup_s": summarize([s["setup_s"] for s in setups], "s"),
        "peak_rss_mb": summarize([r.peak_rss_mb for r in good], "MB"),
    }
    phases = {f"setup.{key}_s": summarize([s["phases"][key] for s in setups], "s")
              for key in setups[0]["phases"]}
    return stats, failures, phases, {}


def layer_profile(paths, n_grid):
    """Per-layer work counters and busy/self times from a call-path profile."""
    calls, busy, self_s, kernels = Counter(), Counter(), Counter(), Counter()
    in_rhs = 0
    for path, n, b, s in paths:
        name, _, kernel = path[-1].partition(":")
        above = {p.partition(":")[0] for p in path[:-1]}
        calls[name] += n
        self_s[name] += s
        if name not in above:
            busy[name] += b
        if name == MATVEC:
            kernels[kernel] += n
            if above.intersection(RHS):
                in_rhs += n
    mv = calls[MATVEC]
    rhs_calls = sum(calls[r] for r in RHS)
    rhs_busy = sum(busy[r] for r in RHS)
    return {
        "spectral_ops.matvec.calls": mv,
        "spectral_ops.matvec.calls.g1": kernels["g1"],
        "spectral_ops.matvec.calls.g2": kernels["g2"],
        "spectral_ops.matvec.calls.b": kernels["b"],
        "spectral_ops.matvec.busy_s": busy[MATVEC],
        "spectral_ops.matvec.mean_us": 1e6 * busy[MATVEC] / mv if mv else 0.0,
        "spectral_ops.matvec.flops_computed": 8 * n_grid * n_grid * mv,
        "spectral_ops.matvec.bytes_computed": 16 * n_grid * n_grid * mv,
        "spectral_ops.matvec.calls_in_rhs": in_rhs,
        "spectral_ops.matvecs_per_rhs": in_rhs / rhs_calls if rhs_calls else 0.0,
        "spectral_ops.solve_TL.calls": calls["spectral_ops.solve_TL"],
        "spectral_ops.solve_TL.busy_s": busy["spectral_ops.solve_TL"],
        "spectral_ops.solve_TB.calls": calls["spectral_ops.solve_TB"],
        "spectral_ops.solve_TB.busy_s": busy["spectral_ops.solve_TB"],
        "evolution.rhs.calls": rhs_calls,
        "evolution.rhs.busy_s": rhs_busy,
        "evolution.rhs.mean_us": 1e6 * rhs_busy / rhs_calls if rhs_calls else 0.0,
        "evolution.evolve.busy_s": busy["evolution.evolve"],
        "evolution.evolve.self_s": self_s["evolution.evolve"],
        "evolution.weighted_energy_Es.calls": calls["evolution.weighted_energy_Es"],
        "evolution.weighted_energy_Es.busy_s": busy["evolution.weighted_energy_Es"],
        "multipliers.eval_bl.calls": calls["multipliers.eval_bl"],
        "multipliers.eval_bl.busy_s": busy["multipliers.eval_bl"],
        "observables.series_norms.busy_s": busy["observables.series_norms"],
        "observables.fit_power_law.busy_s": busy["observables.fit_power_law"],
        "shear.build_profile.busy_s": busy["shear.build_profile"],
        "shear.sample_spectrum.calls": calls["shear.sample_spectrum"],
        "shear.sample_spectrum.busy_s": busy["shear.sample_spectrum"],
        "cli.run.self_s": self_s["cli.run"],
    }


def solver_counters(out):
    blocks = [b["solver"] for b in json.loads((Path(out) / "summary.json").read_text())["runs"]]
    return {
        "spectral_ops.solver.solves": sum(b["solves"] for b in blocks),
        "spectral_ops.solver.iterations_max": max(b["iterations_max"] for b in blocks),
        "spectral_ops.solver.contraction_ratio_max":
            max(b["contraction_ratio_max"] for b in blocks),
    }


def measure_traced(ctx):
    """Alternate untraced and traced runs of the same config until the deadline."""
    traced_out = ctx["work"] / "out_traced"
    trace_path = ctx["work"] / "trace.json"
    pairs, failures, profiles, call_paths = [], [], [], None
    while len(pairs) < MIN_PAIRS or in_window(ctx, [u.wall_s + t.wall_s for u, t in pairs]):
        plain = run_cli(ctx["cfg"], ctx["out"], ctx["work"], ctx["hard"])
        failures.append(gate_run(plain, ctx["out"], ctx["name"], ctx["params"], ctx["seed"]))
        shutil.rmtree(traced_out, ignore_errors=True)
        traced = run_child([sys.executable, str(HERE / "probe.py"), "trace", str(ctx["cfg"]),
                            str(traced_out), str(trace_path)], ctx["work"] / "trace.log",
                           ctx["hard"])
        pairs.append((plain, traced))
        if traced.code != 0:
            failures.append([f"traced run exit code {traced.code}: {traced.output[-500:]}"])
            continue
        if plain.code != 0:
            failures.append(["no untraced outputs to compare the traced run with"])
            continue
        if outputs_digest(traced_out) != outputs_digest(ctx["out"]):
            failures.append(["traced outputs differ from the untraced run"])
            continue
        paths = json.loads(trace_path.read_text())["paths"]
        call_paths = call_paths or sorted([" > ".join(p), n, b, s] for p, n, b, s in paths)
        profile = layer_profile(paths, ctx["params"]["grid.N"])
        profile.update(solver_counters(traced_out))
        profiles.append(profile)
        same = all(profile[k] == profiles[0][k] for k in COUNTERS)
        failures.append([] if same else ["work counters differ between traced runs"])

    if not profiles:
        raise BenchError("no traced run succeeded: " + "; ".join(m for f in failures for m in f))
    stats = {key: summarize([p[key] for p in profiles], PER_LAYER[key][0])
             for key in profiles[0]}
    stats["trace.overhead_s"] = summarize([t.wall_s - u.wall_s for u, t in pairs], "s")
    extra = {"trace.untraced_run_s": summarize([u.wall_s for u, _ in pairs], "s"),
             "trace.traced_run_s": summarize([t.wall_s for _, t in pairs], "s")}
    return stats, failures, extra, {"call_paths": call_paths}


def format_stat(name, stat):
    p_hi = stat["p_hi"]
    if name in COUNTERS:
        hi = "work counter, repeats exactly"
    elif p_hi:
        hi = f"p{p_hi['percentile']:g} {p_hi['value']:.6g}"
    else:
        hi = "p_hi n/a (needs >= 11 samples)"
    return f"  {name:<44} {stat['unit']:<11} n={stat['n']:<3} median {stat['median']:.6g}  {hi}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "stratshear" / "cli.py").is_file():
        print(f"bench: no stratshear sources under {SRC}", file=sys.stderr)
        return 2

    params = workloads.seeded_params(args.workload, args.seed)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "run.cfg"
    cfg.write_text(workloads.config_text(params))
    ctx = {"name": args.workload, "params": params, "seed": args.seed, "cfg": cfg,
           "work": work, "out": work / "out", "hard": start + HARD_LIMIT_S}
    try:
        env = probe_json(work, ctx["hard"], "env")
        ctx["start"], ctx["seconds"] = time.perf_counter(), args.seconds
        ctx["deadline"] = ctx["start"] + args.seconds
        stats, failures, extra, notes = (measure_traced if args.trace
                                         else measure_untraced)(ctx)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    env["git_commit"] = git_commit()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"wall {time.perf_counter() - start:.1f} s")
    for name, stat in {**stats, **extra}.items():
        print(format_stat(name, stat))
    print(f"  {'failed_share':<44} {'1':<11} {failed}/{attempted} = {failed / attempted:g}")
    for i, found in enumerate(failures):
        for message in found:
            print(f"  FAILED run {i}: {message}")
    print("  env " + json.dumps(env, sort_keys=True))

    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, (unit, _) in names.items()}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "params": params, "env": env, "failed_share": failed / attempted,
              "stats": {**stats, **extra}, **notes}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
