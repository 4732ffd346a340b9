#!/usr/bin/env python3
"""Run every workload untraced and traced, and print every metric by name.

    python3 bench/report.py                      all workloads, seed 0
    python3 bench/report.py --point bench/points/BENCH_1.json
                                                 also save the results as a point
    python3 bench/report.py --write-reference    regenerate reference/ from seed 0

Each workload gets one ``run.py --trace 0`` run (end-to-end metrics, with
``failed_share``) and one ``run.py --trace 1`` run (per-layer metrics and the
tracing overhead), each measuring for ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time

import gate
import run
import workloads


def run_workload(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {name} --trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def write_references():
    for name in workloads.WORKLOADS:
        params = workloads.seeded_params(name, workloads.DEFAULT_SEED)
        work = run.WORK_ROOT / f"reference-{name}"
        work.mkdir(parents=True, exist_ok=True)
        cfg = work / "run.cfg"
        cfg.write_text(workloads.config_text(params))
        try:
            child = run.run_cli(cfg, work / "out", work, time.perf_counter() + 900)
            failures = ([f"exit code {child.code}"] if child.code
                        else gate.check_outputs(work / "out", params))
            if failures:
                raise SystemExit(f"{name}: reference run fails the gate: {failures}")
            gate.write_reference(name, work / "out", params)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"wrote reference for {name}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--point", help="write all results to this JSON file")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_references()
        return 0

    point = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        entry = point["workloads"][name] = {"why": workloads.WORKLOADS[name]["why"]}
        for trace in (0, 1):
            detail, result = run_workload(name, args.seed, args.seconds, trace)
            point["env"] = detail["env"]
            entry["params"] = detail["params"]
            entry[f"trace{trace}"] = {"result": result, "stats": detail["stats"]}
            for metric, stat in detail["stats"].items():
                print(f"{name:<18}{run.format_stat(metric, stat)}")
            if trace == 0:
                print(f"{name:<18}  {'failed_share':<44} {'1':<11} "
                      f"{result['failed']}/{result['attempted']} = {detail['failed_share']:g}")
    print("env " + json.dumps(point["env"], sort_keys=True))
    if args.point:
        with open(args.point, "w") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
