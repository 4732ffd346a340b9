"""Correctness gate applied to the outputs of every untraced CLI run.

A run passes when it exited 0 and its outputs are sound:

* each ``series_k<k>.csv`` has the expected header and row count, and every
  value is finite;
* ``energy_ratio_max`` / ``energy_ratio_min`` lie inside the envelope
  exp(+-4 pi (1+beta)^2 / (2 sqrt(R) - 1)), recomputed here;
* on perturbed workloads the weighted energy ``Es`` never increases;
* every ``solver.residual_max`` is at most ``solver.tol``;
* for the default seed, ``summary.json`` and the last CSV row of each ``k``
  agree with the stored reference to REFERENCE_RTOL.

REFERENCE_RTOL is 1e-8.  It admits arithmetic changes at the 1e-12 level and
a different resolvent algorithm stopping at the same ``solver.tol`` (1e-10),
and is far below any change in the physics.  The ``solver`` blocks are left
out of the reference comparison: iteration counts and contraction ratios
belong to the algorithm, not to the solution, and the residual bound above
already checks them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import workloads

CSV_HEADER = "t,E,E_lower,E_upper,q_norm,vx_norm,vy_norm,growth_norm,Es"
ES_COLUMN = CSV_HEADER.split(",").index("Es")
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-300
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SOLVER_KEY = "solver"
DEFAULT_SOLVER_TOL = 1e-10  # the CLI's default solver.tol


def read_csv_rows(path):
    lines = Path(path).read_text().splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_outputs(out_dir, params):
    """Return the failures of one run's outputs; empty when it passes."""
    out_dir = Path(out_dir)
    failures = []
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]

    n_rows = workloads.expected_rows(params)
    for k in params["k_list"]:
        name = f"series_k{k}.csv"
        try:
            header, rows = read_csv_rows(out_dir / name)
        except (OSError, ValueError, IndexError) as exc:
            failures.append(f"{name} unreadable: {exc!r}")
            continue
        if header != CSV_HEADER:
            failures.append(f"{name}: header {header!r}")
        if len(rows) != n_rows:
            failures.append(f"{name}: {len(rows)} rows, expected {n_rows}")
        if any(len(row) != ES_COLUMN + 1 or not all(map(math.isfinite, row)) for row in rows):
            failures.append(f"{name}: non-finite value or wrong column count")
        elif params.get("profile.kind") == "perturbed":
            es = [row[ES_COLUMN] for row in rows]
            if any(b > a for a, b in zip(es, es[1:])):
                failures.append(f"{name}: Es increases")

    log_env = workloads.log_energy_envelope(params)
    rmax, rmin = summary.get("energy_ratio_max"), summary.get("energy_ratio_min")
    if not (isinstance(rmax, float) and rmax > 0 and math.log(rmax) <= log_env):
        failures.append(f"energy_ratio_max {rmax} above exp({log_env:.6g})")
    if not (isinstance(rmin, float) and rmin > 0 and math.log(rmin) >= -log_env):
        failures.append(f"energy_ratio_min {rmin} below exp(-{log_env:.6g})")

    runs = summary.get("runs", [])
    if [block.get("k") for block in runs] != params["k_list"]:
        failures.append("summary.json runs do not match k_list")
    for block in runs:
        residual = block.get(SOLVER_KEY, {}).get("residual_max")
        if not (isinstance(residual, float) and residual <= params.get("solver.tol", DEFAULT_SOLVER_TOL)):
            failures.append(f"k = {block['k']}: solver residual {residual} above tol")
    return failures


def reference_files(name):
    base = REFERENCE_DIR / name
    return base / "summary.json", base / "last_rows.json"


def load_outputs_for_reference(out_dir, params):
    """The parts of a run's outputs the reference comparison looks at."""
    out_dir = Path(out_dir)
    summary = json.loads((out_dir / "summary.json").read_text())
    last_rows = {str(k): read_csv_rows(out_dir / f"series_k{k}.csv")[1][-1]
                 for k in params["k_list"]}
    return summary, last_rows


def write_reference(name, out_dir, params):
    summary, last_rows = load_outputs_for_reference(out_dir, params)
    summary_path, rows_path = reference_files(name)
    summary_path.parent.mkdir(parents=True, exist_ok=True)
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    rows_path.write_text(json.dumps(last_rows, indent=2, sort_keys=True) + "\n")


def _differences(ref, got, where=""):
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(set(ref) ^ set(got))} differ"]
        return [d for key in sorted(ref) if key != SOLVER_KEY
                for d in _differences(ref[key], got[key], f"{where}.{key}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)}, reference {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in _differences(r, g, f"{where}[{i}]")]
    numeric = (int, float)
    if (isinstance(ref, numeric) and isinstance(got, numeric)
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        if abs(ref - got) <= REFERENCE_RTOL * max(abs(ref), abs(got)) + REFERENCE_ATOL:
            return []
        return [f"{where}: {got!r}, reference {ref!r}"]
    return [] if ref == got else [f"{where}: {got!r}, reference {ref!r}"]


def check_reference(name, out_dir, params):
    """Failures of agreement with the stored default-seed reference."""
    summary_path, rows_path = reference_files(name)
    try:
        ref_summary = json.loads(summary_path.read_text())
        ref_rows = json.loads(rows_path.read_text())
        summary, last_rows = load_outputs_for_reference(out_dir, params)
    except (OSError, ValueError, IndexError) as exc:
        return [f"reference comparison impossible: {exc}"]
    return (_differences(ref_summary, summary, "summary")
            + _differences(ref_rows, last_rows, "last_rows"))
