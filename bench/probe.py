"""Child-process probes of the benchmark.  Run them with ``src`` on PYTHONPATH.

    python3 bench/probe.py env
        Print the environment record as JSON; importing the package on the
        way also compiles its bytecode, so it doubles as the warm-up.
    python3 bench/probe.py setup CONFIG
        Time the set-up calls a CLI run makes before stepping starts and
        print them as JSON.
    python3 bench/probe.py trace CONFIG OUT_DIR TRACE_JSON
        Run the CLI with every public function of the package wrapped in a
        timer, then write the call-path profile to TRACE_JSON.  Exits with
        the CLI's exit code.
"""

from __future__ import annotations

import ctypes
import functools
import inspect
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

MATVEC = "spectral_ops.apply_profile_convolution"
# rk4_integrate is left unwrapped so that the RK4 arithmetic and the record
# callback it drives stay in the self time of evolution.evolve.
UNWRAPPED = {"evolution.rk4_integrate"}


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def environment():
    import numpy
    import scipy

    import stratshear.cli  # noqa: F401  (warm-up: compiles the package's bytecode)

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def setup(config_path):
    """Wall time of each public set-up call, in the order a CLI run makes them."""
    text = Path(config_path).read_text()
    phases = {}
    start = perf_counter()
    import stratshear  # noqa: F401
    from stratshear.cli import parse_config
    from stratshear.shear import build_profile, sample_spectrum
    from stratshear.spectral_ops import FrequencyGrid
    from stratshear.weights import WeightSet
    phases["import"] = perf_counter() - start

    start = perf_counter()
    cfg = parse_config(text)
    phases["parse_config"] = perf_counter() - start

    start = perf_counter()
    profile = build_profile(cfg.profile_kind, a=cfg.profile_a, sigma=cfg.profile_sigma,
                            y0=cfg.profile_y0, s=cfg.s)
    phases["build_profile"] = perf_counter() - start

    start = perf_counter()
    for k in cfg.k_list:
        sample_spectrum(profile, FrequencyGrid(k=k, eta_max=cfg.grid_eta_max, n=cfg.grid_n))
    phases["sample_spectrum"] = perf_counter() - start

    start = perf_counter()
    if cfg.R > 0.25:
        WeightSet.for_run(cfg.R, cfg.beta, profile.epsilon, cfg.weights_c0)
    phases["weights"] = perf_counter() - start
    return {"setup_s": sum(phases.values()), "phases": phases}


class Tracer:
    """Call-path profile of wrapped functions.

    Each path (the labels of the wrapped calls on the stack, outermost first)
    accumulates [calls, busy seconds, self seconds]; self time is busy time
    minus the busy time of the wrapped calls made inside it.
    """

    def __init__(self):
        self.paths = {}
        self._stack = []

    def wrap(self, label, fn, detail=None):
        paths, stack = self.paths, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            leaf = label if detail is None else f"{label}:{detail(args)}"
            frame = [(stack[-1][0] if stack else ()) + (leaf,), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += busy
                rec = paths.get(frame[0])
                if rec is None:
                    rec = paths[frame[0]] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += busy
                rec[2] += busy - frame[1]

        return traced

    def install(self):
        """Wrap every public function and patch it in each module holding it."""
        import stratshear
        from stratshear import (cli, evolution, multipliers, observables, shear,
                                spectral_ops, weights)

        modules = (cli, evolution, multipliers, observables, shear, spectral_ops, weights)
        wrapped = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name in module.__all__:
                fn = getattr(module, name)
                label = f"{short}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and label not in UNWRAPPED):
                    detail = (lambda args: args[1]) if label == MATVEC else None
                    wrapped[fn] = self.wrap(label, fn, detail)
        for module in (stratshear, *modules):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        for_run = weights.WeightSet.for_run.__func__
        weights.WeightSet.for_run = classmethod(self.wrap("weights.WeightSet.for_run", for_run))
        return cli

    def dump(self, path):
        rows = [[list(p), calls, busy, self_s] for p, (calls, busy, self_s) in self.paths.items()]
        Path(path).write_text(json.dumps({"paths": rows}) + "\n")


def trace(config_path, out_dir, trace_path):
    tracer = Tracer()
    cli = tracer.install()
    code = cli.main(["--config", config_path, "--out", out_dir, "--jobs", "1"])
    tracer.dump(trace_path)
    return code


def main(argv):
    if argv[:1] == ["env"]:
        print(json.dumps(environment()))
        return 0
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(json.dumps(setup(argv[1])))
        return 0
    if argv[:1] == ["trace"] and len(argv) == 4:
        return trace(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
