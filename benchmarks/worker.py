"""One workload client: runs the workload's commands back to back through
`hiercert.cli.main`, the function behind the `hiercert` console script.

`run.py` starts this in a fresh interpreter, so the peak resident memory it
reports is the workload's own. It repeats the command sequence until
`--seconds` have passed, after one warm-up repeat that fills caches and
finishes lazy set-up. The reference probe (probe.py) runs before the first
command of each repeat and after every command, so that run.py can scale
each command's time to a quiet machine; probe time is not command time.
With `--trace 1` untraced and traced repeats alternate, so that the two
compare under the same machine load. Timings, probe times, per-layer metrics
and the environment go to `<work>/worker.json`; the spans of the traced
iterations go to `<work>/trace_spans.csv`.

    python3 benchmarks/worker.py --root . --work .bench_work/casestudy --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from probe import Probe


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="source checkout holding src/hiercert")
    ap.add_argument("--work", required=True, help="work directory prepared by run.py")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root, work = Path(args.root).resolve(), Path(args.work).resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy
    import scipy

    import hiercert
    import hiercert.cli

    if not Path(hiercert.__file__).resolve().is_relative_to(root / "src"):
        print(f"hiercert imported from {hiercert.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    commands = json.loads((work / "commands.json").read_text())
    inputs = work / "inputs"

    probe = Probe()
    log = open(work / "worker.log", "w")
    iterations: list[dict] = []

    def run_iteration(traced: bool, warmup: bool = False) -> None:
        out = work / "out" / f"{len(iterations):03d}"
        record = {"traced": traced, "warmup": warmup, "commands": [], "probe_s": [probe()],
                  "cpu_s": 0.0}
        for name, command, config in commands:
            argv = [command, "--config", str(inputs / config), "--out", str(out / name)]
            error = None
            cpu0, t0 = os.times(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    rc = hiercert.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # counted as a failed command, run continues
                rc, error = -1, f"{type(exc).__name__}: {exc}"
            record["commands"].append({"name": name, "rc": rc, "error": error,
                                       "s": time.perf_counter() - t0})
            cpu1 = os.times()
            record["cpu_s"] += (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
            record["probe_s"].append(probe())
        iterations.append(record)

    layers, counts, ranges = [], [], []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    run_iteration(traced=False, warmup=True)
    deadline = time.perf_counter() + args.seconds
    while True:
        run_iteration(traced=False)
        if args.trace:
            tracer.install()
            try:
                first = tracer.mark()
                run_iteration(traced=True)
                ranges.append((first, tracer.mark()))
            finally:
                tracer.uninstall()
            stats = tracer.span_stats(*ranges[-1])
            counters = tracer.take_counters()
            layers.append(tracing.layer_metrics(stats, counters))
            counts.append({"calls": {k: v[0] for k, v in stats.items()}, "counters": counters})
        if time.perf_counter() >= deadline:
            break

    if args.trace:
        tracer.write(work / "trace_spans.csv", ranges)
    log.close()

    result = {
        "env": {"hiercert": hiercert.__version__, "numpy": numpy.__version__,
                "scipy": scipy.__version__, "python": platform.python_version(),
                "nproc": os.cpu_count(), "blas_threads": blas_threads()},
        "iterations": iterations,
        "layers": layers,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (work / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
