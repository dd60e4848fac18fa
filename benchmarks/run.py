"""Benchmark of the hiercert CLI on three seeded workloads.

    python3 benchmarks/run.py --workload noise-heavy --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports hiercert from ./src
and reads and writes only under ./.bench_work/<workload>/.

Load model: one closed-loop client in one process. The worker runs the
workload's CLI commands back to back, one at a time, through
`hiercert.cli.main`, so config validation, file reads, compute and the
CSV/.meta.json writes are all timed. It repeats the sequence until --seconds
have passed, after one warm-up repeat, and the metrics are medians over
the timed repeats. All inputs are generated from --seed before timing
starts (fixtures.py).

Times are scaled to a quiet machine. A fixed reference probe (probe.py),
which does not call hiercert, runs before each repeat of the sequence, after
each of its commands, and before and after each timed import. A command's
time t is reported as t * probe.NOMINAL_S / p, where p is the median of its
repeat's probes; an import's p is the mean of the two probes around it. On a
shared host whose speed swings by up to 1.6 times for minutes, this keeps
runs of the same code comparable, while a change to hiercert moves the
scaled time by the same factor as the raw one. The raw times are in the run record and
in the per-layer metric wall_raw_s.

Workloads:
- noise-heavy: certify of a small MLP at n=100k draws per input, then
  toy-gauss. The noise path (rng, normal quantile, logits, vote counting)
  does almost all the work.
- many-inputs: certify of a linear model on 1500 inputs at n=500, then a
  budgeted PGD attack on a two-level MLP hierarchy. Per-call overhead, the
  Clopper-Pearson bound, row assembly and PGD gradients show here.
- casestudy: discover from embeddings and from a confusion matrix, then
  hierarchy and sweep on a 6000x100 logits CSV. CSV parsing, discovery and
  the margin kernels do the work; almost no noise is drawn.

Every output is checked (checks.py) and repeats of a command must write
byte-identical CSVs. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1. The
line before it is the run record (versions, machine, commit, input sizes).
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import fixtures  # noqa: E402
import tracing  # noqa: E402
from probe import Probe, scaled  # noqa: E402

# Fresh-interpreter imports of hiercert.cli timed per run; setup_s is the median
# of their scaled times.
SETUP_REPEATS = 5
# The whole run must end within 180 s; the worker is killed past this point.
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COMMAND_METRICS = ("certify_s", "toy_s", "attack_s", "discover_s", "hierarchy_s", "sweep_s")
PER_LAYER = dict(tracing.LAYER_UNITS, **{m: "s" for m in COMMAND_METRICS},
                 **{"wall_raw_s": "s", "probe_s": "s", "process.cpu_s": "s",
                    "trace.overhead_frac": "ratio", "failed_frac": "ratio"})


def setup_times(root: Path, env: dict) -> tuple[list[float], list[float]]:
    """Wall time from starting a fresh interpreter until hiercert.cli is
    imported, raw and scaled. The child reports the import on stdout; its
    exit is not timed, and the next probe starts after it has ended."""
    probe = Probe()
    raw, scaled_times, before = [], [], probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", "import hiercert.cli; print(flush=True)"],
                              cwd=root, env=env, stdout=subprocess.PIPE) as child:
            child.stdout.readline()
            raw.append(time.perf_counter() - t0)
            if child.wait(timeout=60) != 0:
                raise subprocess.CalledProcessError(child.returncode, child.args)
        after = probe()
        scaled_times.append(scaled(raw[-1], (before + after) / 2.0))
        before = after
    return raw, scaled_times


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def output_digest(out: Path) -> str:
    """Digest of a command's outputs, leaving out the .meta.json wall times."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if not path.name.endswith(".meta.json"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def judge(fx: fixtures.Fixture, work: Path, iterations: list[dict], reference):
    """Count attempted and failed commands and collect the problems found.

    A command fails on a non-zero exit, an exception, a failed output check,
    or outputs that differ from the first repeat of the same command.
    `reference` holds the recorded values per command on the reference seed,
    and is None on other seeds.
    """
    problems, first_digest, passed = [], {}, {}
    attempted = failed = 0
    for k, it in enumerate(iterations):
        for cmd, rec in zip(fx.commands, it["commands"]):
            attempted += 1
            where = f"repeat {k} {cmd.name}"
            if rec["rc"] != 0:
                problems.append(f"{where}: exit code {rec['rc']} {rec['error'] or ''}")
                failed += 1
                continue
            out = work / "out" / f"{k:03d}" / cmd.name
            digest = output_digest(out)
            if cmd.name not in first_digest:
                first_digest[cmd.name] = digest
                try:
                    found = checks.CHECKS[cmd.command](out, fx.truth[cmd.name])
                    if reference is not None:
                        found += checks.check_reference(cmd.command, out, reference[cmd.name])
                except Exception as exc:  # unreadable output is a failed check
                    found = [f"{type(exc).__name__}: {exc}"]
                passed[cmd.name] = not found
                problems += [f"{where}: {p}" for p in found]
            elif digest != first_digest[cmd.name]:
                problems.append(f"{where}: outputs differ from the first repeat")
                failed += 1
                continue
            failed += not passed[cmd.name]
    return attempted, failed, problems


def median(values) -> float:
    return float(statistics.median(values))


def scaled_commands(it: dict) -> list[float]:
    """The repeat's command times, scaled by the median of its probes.

    The median of the repeat's probes, rather than the two next to each
    command, keeps one disturbed probe from moving a command's time."""
    p = median(it["probe_s"])
    return [scaled(rec["s"], p) for rec in it["commands"]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=fixtures.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "hiercert" / "__init__.py").is_file():
        print(f"error: no hiercert sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    fx = fixtures.generate(args.workload, args.seed, work / "inputs")
    (work / "commands.json").write_text(
        json.dumps([[c.name, c.command, c.config] for c in fx.commands]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    setup_raw, setup = ([], []) if args.trace else setup_times(root, env)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--root", str(root), "--work", str(work),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}; see {work / 'worker.log'}",
              file=sys.stderr)
        return 1
    result = json.loads((work / "worker.json").read_text())
    iterations = result["iterations"]
    plain = [it for it in iterations if not it["traced"] and not it["warmup"]]
    traced = [it for it in iterations if it["traced"]]
    reference = None
    if args.seed == checks.REFERENCE_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    attempted, failed, problems = judge(fx, work, iterations, reference)

    per_command = {}
    for metric in COMMAND_METRICS:
        if any(c.metric == metric for c in fx.commands):
            per_command[metric] = median(
                sum(t for c, t in zip(fx.commands, scaled_commands(it)) if c.metric == metric)
                for it in plain)
    walls = [sum(scaled_commands(it)) for it in plain]
    walls_raw = [sum(rec["s"] for rec in it["commands"]) for it in plain]
    wall = median(walls)

    if args.trace:
        counts = result["counts"]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("per-layer counts differ between traced repeats")
        metrics = {name: median(layer[name] for layer in result["layers"])
                   for name in tracing.LAYER_UNITS}
        metrics.update({m: per_command.get(m, 0.0) for m in COMMAND_METRICS})
        metrics["wall_raw_s"] = median(walls_raw)
        metrics["probe_s"] = median(p for it in plain for p in it["probe_s"])
        metrics["process.cpu_s"] = median(it["cpu_s"] for it in plain)
        metrics["trace.overhead_frac"] = (
            median(sum(scaled_commands(it)) for it in traced) / wall - 1.0)
        metrics["failed_frac"] = failed / attempted
    else:
        metrics = {"wall_s": wall, "setup_s": median(setup), "peak_rss_mb": result["peak_rss_mb"]}
    units = PER_LAYER if args.trace else END_TO_END
    correct = failed == 0 and not problems

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": result["env"], "git_commit": git_commit(root),
        "input_sizes": fx.sizes,
        "repeats": {"untraced": len(plain), "traced": len(traced)},
        "wall_s_all": walls, "wall_s_raw_all": walls_raw,
        "setup_s_all": setup, "setup_s_raw_all": setup_raw,
        "probe_s_all": [p for it in plain for p in it["probe_s"]],
        "per_command_s": per_command, "problems": problems[:50],
    }
    (work / "result.json").write_text(json.dumps(dict(record, metrics=metrics), indent=1))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
