"""Command-line entry point.

Every command reads one JSON config (strictly validated, unknown keys
rejected), runs deterministically from the config's seed, and writes
report tables as CSV plus a sidecar .meta.json carrying the seed, the
config hash, wall time and the library versions (certificate tables add
their input, noise-draw and abstention counts). Identical configs produce
byte-identical CSVs; wall time lives only in the sidecar.

Exit codes: 0 success, 1 validation error, 2 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy

from . import __version__, io, rng
from .core import LabelPartition, as_probability_matrix, checked_labels
from .discovery import cluster_separation_check, derive_partition, kmeans, partition_from_confusion
from .errors import ConfigError, HiercertError, ValidationError
from .hierarchy import (
    AttackScenario,
    evaluate_adversarial,
    renormalization_report,
    subset_radius_sweep,
)
from .io import _naming
from .models import PgdParams, softmax
# `certify` is not called here; it stays because the benchmark's tracer test
# looks up `hiercert.cli.certify`.
from .smoothing import SmoothingConfig, certify, certify_batch  # noqa: F401
from .toymodels import (
    PrfModelParams,
    adversarial_accuracy_bound,
    gauss_experiment,
    prf_experiment,
    tradeoff_experiment,
)

@dataclass
class ReportTable:
    """Rectangular named table plus run metadata."""

    name: str
    columns: list[str]
    rows: list[list]
    metadata: dict = field(default_factory=dict)

    def write(self, outdir: Path) -> Path:
        path = outdir / f"{self.name}.csv"
        io.write_csv(path, self.columns, self.rows)
        io.write_json(outdir / f"{self.name}.meta.json", self.metadata)
        return path


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------- validation

_THRESHOLDS = ([0.25, 0.5, 1.0, 1.5, 2.0], io.list_of(io.is_nonneg_num),
               "list of nonnegative radii")
_DATASET = (io.REQUIRED, {"features": (io.REQUIRED, io.is_str, "csv path")}, "{'features': path}")
#: The table `discover` writes; `out_partition` may name neither of its files.
_DISCOVERED = "discovered_partition"
_PROBS = (io.REQUIRED, {"logits": (None, io.is_str, "csv path"),
                        "probs": (None, io.is_str, "csv path")}, "{'logits' or 'probs': path}")

#: Each command's config keys besides `seed`: (default or REQUIRED, check,
#: hint); a dict in place of the check is the schema of a nested section.
_SCHEMAS: dict[str, dict] = {
    "certify": {
        "sigma": ([0.25, 0.5, 1.0], lambda v: io.is_pos_num(v) or io.list_of(io.is_pos_num)(v),
                  "positive noise level or list of them"),
        "n0": (100, io.is_pos_int, "positive selection sample count"),
        "n": (100_000, io.is_pos_int, "positive estimation sample count"),
        "alpha_conf": (0.001, io.between(0, 1), "confidence failure probability in (0,1)"),
        "model": (io.REQUIRED, io.is_dict, "model spec: {'type', 'path'} or the parameters"),
        "dataset": _DATASET,
        "radius_thresholds": _THRESHOLDS,
    },
    "hierarchy": {
        "sigma": (0.5, io.is_pos_num, "positive noise level for certificates"),
        "partition": (io.REQUIRED, lambda v: io.is_str(v) or (isinstance(v, list) and all(
            map(io.is_int_list, v))), "list of label lists, or a partition json path"),
        "probs": _PROBS,
        "radius_thresholds": _THRESHOLDS,
    },
    "discover": {
        "k": (io.REQUIRED, io.is_pos_int, "positive number of equivalence classes"),
        "embeddings": (None, io.is_str, "embeddings csv path"),
        "confusion": (None, io.is_str, "confusion csv path"),
        "max_iter": (100, io.is_pos_int, "positive k-means iteration cap"),
        "tol": (1e-8, io.is_pos_num, "positive k-means movement tolerance"),
        "n_labels": (None, lambda v: v is None or io.is_pos_int(v),
                     "positive label-space size override"),
        "out_partition": ("partition.json", lambda v: io.is_str(v) and v == Path(v).name and v
                          not in ("", "..", f"{_DISCOVERED}.csv", f"{_DISCOVERED}.meta.json"),
                          f"file name in --out other than {_DISCOVERED}.csv and .meta.json"),
    },
    "sweep": {
        "sigma": (0.5, io.is_pos_num, "positive noise level"),
        "probs": _PROBS,
        "sizes": (io.REQUIRED, io.is_int_list, "subset sizes to sweep"),
        "mode": ("all", lambda v: v in ("all", "sampled"), "'all' or 'sampled'"),
        "samples_per_size": (500, io.is_pos_int, "positive subset sample count per size"),
    },
    "toy-gauss": {
        "d": (200, io.is_pos_int, "positive informative feature count"),
        "p": (0.95, io.between(0.5, 1), "robust-feature reliability in (1/2,1)"),
        "eta_list": ([0.05, 0.1, 0.3, 0.5, 1.0], io.list_of(io.is_nonneg_num),
                     "nonnegative mean shifts"),
        "k_list": ([0, 1, 5, 10, 25, 50, 100, 200], io.list_of(io.is_nonneg_int),
                   "nonnegative protected-feature counts, each at most d"),
        "n_samples": (100_000, io.is_pos_int, "positive Monte-Carlo sample count"),
        "tradeoff": (None, {
            "gamma": (0.01, io.between(0, 1), "robust-feature error rate in (0,1)"),
            "eta": (0.3, io.is_nonneg_num, "nonnegative mean shift"),
        }, "{'gamma': g, 'eta': e}"),
    },
    "toy-prf": {
        "n_bits": (16, lambda v: io.is_int(v) and 1 <= v <= 64, "message length (1..64)"),
        "key": (0x5149_77DE_23A6_01B7, io.is_int, "64-bit key"),
        "repetition": (3, lambda v: io.is_pos_int(v) and v % 2 == 1,
                       "positive odd per-bit repetition"),
        "flip_budget": (1, io.is_nonneg_int,
                        "nonnegative copies flipped per repetition group, at most repetition"),
        "n_trials": (10_000, io.is_pos_int, "positive trial count"),
    },
    "attack": {
        "hierarchy": (io.REQUIRED, io.is_str, "hierarchy json path"),
        "dataset": _DATASET,
        "attack": (io.REQUIRED, {
            "mode": ("worst_case", lambda v: v in ("worst_case", "budgeted"),
                     "'worst_case' or 'budgeted'"),
            "budget_target": (None, lambda v: v is None or io.is_str(v), "node id, or 'worst'"),
            "epsilon": (8 / 255, io.is_nonneg_num, "nonnegative l-inf perturbation radius"),
            "step": (2 / 255, io.is_pos_num, "positive PGD step size"),
            "iters": (20, io.is_pos_int, "positive PGD steps per restart"),
            "restarts": (1, io.is_pos_int, "positive PGD restart count"),
        }, "attack scenario"),
    },
}


def _per_sample_seeds(seed: int, block: int, count: int) -> np.ndarray:
    """uint64 seeds of inputs 0..count-1 of one block: the mix of the block's
    stream seed plus the input index, wrapping past 2^64."""
    base = np.uint64(rng.stream_seed(seed, 0x5EED_0000 + block))
    return rng.mix64(base + np.arange(count, dtype=np.uint64))


def _check_width(path, X: np.ndarray, models) -> None:
    """Every (name, model) of `models` takes the feature rows of X, read from path."""
    for name, model in models:
        if model.input_dim != X.shape[1]:
            raise ValidationError(f"{path}: {X.shape[1]} feature columns, but {name} takes "
                                  f"{model.input_dim} inputs")


def _load_prob_source(config: dict, base: Path):
    """(path, ids, labels, probability rows) of the `probs` section's file."""
    src = config["probs"]
    if (src["logits"] is None) == (src["probs"] is None):
        raise ConfigError("probs", "must be {'logits': path} or {'probs': path}",
                          hint="point at a logits or probability csv")
    if src["logits"] is not None:
        path = base / src["logits"]
        ids, labels, values = io.read_logits(path)
        return path, ids, labels, softmax(values) if values.size else values
    path = base / src["probs"]
    ids, labels, values = io.read_probs(path)
    with _naming(path):
        return path, ids, labels, as_probability_matrix(values)


# ------------------------------------------------------------------ commands

def cmd_certify(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    sigmas = config["sigma"] if isinstance(config["sigma"], list) else [config["sigma"]]
    sigmas = _named_apart("sigma", [float(s) for s in sigmas])
    thresholds = _named_apart("radius_thresholds",
                              [float(t) for t in config["radius_thresholds"]])
    model = io.model_from_dict(config["model"], base)
    path = base / config["dataset"]["features"]
    ids, labels, X = io.read_features(path)
    with _naming(path):
        checked_labels(labels, model.n_labels)
    _check_width(path, X, [("the model", model)])
    n0, n, alpha = config["n0"], config["n"], float(config["alpha_conf"])

    tables = []
    summary_rows = []
    if len(ids) == 0:
        print("warning: empty dataset, emitting empty tables", file=sys.stderr)
    for si, sigma in enumerate(sigmas):
        cfg = SmoothingConfig(sigma=sigma, n0=n0, n=n, alpha_conf=alpha)
        batch = certify_batch(model, X, cfg, _per_sample_seeds(config["seed"], si, len(ids)))
        abstained = batch.abstained
        radius_col = [None if a else r for a, r in zip(abstained.tolist(), batch.radii.tolist())]
        rows = [list(row) for row in zip(ids, labels.tolist(), batch.labels.tolist(), radius_col,
                                         abstained.tolist(), batch.p_a_lower.tolist())]
        name = f"certificates_sigma{format_sigma(sigma)}"
        tables.append(ReportTable(name=name, columns=list(io.CERTIFICATE_COLUMNS), rows=rows,
                                  metadata=dict(meta, inputs=len(ids),
                                                noise_draws=len(ids) * (n0 + n) * X.shape[1],
                                                abstained=int(abstained.sum()))))
        # An abstained row's radius is NaN, which fails every threshold.
        correct = batch.labels == labels
        for t in thresholds:
            ca = float(np.mean(correct & (batch.radii >= t))) if rows else 0.0
            summary_rows.append([sigma, t, ca])
    tables.append(ReportTable(name="certified_accuracy", metadata=dict(meta),
                              columns=["sigma", "radius_threshold", "certified_accuracy"],
                              rows=summary_rows))
    return tables


def format_sigma(sigma: float) -> str:
    s = f"{sigma:g}"
    return s.replace(".", "p")


def _named_apart(field: str, values: list) -> list:
    """values, each naming an output (a table, a column or a row); two equal
    ints, or floats that `format_sigma` writes alike, name one output twice."""
    named = {}
    for v in values:
        if (name := str(v) if isinstance(v, int) else format_sigma(v)) in named:
            raise ConfigError(field, f"{named[name]!r} and {v!r} both name their output "
                              f"{name!r}", hint="values that differ in 6 significant digits")
        named[name] = v
    return values


def cmd_hierarchy(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    sigma = float(config["sigma"])
    thresholds = _named_apart("radius_thresholds",
                              [float(t) for t in config["radius_thresholds"]])
    path, ids, labels, probs = _load_prob_source(config, base)
    part, m = config["partition"], probs.shape[1]
    with _naming(path):
        checked_labels(labels, m)
    if isinstance(part, str):
        partition = io.read_partition(base / part, n_labels=m)
    else:
        with _naming("field 'partition'"):
            partition = LabelPartition(tuple(map(tuple, part)), n_labels=m)
    reports = renormalization_report(probs, labels, partition, sigma, thresholds)
    columns = ["class_index", "labels", "n_samples", "routing_acc",
               "baseline_cr_mean", "baseline_cr_std",
               "hierarchy_cr_mean", "hierarchy_cr_std"]
    columns += [f"baseline_ca_r{format_sigma(t)}" for t in thresholds]
    columns += [f"hierarchy_ca_r{format_sigma(t)}" for t in thresholds]
    rows = [[r.class_index, "|".join(str(i) for i in r.labels), r.n_samples,
             r.routing_acc, r.baseline_cr_mean, r.baseline_cr_std,
             r.hierarchy_cr_mean, r.hierarchy_cr_std, *r.baseline_ca, *r.hierarchy_ca]
            for r in reports]
    return [ReportTable(name="hierarchy_certificates", metadata=dict(meta),
                        columns=columns, rows=rows)]


def cmd_attack(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    a = config["attack"]
    if a["budget_target"] is not None and a["mode"] != "budgeted":
        raise ConfigError("attack.budget_target", f"is for mode 'budgeted', not {a['mode']!r}")
    h = io.load_hierarchy(base / config["hierarchy"])
    path = base / config["dataset"]["features"]
    ids, labels, X = io.read_features(path)
    with _naming(path):
        checked_labels(labels, h.n_labels)
        if not len(ids):
            raise ValidationError("no data rows; an attack needs at least one input")
    _check_width(path, X, [(f"node {nid!r}", node.classifier) for nid, node in h.nodes()
                           if node.classifier is not None])
    pgd = PgdParams(epsilon=float(a["epsilon"]), step=float(a["step"]),
                    iters=a["iters"], restarts=a["restarts"])
    scenario = AttackScenario(mode=a["mode"], attack=pgd, budget_target=a["budget_target"])
    report = evaluate_adversarial(h, X, labels, scenario, seed=config["seed"])
    # write_csv writes None as an empty cell
    rows = [["all", report.natural_acc, report.adv_acc, report.budget_acc]]
    rows += [[nid, report.natural_acc, "", report.per_node[nid]]
             for nid in sorted(report.per_node or ())]
    return [ReportTable(name="adversarial_accuracy",
                        metadata=dict(meta, pgd_steps=report.pgd_steps),
                        columns=["node", "natural_acc", "adv_acc", "budget_acc"],
                        rows=rows)]


def cmd_discover(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    if (config["embeddings"] is None) == (config["confusion"] is None):
        raise ConfigError("embeddings", "give exactly one of 'embeddings' or 'confusion'",
                          hint="embedding clustering and confusion clustering are alternatives")
    k = config["k"]

    if config["embeddings"] is not None:
        ids, labels, vectors = io.read_features(base / config["embeddings"])
        result = kmeans(vectors, k, seed=config["seed"], max_iter=config["max_iter"],
                        tol=float(config["tol"]))
        sep = cluster_separation_check(result.assignment, vectors) if k >= 2 else None
        partition = derive_partition(result.assignment, labels, k,
                                     n_labels=config["n_labels"])
        row = [k, result.inertia, result.n_iter, result.reseeds,
               "" if sep is None else sep.silhouette,
               "" if sep is None else sep.passed]
    else:
        path = base / config["confusion"]
        counts = io.read_confusion(path)
        with _naming(path):
            partition = partition_from_confusion(counts, k)
        row = [k, "", "", "", "", ""]
    row.append(json.dumps([list(c) for c in partition.classes]))
    return [ReportTable(name=_DISCOVERED,
                        metadata=dict(meta, partition_file=config["out_partition"]),
                        columns=["k", "inertia", "n_iter", "reseeds",
                                 "silhouette", "separation_pass", "classes"],
                        rows=[row])]


def cmd_sweep(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    _, ids, labels, probs = _load_prob_source(config, base)
    sizes = _named_apart("sizes", config["sizes"])
    stats = subset_radius_sweep(probs, float(config["sigma"]), sizes,
                                mode=config["mode"], sample_count=config["samples_per_size"],
                                seed=config["seed"])
    rows = [[s.size, s.n_finite, s.n_infinite, s.mean, s.std, s.q25, s.median, s.q75]
            for s in (stats[k] for k in sorted(stats))]
    return [ReportTable(name="subset_radius_sweep", metadata=dict(meta),
                        columns=["size", "n_finite", "n_infinite", "mean", "std",
                                 "q25", "median", "q75"],
                        rows=rows)]


def cmd_toy_gauss(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    seed, d, n_samples = config["seed"], config["d"], config["n_samples"]
    p = float(config["p"])
    eta_list = _named_apart("eta_list", [float(e) for e in config["eta_list"]])
    k_list = _named_apart("k_list", config["k_list"])
    cells = gauss_experiment(eta_list, k_list, d, p, n_samples, seed)
    rows = []
    for c in cells:
        bound = adversarial_accuracy_bound(p, 1.0 - c.natural_acc) if c.k == 0 else ""
        rows.append([c.eta, c.k, c.natural_acc, c.adversarial_acc, bound])
    tables = [ReportTable(name="gauss_grid",
                          metadata=dict(meta, noise_draws=len(eta_list) * n_samples * d),
                          columns=["eta", "k", "natural_acc", "adversarial_acc",
                                   "bound_if_unprotected"],
                          rows=rows)]
    if config["tradeoff"] is not None:
        gamma, eta = (float(config["tradeoff"][key]) for key in ("gamma", "eta"))
        res = tradeoff_experiment(p, gamma, eta, d, n_samples, seed)
        tables.append(ReportTable(name="tradeoff", metadata=dict(meta, noise_draws=n_samples * d),
                                  columns=["p", "gamma", "eta", "natural_acc",
                                           "adversarial_acc", "bound"],
                                  rows=[[p, gamma, eta, res.natural_acc,
                                         res.adversarial_acc, res.bound]]))
    return tables


def cmd_toy_prf(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    seed, budget, n_trials = config["seed"], config["flip_budget"], config["n_trials"]
    params = PrfModelParams(n_bits=config["n_bits"], key=config["key"],
                            repetition=config["repetition"])
    scenarios = [
        ("clean", 0, False),
        ("first_bit_attack", budget, True),
        ("invariant_enforced", budget, False),
    ]
    rows = []
    for name, b, first in scenarios:
        res = prf_experiment(params, b, first, n_trials, seed)
        rows.append([name, b, first, res.keyed_accuracy, res.keyless_accuracy,
                     res.within_tolerance])
    return [ReportTable(name="prf_scenarios", metadata=dict(meta),
                        columns=["scenario", "flip_budget", "attack_first_bit",
                                 "keyed_accuracy", "keyless_accuracy",
                                 "within_tolerance"],
                        rows=rows)]


_COMMANDS: dict[str, Callable] = {
    "certify": cmd_certify,
    "hierarchy": cmd_hierarchy,
    "discover": cmd_discover,
    "sweep": cmd_sweep,
    "toy-gauss": cmd_toy_gauss,
    "toy-prf": cmd_toy_prf,
    "attack": cmd_attack,
}


class _Parser(argparse.ArgumentParser):
    """Usage problems are validation errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error[validation] {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hiercert",
        description="Certify and evaluate hierarchical classifiers over label equivalence classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True, help="JSON config path")
        cp.add_argument("--out", default="out", help="output directory")
        cp.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def run(command: str, config: dict, out: Path, base: Path) -> list[ReportTable]:
    """Run the command on its config, checked and with defaults filled in."""
    started = time.perf_counter()
    schema = {"seed": (0, io.is_int, "integer master seed"), **_SCHEMAS[command]}
    checked = io.check_object(config, schema, command, prefix="")
    meta = {
        "command": command,
        "seed": checked["seed"],
        "config_hash": config_hash(config),
        "versions": {"hiercert": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": "%d.%d.%d" % sys.version_info[:3]},
    }
    tables = _COMMANDS[command](checked, base, meta)
    wall = time.perf_counter() - started
    out.mkdir(parents=True, exist_ok=True)
    for t in tables:
        t.metadata["wall_time_s"] = wall
        path = t.write(out)
        print(f"wrote {path}")
    if command == "discover":
        classes = json.loads(tables[0].rows[0][-1])
        part_path = out / tables[0].metadata["partition_file"]
        io.write_json(part_path, classes)
        print(f"wrote {part_path}")
    return tables


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = io.read_json(args.config)
        if args.seed is not None and isinstance(config, dict):
            config["seed"] = int(args.seed)
        run(args.command, config, Path(args.out), Path(args.config).resolve().parent)
        return 0
    except ValidationError as exc:
        print(f"error[validation] {exc}", file=sys.stderr)
        return 1
    except HiercertError as exc:
        print(f"error[runtime] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric/unexpected failures
        print(f"error[runtime] {type(exc).__name__}: {exc}", file=sys.stderr)
        # Not one of the package's own errors: the traceback shows where it arose.
        print(traceback.format_exc(), end="", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
