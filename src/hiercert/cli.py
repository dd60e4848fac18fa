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
from .core import LabelPartition, as_probability_matrix
from .discovery import cluster_separation_check, derive_partition, kmeans, partition_from_confusion
from .errors import ConfigError, HiercertError, ValidationError
from .hierarchy import (
    AttackScenario,
    evaluate_adversarial,
    renormalization_report,
    subset_radius_sweep,
)
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

DEFAULT_THRESHOLDS = [0.25, 0.5, 1.0, 1.5, 2.0]
DEFAULT_SIGMAS = [0.25, 0.5, 1.0]


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

def _expect(config: dict, schema: dict, command: str) -> None:
    for key in config:
        if key not in schema:
            raise ConfigError(key, f"unknown key for '{command}'",
                              hint=f"allowed keys: {', '.join(sorted(schema))}")
    for key, (required, check, hint) in schema.items():
        if key not in config:
            if required:
                raise ConfigError(key, "missing required key", hint=hint)
            continue
        if not check(config[key]):
            raise ConfigError(key, f"invalid value {config[key]!r}", hint=hint)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_num_list(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(_is_num(x) for x in v)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(_is_int(x) for x in v)


def _sigma_list(v) -> list[float]:
    return [float(s) for s in (v if isinstance(v, list) else [v])]


def _per_sample_seeds(seed: int, block: int, count: int) -> np.ndarray:
    """uint64 seeds of inputs 0..count-1 of one block: the mix of the block's
    stream seed plus the input index, wrapping past 2^64."""
    base = np.uint64(rng.stream_seed(seed, 0x5EED_0000 + block))
    return rng.mix64(base + np.arange(count, dtype=np.uint64))


def _resolve(base: Path, rel) -> Path:
    """A config path relative to the config's directory; absolute paths stay."""
    return base / rel


def _load_prob_source(config: dict, base: Path):
    src = config["probs"]
    if not isinstance(src, dict) or len(src) != 1 or next(iter(src)) not in ("logits", "probs"):
        raise ConfigError("probs", "must be {'logits': path} or {'probs': path}",
                          hint="point at a logits or probability csv")
    kind, rel = next(iter(src.items()))
    path = _resolve(base, rel)
    if kind == "logits":
        ids, labels, values = io.read_logits(path)
        return ids, labels, softmax(values) if values.size else values
    ids, labels, values = io.read_probs(path)
    try:
        return ids, labels, as_probability_matrix(values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _partition_from_config(config: dict, base: Path, n_labels: int) -> LabelPartition:
    part = config["partition"]
    if isinstance(part, str):
        return io.read_partition(_resolve(base, part), n_labels=n_labels)
    if isinstance(part, list):
        return LabelPartition(tuple(tuple(c) for c in part), n_labels=n_labels)
    raise ConfigError("partition", "must be a list of label lists or a json path",
                      hint="e.g. [[0,1,2],[3,4]]")


def _pgd_from_config(cfg: dict) -> PgdParams:
    return PgdParams(epsilon=float(cfg.get("epsilon", 8 / 255)),
                     step=float(cfg.get("step", 2 / 255)),
                     iters=int(cfg.get("iters", 20)),
                     restarts=int(cfg.get("restarts", 1)))


# ------------------------------------------------------------------ commands

def cmd_certify(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    schema = {
        "seed": (False, _is_int, "integer master seed"),
        "sigma": (False, lambda v: _is_num(v) or _is_num_list(v), "float or list of floats"),
        "n0": (False, _is_int, "selection sample count"),
        "n": (False, _is_int, "estimation sample count"),
        "alpha_conf": (False, _is_num, "confidence failure probability in (0,1)"),
        "model": (True, lambda v: isinstance(v, dict), "model reference dict"),
        "dataset": (True, lambda v: isinstance(v, dict) and "features" in v,
                    "{'features': path}"),
        "radius_thresholds": (False, _is_num_list, "list of radii"),
    }
    _expect(config, schema, "certify")
    seed = int(config.get("seed", 0))
    model = io.model_from_dict(config["model"], base)
    ids, labels, X = io.read_features(_resolve(base, config["dataset"]["features"]))
    sigmas = _sigma_list(config.get("sigma", DEFAULT_SIGMAS))
    thresholds = [float(t) for t in config.get("radius_thresholds", DEFAULT_THRESHOLDS)]
    n0 = int(config.get("n0", 100))
    n = int(config.get("n", 100_000))
    alpha = float(config.get("alpha_conf", 0.001))

    tables = []
    summary_rows = []
    if len(ids) == 0:
        print("warning: empty dataset, emitting empty tables", file=sys.stderr)
    for si, sigma in enumerate(sigmas):
        cfg = SmoothingConfig(sigma=sigma, n0=n0, n=n, alpha_conf=alpha)
        batch = certify_batch(model, X, cfg, _per_sample_seeds(seed, si, len(ids)))
        abstained = batch.abstained
        radius_col = [None if a else r for a, r in zip(abstained.tolist(), batch.radii.tolist())]
        rows = [list(row) for row in zip(ids, labels.tolist(), batch.labels.tolist(), radius_col,
                                         abstained.tolist(), batch.p_a_lower.tolist())]
        name = f"certificates_sigma{format_sigma(sigma)}"
        tables.append(ReportTable(name=name, columns=list(io.CERTIFICATE_COLUMNS), rows=rows,
                                  metadata=dict(meta, inputs=len(ids),
                                                noise_draws=len(ids) * (n0 + n) * X.shape[1],
                                                abstained=int(abstained.sum()))))
        radii = np.where(abstained, -1.0, batch.radii)
        correct = batch.labels == labels
        for t in thresholds:
            ca = float(np.mean(correct & (radii >= t))) if rows else 0.0
            summary_rows.append([sigma, t, ca])
    tables.append(ReportTable(name="certified_accuracy", metadata=dict(meta),
                              columns=["sigma", "radius_threshold", "certified_accuracy"],
                              rows=summary_rows))
    return tables


def format_sigma(sigma: float) -> str:
    s = f"{sigma:g}"
    return s.replace(".", "p")


def cmd_hierarchy(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    schema = {
        "seed": (False, _is_int, "integer master seed"),
        "sigma": (False, _is_num, "noise level for certificates"),
        "partition": (True, lambda v: isinstance(v, (list, str)), "label classes"),
        "probs": (True, lambda v: isinstance(v, dict), "{'logits': path} or {'probs': path}"),
        "radius_thresholds": (False, _is_num_list, "list of radii"),
    }
    _expect(config, schema, "hierarchy")
    sigma = float(config.get("sigma", 0.5))
    thresholds = [float(t) for t in config.get("radius_thresholds", DEFAULT_THRESHOLDS)]
    ids, labels, probs = _load_prob_source(config, base)
    partition = _partition_from_config(config, base, probs.shape[1])
    reports = renormalization_report(probs, labels, partition, sigma, thresholds)
    columns = ["class_index", "labels", "n_samples", "routing_acc",
               "baseline_cr_mean", "baseline_cr_std",
               "hierarchy_cr_mean", "hierarchy_cr_std"]
    columns += [f"baseline_ca_r{format_sigma(t)}" for t in thresholds]
    columns += [f"hierarchy_ca_r{format_sigma(t)}" for t in thresholds]
    rows = []
    for r in reports:
        rows.append([r.class_index, "|".join(str(i) for i in r.labels), r.n_samples,
                     r.routing_acc, r.baseline_cr_mean, r.baseline_cr_std,
                     r.hierarchy_cr_mean, r.hierarchy_cr_std,
                     *r.baseline_ca, *r.hierarchy_ca])
    return [ReportTable(name="hierarchy_certificates", metadata=dict(meta),
                        columns=columns, rows=rows)]


def cmd_attack(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    schema = {
        "seed": (False, _is_int, "integer master seed"),
        "hierarchy": (True, lambda v: isinstance(v, str), "hierarchy json path"),
        "dataset": (True, lambda v: isinstance(v, dict) and "features" in v,
                    "{'features': path}"),
        "attack": (True, lambda v: isinstance(v, dict), "attack scenario dict"),
    }
    _expect(config, schema, "attack")
    h = io.load_hierarchy(_resolve(base, config["hierarchy"]))
    ids, labels, X = io.read_features(_resolve(base, config["dataset"]["features"]))
    attack_cfg = config["attack"]
    allowed = {"mode", "budget_target", "epsilon", "step", "iters", "restarts"}
    for key in attack_cfg:
        if key not in allowed:
            raise ConfigError(f"attack.{key}", "unknown attack key",
                              hint=f"allowed: {', '.join(sorted(allowed))}")
    scenario = AttackScenario(mode=attack_cfg.get("mode", "worst_case"),
                              attack=_pgd_from_config(attack_cfg),
                              budget_target=attack_cfg.get("budget_target"))
    report = evaluate_adversarial(h, X, labels, scenario, seed=int(config.get("seed", 0)))
    rows = [["all", report.natural_acc,
             "" if report.adv_acc is None else report.adv_acc,
             "" if report.budget_acc is None else report.budget_acc]]
    if report.per_node:
        for nid in sorted(report.per_node):
            rows.append([nid, report.natural_acc, "", report.per_node[nid]])
    return [ReportTable(name="adversarial_accuracy", metadata=dict(meta),
                        columns=["node", "natural_acc", "adv_acc", "budget_acc"],
                        rows=rows)]


def cmd_discover(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    schema = {
        "seed": (False, _is_int, "integer master seed"),
        "k": (True, _is_int, "number of equivalence classes"),
        "embeddings": (False, lambda v: isinstance(v, str), "embeddings csv path"),
        "confusion": (False, lambda v: isinstance(v, str), "confusion csv path"),
        "max_iter": (False, _is_int, "k-means iteration cap"),
        "tol": (False, _is_num, "k-means movement tolerance"),
        "n_labels": (False, _is_int, "label-space size override"),
        "out_partition": (False, lambda v: isinstance(v, str), "partition output filename"),
    }
    _expect(config, schema, "discover")
    if ("embeddings" in config) == ("confusion" in config):
        raise ConfigError("embeddings", "give exactly one of 'embeddings' or 'confusion'",
                          hint="embedding clustering and confusion clustering are alternatives")
    seed = int(config.get("seed", 0))
    k = int(config["k"])

    if "embeddings" in config:
        ids, labels, vectors = io.read_features(_resolve(base, config["embeddings"]))
        result = kmeans(vectors, k, seed=seed,
                        max_iter=int(config.get("max_iter", 100)),
                        tol=float(config.get("tol", 1e-8)))
        sep = cluster_separation_check(result.assignment, vectors) if k >= 2 else None
        partition = derive_partition(result.assignment, labels, k,
                                     n_labels=config.get("n_labels"))
        row = [k, result.inertia, result.n_iter, result.reseeds,
               "" if sep is None else sep.silhouette,
               "" if sep is None else sep.passed]
    else:
        counts = io.read_confusion(_resolve(base, config["confusion"]))
        partition = partition_from_confusion(counts, k)
        row = [k, "", "", "", "", ""]
    row.append(json.dumps([list(c) for c in partition.classes]))
    return [ReportTable(name="discovered_partition",
                        metadata=dict(meta, partition_file=config.get("out_partition",
                                                                      "partition.json")),
                        columns=["k", "inertia", "n_iter", "reseeds",
                                 "silhouette", "separation_pass", "classes"],
                        rows=[row])]


def cmd_sweep(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    schema = {
        "seed": (False, _is_int, "integer master seed"),
        "sigma": (False, _is_num, "noise level"),
        "probs": (True, lambda v: isinstance(v, dict), "{'logits': path} or {'probs': path}"),
        "sizes": (True, _is_int_list, "subset sizes to sweep"),
        "mode": (False, lambda v: v in ("all", "sampled"), "'all' or 'sampled'"),
        "samples_per_size": (False, _is_int, "subset sample count per size"),
    }
    _expect(config, schema, "sweep")
    seed = int(config.get("seed", 0))
    sigma = float(config.get("sigma", 0.5))
    ids, labels, probs = _load_prob_source(config, base)
    stats = subset_radius_sweep(probs, sigma, [int(s) for s in config["sizes"]],
                                mode=config.get("mode", "all"),
                                sample_count=int(config.get("samples_per_size", 500)),
                                seed=seed)
    rows = [[s.size, s.n_finite, s.n_infinite, s.mean, s.std, s.q25, s.median, s.q75]
            for s in (stats[k] for k in sorted(stats))]
    return [ReportTable(name="subset_radius_sweep", metadata=dict(meta),
                        columns=["size", "n_finite", "n_infinite", "mean", "std",
                                 "q25", "median", "q75"],
                        rows=rows)]


def cmd_toy_gauss(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    schema = {
        "seed": (False, _is_int, "integer master seed"),
        "d": (False, _is_int, "informative feature count"),
        "p": (False, _is_num, "robust-feature reliability in (1/2,1)"),
        "eta_list": (False, _is_num_list, "mean shifts"),
        "k_list": (False, _is_int_list, "protected-feature counts"),
        "n_samples": (False, _is_int, "Monte-Carlo sample count"),
        "tradeoff": (False, lambda v: isinstance(v, dict), "{'gamma': g, 'eta': e}"),
    }
    _expect(config, schema, "toy-gauss")
    seed = int(config.get("seed", 0))
    d = int(config.get("d", 200))
    p = float(config.get("p", 0.95))
    eta_list = [float(e) for e in config.get("eta_list", [0.05, 0.1, 0.3, 0.5, 1.0])]
    k_list = [int(k) for k in config.get("k_list", [0, 1, 5, 10, 25, 50, 100, 200])]
    n_samples = int(config.get("n_samples", 100_000))
    cells = gauss_experiment(eta_list, k_list, d, p, n_samples, seed)
    rows = []
    for c in cells:
        bound = adversarial_accuracy_bound(p, 1.0 - c.natural_acc) if c.k == 0 else ""
        rows.append([c.eta, c.k, c.natural_acc, c.adversarial_acc, bound])
    tables = [ReportTable(name="gauss_grid", metadata=dict(meta),
                          columns=["eta", "k", "natural_acc", "adversarial_acc",
                                   "bound_if_unprotected"],
                          rows=rows)]
    if "tradeoff" in config:
        t = config["tradeoff"]
        gamma = float(t.get("gamma", 0.01))
        eta = float(t.get("eta", 0.3))
        res = tradeoff_experiment(p, gamma, eta, d, n_samples, seed)
        tables.append(ReportTable(name="tradeoff", metadata=dict(meta),
                                  columns=["p", "gamma", "eta", "natural_acc",
                                           "adversarial_acc", "bound"],
                                  rows=[[p, gamma, eta, res.natural_acc,
                                         res.adversarial_acc, res.bound]]))
    return tables


def cmd_toy_prf(config: dict, base: Path, meta: dict) -> list[ReportTable]:
    schema = {
        "seed": (False, _is_int, "integer master seed"),
        "n_bits": (False, _is_int, "message length (1..64)"),
        "key": (False, _is_int, "64-bit key"),
        "repetition": (False, _is_int, "odd per-bit repetition"),
        "flip_budget": (False, _is_int, "copies flipped per repetition group"),
        "n_trials": (False, _is_int, "trial count"),
    }
    _expect(config, schema, "toy-prf")
    seed = int(config.get("seed", 0))
    params = PrfModelParams(n_bits=int(config.get("n_bits", 16)),
                            key=int(config.get("key", 0x5149_77DE_23A6_01B7)),
                            repetition=int(config.get("repetition", 3)))
    budget = int(config.get("flip_budget", 1))
    n_trials = int(config.get("n_trials", 10_000))
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
    started = time.perf_counter()
    meta = {
        "command": command,
        "seed": int(config.get("seed", 0)),
        "config_hash": config_hash(config),
        "versions": {"hiercert": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": "%d.%d.%d" % sys.version_info[:3]},
    }
    tables = _COMMANDS[command](config, base, meta)
    wall = time.perf_counter() - started
    out.mkdir(parents=True, exist_ok=True)
    for t in tables:
        t.metadata["wall_time_s"] = wall
        path = t.write(out)
        print(f"wrote {path}")
    if command == "discover":
        classes = json.loads(tables[0].rows[0][-1])
        part_path = out / tables[0].metadata.get("partition_file", "partition.json")
        io.write_json(part_path, classes)
        print(f"wrote {part_path}")
    return tables


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = io.read_json(args.config)
        if not isinstance(config, dict):
            raise ConfigError("<root>", "config must be a JSON object", hint="{...}")
        if args.seed is not None:
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
