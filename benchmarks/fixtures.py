"""Seeded input files for the benchmark workloads.

Every file is a pure function of (workload, seed). The generator draws from
numpy's PCG64, never from hiercert's own counter-mode streams, so a change to
the program's random numbers cannot change the benchmark's inputs. Floats are
written with 17 significant digits, the precision hiercert itself writes.

`generate` writes the files and returns a `Fixture`: the command sequence the
workload runs, and the planted truth (models, labels, partitions) that the
output checks compare against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("noise-heavy", "many-inputs", "casestudy")

# Sizes. Each workload's command sequence takes a few seconds on a 2-core
# machine, so one run of the benchmark repeats it several times.
NOISE_CERTIFY = dict(d=64, hidden=64, m=10, inputs=2, sigma=0.5, n0=100, n=100_000,
                     alpha_conf=0.001)
NOISE_TOY = dict(d=200, n_samples=25_000, eta=0.1, k_list=[0, 1, 5, 10, 25, 50, 100, 200],
                 gamma=0.01, tradeoff_eta=0.3)
MANY_CERTIFY = dict(d=4, m=10, inputs=1500, sigmas=[0.25, 0.5], n0=100, n=500,
                    alpha_conf=0.001)
MANY_ATTACK = dict(d=16, hidden=32, classes=[[0, 1], [2, 3], [4, 5], [6, 7]],
                   inputs=4000, epsilon=0.1, step=0.02, iters=40, restarts=4)
CASE_EMBED = dict(n=2000, d=32, groups=10, labels_per_group=3)
CASE_CONFUSION = dict(m=80, k=8)
CASE_LOGITS = dict(n=6000, m=100, classes=10, sigma=0.5,
                   sizes=[2, 5, 10, 25, 50, 100], samples_per_size=100)
THRESHOLDS = [0.25, 0.5, 1.0]


@dataclass
class Command:
    """One CLI invocation: `hiercert <command> --config <config>`."""

    name: str      # unique within the workload; names the output directory
    command: str   # hiercert subcommand
    config: str    # config file name inside the inputs directory
    metric: str    # per-command time metric the invocation adds to


@dataclass
class Fixture:
    inputs: Path
    commands: list[Command]
    truth: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_wide(path: Path, prefix: str, labels, values) -> None:
    """sample_id,label,<prefix>0..<prefix>{w-1} csv, the format hiercert reads."""
    width = values.shape[1]
    lines = [",".join(["sample_id", "label"] + [f"{prefix}{j}" for j in range(width)])]
    for i, (label, row) in enumerate(zip(labels, values)):
        lines.append(f"s{i},{int(label)}," + ",".join(map(_fmt, row)))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _mlp_dict(p: dict) -> dict:
    return {"type": "mlp", **{k: p[k].tolist() for k in ("W1", "b1", "W2", "b2")}}


def _random_mlp(rs: np.random.Generator, d: int, hidden: int, m: int) -> dict:
    return {"W1": rs.normal(0.0, 1.0 / np.sqrt(d), (hidden, d)),
            "b1": rs.normal(0.0, 0.1, hidden),
            "W2": rs.normal(0.0, 1.0 / np.sqrt(hidden), (m, hidden)),
            "b2": np.zeros(m)}


def mlp_logits(p: dict, X: np.ndarray) -> np.ndarray:
    return np.maximum(X @ p["W1"].T + p["b1"], 0.0) @ p["W2"].T + p["b2"]


def _hierarchy_predict(router: dict, base: dict, classes, X: np.ndarray) -> np.ndarray:
    """Global label of a two-level renormalizing hierarchy, ties to the lowest index."""
    branch = np.argmax(mlp_logits(router, X), axis=1)
    base_logits = mlp_logits(base, X)
    out = np.empty(X.shape[0], dtype=np.int64)
    for ci, subset in enumerate(classes):
        rows = branch == ci
        out[rows] = np.asarray(subset)[np.argmax(base_logits[rows][:, subset], axis=1)]
    return out


def _planted_classes(rs: np.random.Generator, m: int, k: int):
    """A random partition of m labels into k classes, and the class of each label."""
    perm = rs.permutation(m)
    classes = [sorted(perm[g::k].tolist()) for g in range(k)]
    class_of = np.empty(m, dtype=np.int64)
    for g, c in enumerate(classes):
        class_of[c] = g
    return classes, class_of


def _noise_heavy(rs, seed: int, d: Path) -> Fixture:
    c, t = NOISE_CERTIFY, NOISE_TOY
    mlp = _random_mlp(rs, c["d"], c["hidden"], c["m"])
    # Inputs at three times the unit scale: most are classified with a clear
    # margin under the noise, so certify's certified branch runs on most seeds.
    X = rs.normal(0.0, 3.0, (c["inputs"], c["d"]))
    labels = np.argmax(mlp_logits(mlp, X), axis=1)
    _write_json(d / "mlp.json", _mlp_dict(mlp))
    _write_wide(d / "certify_inputs.csv", "e", labels, X)
    _write_json(d / "certify.json", {
        "seed": seed, "sigma": c["sigma"], "n0": c["n0"], "n": c["n"],
        "alpha_conf": c["alpha_conf"], "model": {"type": "mlp", "path": "mlp.json"},
        "dataset": {"features": "certify_inputs.csv"}, "radius_thresholds": THRESHOLDS})
    _write_json(d / "toy_gauss.json", {
        "seed": seed, "d": t["d"], "eta_list": [t["eta"]], "k_list": t["k_list"],
        "n_samples": t["n_samples"],
        "tradeoff": {"gamma": t["gamma"], "eta": t["tradeoff_eta"]}})
    return Fixture(d,
                   [Command("certify", "certify", "certify.json", "certify_s"),
                    Command("toy-gauss", "toy-gauss", "toy_gauss.json", "toy_s")],
                   truth={"certify": {"kind": "mlp", "params": mlp, "X": X, "labels": labels,
                                      "sigmas": [c["sigma"]], "thresholds": THRESHOLDS,
                                      "n0": c["n0"], "n": c["n"],
                                      "alpha_conf": c["alpha_conf"]},
                          "toy-gauss": dict(t, p=0.95)},
                   sizes={"certify_inputs": c["inputs"], "certify_n": c["n"],
                          "toy_n_samples": t["n_samples"], "toy_d": t["d"]})


def _many_inputs(rs, seed: int, d: Path) -> Fixture:
    c, a = MANY_CERTIFY, MANY_ATTACK
    # Unit class directions; inputs scattered around the origin, where all
    # decision cones meet, so many inputs sit within a few sigma of a
    # boundary: their votes split (beta-quantile path) and some abstain.
    W = rs.normal(0.0, 1.0, (c["m"], c["d"]))
    W *= 4.0 / np.linalg.norm(W, axis=1, keepdims=True)
    b = np.zeros(c["m"])
    X = rs.normal(0.0, 1.0, (c["inputs"], c["d"]))
    clean = np.argmax(X @ W.T + b, axis=1)
    noisy = rs.random(c["inputs"]) < 0.1
    labels = np.where(noisy, rs.integers(0, c["m"], c["inputs"]), clean)
    _write_json(d / "linear.json", {"type": "linear", "W": W.tolist(), "b": b.tolist()})
    _write_wide(d / "certify_inputs.csv", "e", labels, X)
    _write_json(d / "certify.json", {
        "seed": seed, "sigma": c["sigmas"], "n0": c["n0"], "n": c["n"],
        "alpha_conf": c["alpha_conf"], "model": {"type": "linear", "path": "linear.json"},
        "dataset": {"features": "certify_inputs.csv"}, "radius_thresholds": THRESHOLDS})

    m = sum(len(s) for s in a["classes"])
    router = _random_mlp(rs, a["d"], a["hidden"], len(a["classes"]))
    base = _random_mlp(rs, a["d"], a["hidden"], m)
    XA = rs.normal(0.0, 1.0, (a["inputs"], a["d"]))
    clean = _hierarchy_predict(router, base, a["classes"], XA)
    noisy = rs.random(a["inputs"]) < 0.1
    yA = np.where(noisy, rs.integers(0, m, a["inputs"]), clean)
    _write_json(d / "hierarchy.json", {"n_labels": m, "root": {
        "kind": "intermediate", "classifier": _mlp_dict(router),
        "children": [{"kind": "leaf", "labels": s, "strategy": "renormalize",
                      "classifier": _mlp_dict(base)} for s in a["classes"]]}})
    _write_wide(d / "attack_inputs.csv", "e", yA, XA)
    _write_json(d / "attack.json", {
        "seed": seed, "hierarchy": "hierarchy.json",
        "dataset": {"features": "attack_inputs.csv"},
        "attack": {"mode": "budgeted", "budget_target": "worst", "epsilon": a["epsilon"],
                   "step": a["step"], "iters": a["iters"], "restarts": a["restarts"]}})
    node_ids = ["root"] + [f"root.{i}" for i in range(len(a["classes"]))]
    return Fixture(d,
                   [Command("certify", "certify", "certify.json", "certify_s"),
                    Command("attack", "attack", "attack.json", "attack_s")],
                   truth={"certify": {"kind": "linear", "params": {"W": W, "b": b}, "X": X,
                                      "labels": labels, "sigmas": c["sigmas"],
                                      "thresholds": THRESHOLDS, "n0": c["n0"], "n": c["n"],
                                      "alpha_conf": c["alpha_conf"]},
                          "attack": {"natural_acc": float(np.mean(clean == yA)),
                                     "node_ids": node_ids}},
                   sizes={"certify_inputs": c["inputs"], "certify_n": c["n"],
                          "certify_sigmas": len(c["sigmas"]), "attack_inputs": a["inputs"]})


def _casestudy(rs, seed: int, d: Path) -> Fixture:
    e, cf, lg = CASE_EMBED, CASE_CONFUSION, CASE_LOGITS
    # Embeddings: groups of labels whose point clouds overlap, so that Lloyd's
    # iteration takes 5-25 rounds, as on real embeddings. k-means then does
    # not always recover the planted groups, so the check holds this command
    # to a total, disjoint partition and to the reference seed's values.
    n_labels = e["groups"] * e["labels_per_group"]
    _, group_of = _planted_classes(rs, n_labels, e["groups"])
    centres = rs.normal(0.0, 1.0, (e["groups"], e["d"]))
    label_centres = centres[group_of] + rs.normal(0.0, 0.3, (n_labels, e["d"]))
    y = rs.integers(0, n_labels, e["n"])
    V = label_centres[y] + rs.normal(0.0, 1.0, (e["n"], e["d"]))
    _write_wide(d / "embeddings.csv", "e", y, V)
    _write_json(d / "discover_embeddings.json", {
        "seed": seed, "k": e["groups"], "embeddings": "embeddings.csv",
        "n_labels": n_labels, "out_partition": "partition.json"})

    # Confusion: strong within-block confusion, faint cross-block noise, so
    # greedy agglomeration to k groups recovers the planted blocks.
    m, k = cf["m"], cf["k"]
    conf_classes, block = _planted_classes(rs, m, k)
    same = block[:, None] == block[None, :]
    counts = np.where(same, rs.integers(40, 80, (m, m)), rs.random((m, m)) < 0.05)
    np.fill_diagonal(counts, rs.integers(500, 1000, m))
    (d / "confusion.csv").write_text(
        "".join(",".join(str(int(v)) for v in row) + "\n" for row in counts))
    _write_json(d / "discover_confusion.json", {
        "seed": seed, "k": k, "confusion": "confusion.csv",
        "out_partition": "partition.json"})

    # Logits: true-label and same-class boosts over Gaussian noise, bounded
    # so that no softmax probability rounds to exactly 0 or 1.
    n, m = lg["n"], lg["m"]
    classes, cls = _planted_classes(rs, m, lg["classes"])
    yl = rs.integers(0, m, n)
    L = rs.normal(0.0, 1.0, (n, m)) + 1.0 * (cls[None, :] == cls[yl][:, None])
    L[np.arange(n), yl] += 2.5
    L = np.clip(L, -8.0, 8.0)
    _write_wide(d / "logits.csv", "l", yl, L)
    _write_json(d / "hierarchy.json", {
        "seed": seed, "sigma": lg["sigma"], "partition": classes,
        "probs": {"logits": "logits.csv"}, "radius_thresholds": THRESHOLDS})
    _write_json(d / "sweep.json", {
        "seed": seed, "sigma": lg["sigma"], "probs": {"logits": "logits.csv"},
        "sizes": lg["sizes"], "mode": "sampled", "samples_per_size": lg["samples_per_size"]})
    return Fixture(d,
                   [Command("discover-embeddings", "discover", "discover_embeddings.json",
                            "discover_s"),
                    Command("discover-confusion", "discover", "discover_confusion.json",
                            "discover_s"),
                    Command("hierarchy", "hierarchy", "hierarchy.json", "hierarchy_s"),
                    Command("sweep", "sweep", "sweep.json", "sweep_s")],
                   truth={"discover-embeddings": {"classes": None, "n_labels": n_labels,
                                                  "k": e["groups"]},
                          "discover-confusion": {"classes": conf_classes, "n_labels": cf["m"],
                                                 "k": k},
                          "hierarchy": {"logits": L, "labels": yl, "classes": classes,
                                        "sigma": lg["sigma"], "thresholds": THRESHOLDS},
                          "sweep": {"logits": L, "sigma": lg["sigma"], "sizes": lg["sizes"]}},
                   sizes={"embeddings": [e["n"], e["d"]], "confusion_m": cf["m"],
                          "logits": [n, m], "logits_bytes": (d / "logits.csv").stat().st_size})


_GENERATORS = {"noise-heavy": _noise_heavy, "many-inputs": _many_inputs,
               "casestudy": _casestudy}


def generate(workload: str, seed: int, inputs: Path) -> Fixture:
    """Write the workload's input files and configs into `inputs`."""
    inputs = Path(inputs)
    inputs.mkdir(parents=True, exist_ok=True)
    rs = np.random.Generator(np.random.PCG64([WORKLOADS.index(workload), seed]))
    return _GENERATORS[workload](rs, seed, inputs)
