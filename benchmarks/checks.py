"""Output checks for each CLI command of the benchmark.

The checks hold the program to the paper's invariants and to references the
benchmark computes itself from the planted truth of its fixtures, each within
a stated tolerance. None of them compares bytes with a frozen digest: a change
to the program's numerics may change output bytes on purpose and still pass.
Byte identity is required only between repeats of one command in one run,
which the determinism contract demands (see run.py).

Each `check_<command>(outdir, truth)` returns a list of problems; empty means
the outputs passed.

Tolerances, chosen so that a correct program fails some check on fewer
than about 1e-5 of seeds:
- quantities the program computes without randomness from the input files
  (radii, means, partitions): relative 1e-9;
- Monte-Carlo quantities against closed forms: 5.5 standard errors;
- the paper's accuracy cap: at most 5 standard errors above the bound;
- p_a_lower: the Clopper-Pearson bound of some integer vote count out of n
  at alpha_conf, to relative 1e-9; and between the Clopper-Pearson bounds of the smallest and the
  largest vote counts that an independent Monte-Carlo estimate of the
  smoothed probability makes possible, each side at one-sided level TAIL.
  A plain "p_a_lower <= p" would fail on about alpha_conf of all inputs, the
  rate at which a correct lower bound exceeds the truth.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import special

import fixtures

REL = 1e-9
Z = 5.5
# Independent Monte-Carlo reference for certify: draws per checked input,
# and at most this many inputs checked per sigma.
REF_DRAWS = 20_000
REF_INPUTS = 64
TAIL = 1e-9


def _read(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _sigma_tag(sigma: float) -> str:
    return f"{sigma:g}".replace(".", "p")


def _se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def smoothed_votes(truth: dict, x: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Votes of the base model per label over REF_DRAWS draws of x + N(0, sigma^2 I).

    Uses numpy's own generator, independent of hiercert's noise streams.
    """
    p = truth["params"]
    X = x[None, :] + np.random.default_rng(seed).normal(0.0, sigma, (REF_DRAWS, x.size))
    logits = X @ p["W"].T + p["b"] if truth["kind"] == "linear" else fixtures.mlp_logits(p, X)
    return np.bincount(np.argmax(logits, axis=1), minlength=logits.shape[1])


def reference_interval(votes: int) -> tuple[float, float]:
    """Exact interval on a smoothed probability that won `votes` of REF_DRAWS
    reference draws; each side misses the truth with chance at most TAIL."""
    lo = 0.0 if votes <= 0 else float(special.betaincinv(votes, REF_DRAWS - votes + 1, TAIL))
    hi = 1.0 if votes >= REF_DRAWS else \
        float(special.betaincinv(votes + 1, REF_DRAWS - votes, 1.0 - TAIL))
    return lo, hi


def _cp_lower(k, n: int, alpha: float):
    """Clopper-Pearson lower bound on k successes in n, as certify defines it;
    at k == n the Beta(n, 1) quantile is alpha ** (1 / n). Takes arrays of k."""
    k = np.asarray(k)
    k1 = np.maximum(k, 1)
    return np.where(k <= 0, 0.0, special.betaincinv(k1, n - k1 + 1, alpha))


def vote_counts(p, n: int, alpha: float) -> np.ndarray:
    """The vote count k out of n whose Clopper-Pearson bound is p, for each p;
    -1 where p is no such bound (to relative REL)."""
    p = np.asarray(p, dtype=np.float64)
    tol = REL * np.maximum(1.0, np.abs(p))
    lo, hi = np.zeros(p.shape, dtype=np.int64), np.full(p.shape, n, dtype=np.int64)
    while np.any(lo < hi):  # smallest k whose bound reaches p - tol
        mid = (lo + hi) // 2
        short = _cp_lower(mid, n, alpha) < p - tol
        lo, hi = np.where(short, mid + 1, lo), np.where(short, hi, mid)
    return np.where(np.abs(_cp_lower(lo, n, alpha) - p) <= tol, lo, -1)


def p_a_lower_range(votes: int, n: int, alpha: float) -> tuple[float, float]:
    """Smallest and largest p_a_lower a correct certifier reports, bar a TAIL
    chance each, for a label that won `votes` of the REF_DRAWS reference draws."""
    p_lo, p_hi = reference_interval(votes)
    k_lo = special.bdtrik(TAIL, n, p_lo) if p_lo > 0.0 else 0.0
    k_hi = special.bdtrik(1.0 - TAIL, n, p_hi) if p_hi < 1.0 else float(n)
    k_lo = max(0, math.floor(k_lo)) if math.isfinite(k_lo) else 0
    k_hi = min(n, math.ceil(k_hi)) if math.isfinite(k_hi) else n
    return float(_cp_lower(k_lo, n, alpha)), float(_cp_lower(k_hi, n, alpha))


def surely_selected(votes: int, n0: int) -> bool:
    """Whether the label wins more than half of certify's n0 selection draws,
    and so is the one certify estimates, bar a TAIL chance."""
    return float(special.bdtr(n0 // 2, n0, reference_interval(votes)[0])) < TAIL


def check_certify(out: Path, truth: dict) -> list[str]:
    problems = []
    X, labels = truth["X"], truth["labels"]
    n = len(labels)
    decided = {}
    for si, sigma in enumerate(truth["sigmas"]):
        name = f"certificates_sigma{_sigma_tag(sigma)}.csv"
        rows = _read(out / name)
        if len(rows) != n:
            problems.append(f"{name}: {len(rows)} rows, expected {n}")
            continue
        preds, radii = np.empty(n, dtype=np.int64), np.empty(n)
        for i, r in enumerate(rows):
            p = float(r["p_a_lower"])
            abstain = r["abstain"] == "true"
            preds[i] = int(r["pred"])
            radii[i] = -1.0 if r["radius"] == "" else float(r["radius"])
            if r["sample_id"] != f"s{i}" or int(r["label"]) != labels[i]:
                problems.append(f"{name} row {i}: wrong sample id or label")
            if not 0.0 <= p <= 1.0 or abstain != (p <= 0.5):
                problems.append(f"{name} row {i}: abstain={r['abstain']} with p_a_lower={p}")
            elif abstain and (preds[i] != -1 or r["radius"] != ""):
                problems.append(f"{name} row {i}: abstained row carries a prediction")
            elif not abstain and not _close(radii[i], sigma * float(special.ndtri(p))):
                problems.append(f"{name} row {i}: radius {radii[i]} != sigma*ndtri({p})")
        p_all = np.array([float(r["p_a_lower"]) for r in rows])
        for i in np.flatnonzero(vote_counts(p_all, truth["n"], truth["alpha_conf"]) < 0)[:5]:
            problems.append(f"{name} row {i}: p_a_lower {p_all[i]} is not the Clopper-Pearson "
                            f"bound of a vote count out of n={truth['n']} at "
                            f"alpha={truth['alpha_conf']}")
        # p_a_lower is a lower confidence bound on the smoothed probability,
        # which is estimated here independently on a spread of inputs. An
        # abstained row's label is unknown: its bound is at most that of the
        # most-voted label, and at least it when that label is surely selected.
        for i in np.linspace(0, n - 1, min(n, REF_INPUTS)).astype(int):
            votes = smoothed_votes(truth, X[i], sigma, seed=1_000_003 * si + int(i))
            top = int(preds[i]) if preds[i] >= 0 else int(np.argmax(votes))
            p = float(rows[i]["p_a_lower"])
            lo, hi = p_a_lower_range(int(votes[top]), truth["n"], truth["alpha_conf"])
            share = f"smoothed probability {votes[top] / REF_DRAWS:.4f} of label {top}"
            if p > hi + 1e-12:
                problems.append(f"{name} row {i}: p_a_lower {p} above the reference: "
                                f"{share} allows {hi:.4f}")
            elif preds[i] >= 0 and p < lo - 1e-12:
                problems.append(f"{name} row {i}: p_a_lower {p} below the reference: "
                                f"{share} allows {lo:.4f}")
            elif preds[i] < 0 and lo > 0.5 and surely_selected(int(votes[top]), truth["n0"]):
                problems.append(f"{name} row {i}: abstained although the {share} "
                                f"gives p_a_lower >= {lo:.4f}")
        decided[sigma] = (preds, radii)
    summary = _read(out / "certified_accuracy.csv")
    expected = [(s, float(t)) for s in truth["sigmas"] for t in truth["thresholds"]]
    if len(summary) != len(expected):
        problems.append(f"certified_accuracy.csv: {len(summary)} rows, expected {len(expected)}")
    for r, (sigma, t) in zip(summary, expected):
        if sigma not in decided:
            continue
        preds, radii = decided[sigma]
        ca = float(np.mean((preds == labels) & (radii >= t)))
        if (float(r["sigma"]), float(r["radius_threshold"])) != (sigma, t) or \
                not _close(float(r["certified_accuracy"]), ca):
            problems.append(f"certified_accuracy.csv: row {r} does not recompute to {ca}")
    return problems


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def check_toy_gauss(out: Path, truth: dict) -> list[str]:
    """Closed forms of the Gaussian-feature model and the paper's 0.19 cap."""
    problems = []
    d, n, eta, p = truth["d"], truth["n_samples"], truth["eta"], truth["p"]
    rows = _read(out / "gauss_grid.csv")
    if [int(r["k"]) for r in rows] != truth["k_list"]:
        problems.append(f"gauss_grid.csv: k column {[r['k'] for r in rows]}")
    for r in rows:
        k, nat, adv = int(r["k"]), float(r["natural_acc"]), float(r["adversarial_acc"])
        if not _close(float(r["eta"]), eta):
            problems.append(f"gauss_grid.csv: eta {r['eta']} != {eta}")
        if k == 0:
            # Averaging classifier: mean of d N(eta*y, 1) features; the attack
            # flips every one of them.
            ref_nat, ref_adv = _phi(eta * math.sqrt(d)), _phi(-eta * math.sqrt(d))
            bound = min(1.0, p * (1.0 - nat) / (1.0 - p))
            if not _close(float(r["bound_if_unprotected"]), bound):
                problems.append(f"gauss_grid.csv k=0: bound {r['bound_if_unprotected']} != {bound}")
            if adv > bound + 5.0 * _se(bound, n):
                problems.append(f"gauss_grid.csv k=0: adversarial {adv} above the cap {bound}")
        else:
            # Meta-feature over k protected features, which the attack leaves alone.
            ref_nat = ref_adv = _phi(eta * math.sqrt(k))
            if adv != nat:
                problems.append(f"gauss_grid.csv k={k}: adversarial {adv} != natural {nat}")
        for what, got, ref in (("natural", nat, ref_nat), ("adversarial", adv, ref_adv)):
            if abs(got - ref) > Z * _se(ref, n) + 1e-4:
                problems.append(f"gauss_grid.csv k={k}: {what} {got} vs closed form {ref:.5f}")
    (t,) = _read(out / "tradeoff.csv")
    bound, nat, adv = float(t["bound"]), float(t["natural_acc"]), float(t["adversarial_acc"])
    if not _close(bound, 0.19):
        problems.append(f"tradeoff.csv: bound {bound} != 0.19")
    if adv > bound + 5.0 * _se(bound, n):
        problems.append(f"tradeoff.csv: adversarial {adv} above the cap {bound}")
    target = 1.0 - truth["gamma"]
    if abs(nat - target) > Z * _se(target, n) + 1e-3:
        problems.append(f"tradeoff.csv: natural {nat} not tuned to {target}")
    return problems


def check_attack(out: Path, truth: dict) -> list[str]:
    problems = []
    rows = _read(out / "adversarial_accuracy.csv")
    nodes = [r["node"] for r in rows]
    if nodes != ["all"] + sorted(truth["node_ids"]):
        return [f"adversarial_accuracy.csv: node rows {nodes}"]
    budget = {r["node"]: float(r["budget_acc"]) for r in rows}
    for r in rows:
        if not _close(float(r["natural_acc"]), truth["natural_acc"]):
            problems.append(f"{r['node']}: natural {r['natural_acc']} != {truth['natural_acc']}")
        if not 0.0 <= budget[r["node"]] <= 1.0:
            problems.append(f"{r['node']}: budget accuracy {budget[r['node']]} outside [0, 1]")
    if budget["all"] > truth["natural_acc"]:
        problems.append(f"budget accuracy {budget['all']} above natural {truth['natural_acc']}")
    if budget["all"] != min(budget[nid] for nid in truth["node_ids"]):
        problems.append("'all' row is not the most damaging node")
    return problems


# Default silhouette threshold of hiercert's cluster separation check.
SEPARATION_THRESHOLD = 0.1


def _partition_problems(classes, truth: dict, where: str) -> list[str]:
    """Total and disjoint, at most k classes, and the planted partition where
    the truth holds one."""
    labels = sorted(label for c in classes for label in c)
    if labels != list(range(truth["n_labels"])) or not all(classes):
        return [f"{where}: partition is not total and disjoint over {truth['n_labels']} labels"]
    if len(classes) > truth["k"]:
        return [f"{where}: {len(classes)} classes, more than k={truth['k']}"]
    if truth["classes"] is not None and \
            sorted(map(sorted, classes)) != sorted(map(sorted, truth["classes"])):
        return [f"{where}: partition differs from the planted one"]
    return []


def check_discover(out: Path, truth: dict) -> list[str]:
    (row,) = _read(out / "discovered_partition.csv")
    problems = _partition_problems(json.loads(row["classes"]), truth,
                                   "discovered_partition.csv")
    problems += _partition_problems(json.loads((out / "partition.json").read_text()), truth,
                                    "partition.json")
    if row["silhouette"]:
        s = float(row["silhouette"])
        if not -1.0 <= s <= 1.0 or \
                (row["separation_pass"] == "true") != (s >= SEPARATION_THRESHOLD):
            problems.append(f"silhouette {s} with separation_pass={row['separation_pass']}")
    return problems


def _softmax(L: np.ndarray) -> np.ndarray:
    e = np.exp(L - L.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _radius(sigma: float, p_top: np.ndarray, p_runner: np.ndarray) -> np.ndarray:
    gap = special.ndtri(p_top) - special.ndtri(p_runner)
    return 0.5 * sigma * np.maximum(gap, 0.0)


def _finite_stats(v: np.ndarray) -> tuple[float, float]:
    v = v[np.isfinite(v)]
    return (float(v.mean()), float(v.std())) if v.size else (math.nan, math.nan)


def check_hierarchy(out: Path, truth: dict) -> list[str]:
    """Recompute per-class baseline and within-class radii from the logits."""
    problems = []
    P = _softmax(truth["logits"])
    y, sigma, classes = truth["labels"], truth["sigma"], truth["classes"]
    n, m = P.shape
    cls = np.empty(m, dtype=np.int64)
    for ci, c in enumerate(classes):
        cls[c] = ci
    g = np.argmax(P, axis=1)
    p_top = P[np.arange(n), g]
    base = _radius(sigma, p_top, np.sort(P, axis=1)[:, -2])
    in_class = cls[None, :] == cls[g][:, None]
    in_class[np.arange(n), g] = False
    hier = _radius(sigma, p_top, np.where(in_class, P, -1.0).max(axis=1))
    rows = _read(out / "hierarchy_certificates.csv")
    if len(rows) != len(classes):
        return [f"hierarchy_certificates.csv: {len(rows)} rows for {len(classes)} classes"]
    for ci, (c, r) in enumerate(zip(classes, rows)):
        sel = np.isin(y, c)
        ok = g[sel] == y[sel]
        expected = {"n_samples": float(sel.sum()),
                    "routing_acc": float(np.mean(cls[g[sel]] == ci))}
        (expected["baseline_cr_mean"], expected["baseline_cr_std"]) = _finite_stats(base[sel][ok])
        (expected["hierarchy_cr_mean"], expected["hierarchy_cr_std"]) = _finite_stats(hier[sel][ok])
        for t in truth["thresholds"]:
            tag = _sigma_tag(t)
            expected[f"baseline_ca_r{tag}"] = float(np.mean(ok & (base[sel] >= t)))
            expected[f"hierarchy_ca_r{tag}"] = float(np.mean(ok & (hier[sel] >= t)))
            if float(r[f"hierarchy_ca_r{tag}"]) < float(r[f"baseline_ca_r{tag}"]):
                problems.append(f"class {ci}: hierarchy certified accuracy below baseline at r={t}")
        for key, value in expected.items():
            if not _close(float(r[key]), value):
                problems.append(f"class {ci}: {key} {r[key]} != recomputed {value}")
        if float(r["hierarchy_cr_mean"]) < float(r["baseline_cr_mean"]):
            problems.append(f"class {ci}: hierarchy mean radius below baseline")
    return problems


def check_sweep(out: Path, truth: dict) -> list[str]:
    """Mean radius strictly falls with subset size; the full set is the baseline."""
    problems = []
    rows = _read(out / "subset_radius_sweep.csv")
    sizes = [int(r["size"]) for r in rows]
    if sizes != sorted(truth["sizes"]):
        return [f"subset_radius_sweep.csv: sizes {sizes}"]
    means = [float(r["mean"]) for r in rows]
    if any(not a > b for a, b in zip(means, means[1:])):
        problems.append(f"mean radius does not strictly decrease with size: {means}")
    P = _softmax(truth["logits"])
    n, m = P.shape
    ordered = np.sort(P, axis=1)
    full_mean, full_std = _finite_stats(_radius(truth["sigma"], ordered[:, -1], ordered[:, -2]))
    last = rows[-1]
    if sizes[-1] == m:
        if int(last["n_finite"]) + int(last["n_infinite"]) != n:
            problems.append(f"size {m}: {last['n_finite']}+{last['n_infinite']} samples, not {n}")
        if not (_close(float(last["mean"]), full_mean) and _close(float(last["std"]), full_std)):
            problems.append(f"size {m}: mean/std {last['mean']}/{last['std']} != "
                            f"recomputed {full_mean}/{full_std}")
    return problems


CHECKS = {"certify": check_certify, "toy-gauss": check_toy_gauss, "attack": check_attack,
          "discover": check_discover, "hierarchy": check_hierarchy, "sweep": check_sweep}


# Reference values recorded on the seed-0 fixtures (reference.json, written by
# record_reference.py) and the tolerance each command's values are held to.
# Certify, toy-gauss, attack and sweep results depend on the program's random
# streams, so a new noise transform may move them by Monte-Carlo error; the
# others are deterministic functions of the inputs. A discovered partition
# must match exactly.
REFERENCE_SEED = 0
REFERENCE_TOLERANCE = {"certify": ("abs", 0.05), "toy-gauss": ("abs", 0.02),
                       "attack": ("abs", 0.03), "sweep": ("rel", 0.05),
                       "discover": ("rel", 1e-6), "hierarchy": ("rel", 1e-9)}


def summarize(command: str, out: Path) -> dict[str, float]:
    """The scalar results of one command that reference.json records."""
    if command == "certify":
        return {f"ca_sigma{r['sigma']}_r{r['radius_threshold']}": float(r["certified_accuracy"])
                for r in _read(out / "certified_accuracy.csv")}
    if command == "toy-gauss":
        values = {}
        for r in _read(out / "gauss_grid.csv"):
            values[f"k{r['k']}_natural"] = float(r["natural_acc"])
            values[f"k{r['k']}_adversarial"] = float(r["adversarial_acc"])
        (t,) = _read(out / "tradeoff.csv")
        values.update(tradeoff_natural=float(t["natural_acc"]),
                      tradeoff_adversarial=float(t["adversarial_acc"]))
        return values
    if command == "attack":
        return {f"budget_{r['node']}": float(r["budget_acc"])
                for r in _read(out / "adversarial_accuracy.csv")}
    if command == "discover":
        (r,) = _read(out / "discovered_partition.csv")
        values = {key: float(r[key]) for key in ("inertia", "silhouette") if r[key]}
        values["partition"] = json.dumps(sorted(map(sorted, json.loads(r["classes"]))))
        return values
    if command == "hierarchy":
        return {f"class{r['class_index']}_{key}": float(r[key])
                for r in _read(out / "hierarchy_certificates.csv")
                for key in ("baseline_cr_mean", "hierarchy_cr_mean")}
    if command == "sweep":
        return {f"size{r['size']}_mean": float(r["mean"])
                for r in _read(out / "subset_radius_sweep.csv")}
    raise ValueError(f"unknown command {command!r}")


def check_reference(command: str, out: Path, reference: dict) -> list[str]:
    kind, tol = REFERENCE_TOLERANCE[command]
    got = summarize(command, out)
    if set(got) != set(reference):
        return [f"reference keys {sorted(reference)} != output keys {sorted(got)}"]
    problems = []
    for key, ref in reference.items():
        if isinstance(ref, str):  # a partition, which must match exactly
            if got[key] != ref:
                problems.append(f"{key} {got[key]} != seed-{REFERENCE_SEED} reference {ref}")
            continue
        limit = tol if kind == "abs" else tol * max(abs(ref), 1e-12)
        if not abs(got[key] - ref) <= limit:
            problems.append(f"{key} = {got[key]} differs from the seed-{REFERENCE_SEED} "
                            f"reference {ref} by more than {kind} {tol}")
    return problems
