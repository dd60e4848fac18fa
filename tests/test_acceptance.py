"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every criterion runs a fixed, seeded configuration; statistical criteria
were verified for the frozen seeds and stay reproducible bit for bit.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from hiercert import rng
from hiercert.core import LabelPartition, hinge_gap
from hiercert.discovery import derive_partition, kmeans
from hiercert.hierarchy import (
    Hierarchy,
    Intermediate,
    Leaf,
    infer_batch,
    leaf_certificate_renormalized,
    subset_radius_sweep,
)
from hiercert.models import (
    LinearSoftmax,
    PgdParams,
    SmallMlp,
    pgd_attack,
)
from hiercert.smoothing import SmoothingConfig, certify
from hiercert.toymodels import (
    GaussModelParams,
    PrfModelParams,
    _gauss_blocks,
    gauss_experiment,
    meta_feature,
    meta_feature_accuracy,
    prf_experiment,
    tradeoff_experiment,
)

from helpers import (
    exact_smoothed_linear,
    gradient_check_random,
    quantile_oracle,
    synth_prob_dataset,
)

SEED = 2026


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {number:2d}] {name}: {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_01_hinge_gap_anti_monotonicity():
    m = 8
    trials = 100_000
    u = rng.uniforms(SEED, 11, 0, trials * m).reshape(trials, m)
    probs = -np.log(u)
    probs /= probs.sum(axis=1, keepdims=True)
    picks = rng.uniforms(SEED, 12, 0, trials * (2 * m + 1)).reshape(trials, -1)
    started = time.perf_counter()
    violations = 0
    for t in range(trials):
        c = int(picks[t, 2 * m] * m)
        big = {i for i in range(m) if picks[t, i] < 0.6} | {c}
        small = {i for i in big if picks[t, m + i] < 0.5} | {c}
        if not hinge_gap(probs[t], c, big) <= hinge_gap(probs[t], c, small):
            violations += 1
    elapsed = time.perf_counter() - started
    report(1, "hinge-gap anti-monotonicity",
           violations == 0 and elapsed < 5.0,
           f"{trials} triples, {violations} violations, {elapsed:.2f}s < 5s")


def test_02_renormalization_never_hurts():
    m = 10
    trials = 100_000
    u = rng.uniforms(SEED, 21, 0, trials * m).reshape(trials, m)
    P = -np.log(u)
    P /= P.sum(axis=1, keepdims=True)
    mask = rng.uniforms(SEED, 22, 0, trials * m).reshape(trials, m) < 0.5
    g = np.argmax(P, axis=1)
    runner = np.argsort(P, axis=1)[:, -2]
    full_space = set(range(m))
    started = time.perf_counter()
    violations = strict_violations = strict_cases = 0
    for t in range(trials):
        subset = {i for i in range(m) if mask[t, i]} | {int(g[t])}
        r_full = leaf_certificate_renormalized(P[t], full_space, 0.5).radius
        r_sub = leaf_certificate_renormalized(P[t], subset, 0.5).radius
        if not r_sub >= r_full:
            violations += 1
        if int(runner[t]) not in subset:
            strict_cases += 1
            if not r_sub > r_full:
                strict_violations += 1
    elapsed = time.perf_counter() - started
    report(2, "renormalization never hurts",
           violations == 0 and strict_violations == 0
           and strict_cases > 10_000 and elapsed < 10.0,
           f"{trials} vectors, {violations} violations, "
           f"{strict_cases} strict cases all strict, {elapsed:.2f}s < 10s")


def test_03_mean_radius_grows_as_subsets_shrink():
    P = synth_prob_dataset(SEED, 2000, 10)
    started = time.perf_counter()
    stats = subset_radius_sweep(P, 0.5, sizes=list(range(2, 10)),
                                mode="sampled", sample_count=500, seed=SEED)
    elapsed = time.perf_counter() - started
    means = [stats[s].mean for s in range(2, 10)]
    monotone = all(a > b for a, b in zip(means, means[1:]))
    report(3, "subset-size sweep trend",
           monotone and elapsed < 60.0,
           "mean radius strictly decreasing in size for s=2..9: "
           + ", ".join(f"{v:.4f}" for v in means) + f"; {elapsed:.2f}s < 60s")


def test_04_smoothing_calibration():
    model = LinearSoftmax(W=np.array([[0.0, 0.0], [1.0, 0.0]]), b=np.zeros(2))
    x = np.array([1.0, 0.0])
    cfg = SmoothingConfig(sigma=1.0, n0=100, n=100_000, alpha_conf=0.001)
    p_true = exact_smoothed_linear([1.0, 0.0], 0.0, x, 1.0)
    assert p_true == pytest.approx(0.8413447460685429, abs=1e-12)
    reps = 1000
    started = time.perf_counter()
    in_interval = 0
    worst_radius_gap = 0.0
    for r in range(reps):
        cert = certify(model, x, cfg, seed=rng.mix64(r))
        if 0.830 <= cert.p_a_lower <= 0.8413:
            in_interval += 1
        worst_radius_gap = max(worst_radius_gap,
                               abs(cert.radius - 1.0 * quantile_oracle(cert.p_a_lower)))
    elapsed = time.perf_counter() - started
    report(4, "smoothing calibration",
           in_interval >= 999 and worst_radius_gap <= 1e-9 and elapsed < 300.0,
           f"{in_interval}/1000 in [0.830, 0.8413], radius gap {worst_radius_gap:.2e} "
           f"<= 1e-9, {elapsed:.1f}s < 300s")


def test_05_tradeoff_cap_reproduction():
    started = time.perf_counter()
    res = tradeoff_experiment(p=0.95, gamma=0.01, eta=0.3, d=200,
                              n_samples=100_000, seed=SEED)
    elapsed = time.perf_counter() - started
    se = math.sqrt(0.19 * 0.81 / 100_000)
    ok = (res.bound == pytest.approx(0.19, abs=1e-12)
          and abs(res.natural_acc - 0.99) < 0.005
          and res.adversarial_acc <= 0.19 + 3 * se
          and elapsed < 30.0)
    report(5, "robustness-accuracy cap at 0.19",
           ok,
           f"natural {res.natural_acc:.4f}, adversarial {res.adversarial_acc:.4f} "
           f"<= 0.19 + 3se = {0.19 + 3 * se:.4f}, {elapsed:.1f}s < 30s")


def test_06_meta_feature_reliability_threshold():
    n = 100_000
    details = []
    ok = True
    for eta in (0.1, 0.3, 0.5, 1.0):
        k = math.ceil(9.0 / eta ** 2)
        analytic = meta_feature_accuracy(eta, k)
        ok &= analytic > 0.99
        params = GaussModelParams(d=k, p=0.95, eta=eta)
        # block by block: the whole 100k-row sample would take about 1.4 GB
        hits = sum(np.count_nonzero(meta_feature(X, k) == y)
                   for X, y in _gauss_blocks(params, k, 0, n))
        mc = hits / n
        se = math.sqrt(analytic * (1 - analytic) / n)
        ok &= abs(mc - analytic) <= 3 * se
        details.append(f"eta={eta}: k={k}, analytic={analytic:.5f}, mc={mc:.5f}")
    report(6, "protected-feature reliability > 0.99", ok, "; ".join(details))


def test_07_adversarial_accuracy_grows_with_protection():
    n = 100_000
    cells = gauss_experiment([0.05, 0.1, 0.3, 0.5, 1.0],
                             [0, 1, 5, 10, 25, 50, 100, 200],
                             d=200, p=0.95, n_samples=n, seed=SEED)
    by_eta: dict = {}
    for c in cells:
        by_eta.setdefault(c.eta, []).append(c)
    ok = True
    details = []
    for eta, row in sorted(by_eta.items()):
        row.sort(key=lambda c: c.k)
        accs = [c.adversarial_acc for c in row]
        for a, b in zip(accs, accs[1:]):
            se = math.sqrt(max(a * (1 - a), b * (1 - b), 1e-12) / n)
            ok &= b >= a - 3 * se
        threshold_ks = [c for c in row if c.k >= 9.0 / eta ** 2 and c.k >= 1]
        for c in threshold_ks:
            ok &= c.adversarial_acc > 0.9
        details.append(f"eta={eta}: adv {accs[0]:.3f}->{accs[-1]:.3f}")
    report(7, "protection sweep shape", ok, "; ".join(details))


def test_08_keyed_construction():
    params = PrfModelParams(n_bits=16, key=0x1D872B41C2F0AD93, repetition=3)
    attacked = prf_experiment(params, flip_budget=1, attack_first_bit=True,
                              n_trials=10_000, seed=SEED)
    enforced = prf_experiment(params, flip_budget=1, attack_first_bit=False,
                              n_trials=10_000, seed=SEED)
    ok = (attacked.keyed_accuracy == 1.0
          and abs(attacked.keyless_accuracy - 0.5) <= 0.02
          and enforced.keyless_accuracy == 1.0)
    report(8, "keyed-bit construction",
           ok,
           f"keyed {attacked.keyed_accuracy:.3f} == 1.0 exactly, keyless "
           f"{attacked.keyless_accuracy:.4f} in 0.5 +/- 0.02, invariant restores "
           f"{enforced.keyless_accuracy:.3f}")


def test_09_min_composition_bound():
    def lin(W):
        W = np.asarray(W, dtype=np.float64)
        return LinearSoftmax(W=W, b=np.zeros(W.shape[0]))

    root = lin([[0.0, 0.0], [1.0, 0.0]])      # class 1 iff x1 > 0
    leaf_left = lin([[0.0, 0.0], [0.0, 1.0]])   # label 1 iff x2 > 0
    leaf_right = lin([[0.0, 0.0], [0.0, 1.0]])  # label 3 iff x2 > 0
    h = Hierarchy(root=Intermediate(classifier=root,
                                    children=(Leaf((0, 1), classifier=leaf_left),
                                              Leaf((2, 3), classifier=leaf_right))),
                  n_labels=4)
    x0 = np.array([-2.0, -0.8])
    y0 = 0
    assert int(infer_batch(h, x0[None, :])[0]) == y0
    # closed-form l-inf minimal perturbations: |w.x + b| / ||w||_1 per classifier
    minima = [2.0, 0.8, 0.8]
    bound = min(minima)

    side = 1000
    grid = np.linspace(-1.0, 1.0, side)
    resolution = 2.0 / (side - 1)
    dxx, dyy = np.meshgrid(grid, grid)
    candidates = np.column_stack([dxx.ravel(), dyy.ravel()])
    # PGD refinement: attack every constituent at budgets around the bound
    for eps in (bound - 2 * resolution, bound + 0.1, 1.0):
        pgd = PgdParams(epsilon=eps, step=eps / 4, iters=30)
        for model, target in ((root, 0), (leaf_left, 0), (leaf_right, 1)):
            adv = pgd_attack(model, x0[None, :], np.array([target]), pgd, seed=SEED)
            candidates = np.vstack([candidates, adv - x0])

    labels = infer_batch(h, x0[None, :] + candidates)
    success = labels != y0
    norms = np.max(np.abs(candidates), axis=1)
    min_success = float(norms[success].min())
    ok = (success.sum() > 0
          and bool(np.all(norms[success] >= bound - resolution))
          and candidates.shape[0] >= 1_000_000)
    report(9, "min-composition bound",
           ok,
           f"{candidates.shape[0]} candidates, {int(success.sum())} successful, "
           f"min successful norm {min_success:.4f} >= {bound - resolution:.4f}")


def test_10_partition_generation_total():
    failures = 0
    for t in range(10_000):
        u = rng.uniforms(SEED, 31, t * 4, 4)
        n = 1 + int(u[0] * 40)
        d = 1 + int(u[1] * 3)
        m = 2 + int(u[2] * 6)
        k = max(1, min(int(u[3] * 6) + 1, n))
        X = rng.normals(SEED, 32, t * 256, n * d).reshape(n, d)
        labels = rng.integers(SEED, 33, t * 64, n, m)
        try:
            result = kmeans(X, k, seed=t, max_iter=25)
            part = derive_partition(result.assignment, labels, k, n_labels=m)
            assert isinstance(part, LabelPartition)
        except AssertionError:
            failures += 1
        except Exception:
            failures += 1
    report(10, "partition generation totality",
           failures == 0, f"10000 random clustering configs, {failures} failures")


def test_11_gradient_gate():
    worst_linear = gradient_check_random(
        lambda s: LinearSoftmax.init(3, 4, s), n_configs=50, seed=SEED)
    worst_mlp = gradient_check_random(
        lambda s: SmallMlp.init(3, 4, 6, s), n_configs=50, seed=SEED + 1)
    worst = max(worst_linear, worst_mlp)
    report(11, "gradient gate",
           worst < 1e-4,
           f"100 random configurations, max relative error {worst:.2e} < 1e-4")
