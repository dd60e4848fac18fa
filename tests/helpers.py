"""Shared test oracles and synthetic data generators.

Oracles here are deliberately independent of the library's own numerics:
the quantile oracle bisects the erfc-based CDF, the binomial bound oracle
bisects an exact log-space tail sum, and separability is certified by a
linear-programming feasibility check. The CSV, silhouette and confusion
agglomeration oracles are the straightforward per-cell, per-point and
per-pair loops that the library's kernels replace, the sweep and baseline
radius oracles are the per-subset gather and the full row sort that the
runner-up table replaces, the subset sampling oracle draws one candidate
per `rng.uniforms` call, and the certification
oracles are the per-input CERTIFY loop that `smoothing.vote_counts`
(which counts a list of passes) and `smoothing.certify_batch` batch, with
noise taken as the normal quantile of
`rng.uniforms` and the bound from `scipy.stats.beta.ppf`. The attack
oracles are the two-pass PGD step (`logits`, then `input_grad_from_dlogits`,
then `np.clip`) that the fused step replaces, softmax and cross-entropy
from numpy's row max, and the adversarial evaluation with each row's path
found by its own walk and every node's clean check redone per target. The
training oracle is the two-pass epoch (`logits`, then the parameter
gradients from a second first-layer evaluation) that `models.train`
replaces, and `per_class_passes` gives a built-in model the forward,
backward and parameter-gradient passes that each class once wrote for
itself, which the one pass of `models._DenseLayers` replaces. The gradient
check compares a model's analytic gradients with central differences of
`cross_entropy_oracle`. `exact_smoothed_linear` is the closed-form smoothed
probability of a binary linear rule, and `gauss_sample_oracle` draws the
toy Gaussian sample whole, where `toymodels` draws it in blocks. The margin
radius oracle is the vector path of `smoothing.margin_radius` with a
comparison pass per range bound and the degenerate masks applied
unconditionally. `peak_traced_bytes` measures a
call's working memory; tracemalloc also sees numpy's data buffers. The
`forks` fixture, `failing_send` and `killed_after` check the two-process
paths (`hiercert.split`): every fork is counted and reaped, a child can be
made to fail, and a hang ends the test.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import pickle
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats
from scipy.optimize import linprog

from hiercert import rng
from hiercert.core import ABSTAIN
from hiercert.errors import ValidationError
from hiercert.hierarchy import (
    AdversarialReport,
    Leaf,
    SizeStats,
    infer_batch,
)
from hiercert.models import LinearSoftmax, SmallMlp
from hiercert.numerics import normal_quantile
from hiercert.smoothing import margin_radius


def margin_radius_oracle(sigma: float, p_top, p_runner) -> np.ndarray:
    """Vector two-sided radius: broadcast, four range passes, masks always."""
    pt = np.atleast_1d(np.asarray(p_top, dtype=np.float64))
    pr = np.atleast_1d(np.asarray(p_runner, dtype=np.float64))
    pt, pr = np.broadcast_arrays(pt, pr)
    if np.any(pt < 0) or np.any(pt > 1) or np.any(pr < 0) or np.any(pr > 1):
        raise ValidationError("probabilities must lie in [0, 1]")
    degenerate = (pt >= 1.0) | (pr <= 0.0)
    gap = (normal_quantile(np.where(degenerate, 0.5, pt))
           - normal_quantile(np.where(degenerate, 0.5, pr)))
    return np.where(degenerate, math.inf, 0.5 * sigma * np.maximum(gap, 0.0))


def quantile_oracle(q: float) -> float:
    """Standard-normal quantile by bisection on the erfc-based CDF."""
    if q > 0.5:
        return -quantile_oracle(1.0 - q)
    lo, hi = -9.5, 0.5
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binom_tail_ge(k: int, n: int, p: float) -> float:
    """P(Binomial(n, p) >= k), exact log-space summation."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    i = np.arange(k, n + 1, dtype=np.float64)
    log_terms = (
        math.lgamma(n + 1)
        - np.array([math.lgamma(v + 1) for v in i])
        - np.array([math.lgamma(n - v + 1) for v in i])
        + i * math.log(p)
        + (n - i) * math.log1p(-p)
    )
    peak = log_terms.max()
    return float(min(1.0, math.exp(peak) * np.exp(log_terms - peak).sum()))


def cp_lower_oracle(k: int, n: int, alpha: float) -> float:
    """Clopper-Pearson lower bound by bisection on the exact binomial tail."""
    if k == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if binom_tail_ge(k, n, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def linearly_separable(X: np.ndarray, y: np.ndarray, margin: float = 1e-6) -> bool:
    """LP feasibility: does some (w, b) satisfy s_i (w.x_i + b) >= margin?"""
    X = np.asarray(X, dtype=np.float64)
    signs = np.where(np.asarray(y) == np.asarray(y).max(), 1.0, -1.0)
    n, d = X.shape
    # variables: w (d), b (1); constraints: -s_i*(w.x_i + b) <= -margin
    A_ub = -signs[:, None] * np.hstack([X, np.ones((n, 1))])
    b_ub = -np.full(n, margin)
    res = linprog(c=np.zeros(d + 1), A_ub=A_ub, b_ub=b_ub,
                  bounds=[(-1e3, 1e3)] * (d + 1), method="highs")
    return bool(res.success)


def make_blobs(seed: int, n_per: int, centers, spread: float = 0.3):
    """Gaussian blobs, one label per center, via the package's counter rng."""
    pts, ys = [], []
    for i, c in enumerate(centers):
        z = rng.normals(seed, 600 + i, 0, n_per * 2).reshape(n_per, 2) * spread
        pts.append(z + np.asarray(c, dtype=np.float64))
        ys.append(np.full(n_per, i, dtype=np.int64))
    return np.vstack(pts), np.concatenate(ys)


def synth_prob_dataset(seed: int, n: int, m: int, boost: float = 6.0) -> np.ndarray:
    """Random probability vectors with a boosted top class (Dirichlet-style)."""
    u = rng.uniforms(seed, 800, 0, n * m).reshape(n, m)
    g = -np.log(u)
    tops = rng.integers(seed, 801, 0, n, m)
    g[np.arange(n), tops] *= boost
    return g / g.sum(axis=1, keepdims=True)


def random_subset_containing(seed: int, stream: int, idx: int, m: int,
                             anchor: int) -> tuple[int, ...]:
    """Random label subset of size >= 1 guaranteed to contain `anchor`."""
    u = rng.uniforms(seed, stream, idx * (m + 1), m + 1)
    size = 1 + int(u[m] * m) % m
    order = np.argsort(u[:m], kind="stable")
    subset = set(int(v) for v in order[:size])
    subset.add(int(anchor))
    return tuple(sorted(subset))


def read_wide_csv_oracle(path, prefix: str):
    """sample_id,label,<prefix>0.. reader: the csv module and float() per cell."""
    with Path(path).open(newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header, body = rows[0], rows[1:]
    assert header == ["sample_id", "label"] + [f"{prefix}{i}" for i in range(len(header) - 2)]
    ids = [row[0] for row in body]
    labels = np.array([int(row[1]) for row in body], dtype=np.int64)
    values = np.array([[float(v) for v in row[2:]] for row in body],
                      dtype=np.float64) if body else np.empty((0, len(header) - 2))
    return ids, labels, values


def silhouette_oracle(assignment, X) -> float:
    """Mean silhouette from the full n x n distance matrix, one point at a time.

    Same conventions as `cluster_separation_check`: singleton clusters and
    a zero denominator score 0."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    assign = np.asarray(assignment, dtype=np.int64)
    ids = np.unique(assign)
    sq = (X * X).sum(1)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * X @ X.T, 0.0))
    n = X.shape[0]
    scores = np.zeros(n)
    sizes = {int(c): int((assign == c).sum()) for c in ids}
    for i in range(n):
        own = int(assign[i])
        if sizes[own] == 1:
            continue
        a = dist[i, assign == own].sum() / (sizes[own] - 1)
        b = min(dist[i, assign == c].mean() for c in ids if c != own)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def confusion_levels_oracle(counts) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Greedy agglomeration of symmetrized confusion mass, rescanning every
    pair of groups with an np.ix_ sum on each merge.

    Returns the groups at every group count k from m down to 1: the merges
    that reach k groups are the first m - k merges of the full run."""
    S = np.asarray(counts, dtype=np.float64)
    S = S + S.T
    np.fill_diagonal(S, 0.0)
    groups: list[list[int]] = [[i] for i in range(S.shape[0])]
    levels = {len(groups): tuple(tuple(g) for g in groups)}
    while len(groups) > 1:
        best = None
        best_mass = -1.0
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                mass = float(S[np.ix_(groups[a], groups[b])].sum())
                if mass > best_mass:
                    best_mass = mass
                    best = (a, b)
        a, b = best
        groups[a] = sorted(groups[a] + groups[b])
        del groups[b]
        groups.sort(key=lambda g: g[0])
        levels[len(groups)] = tuple(tuple(g) for g in groups)
    return levels


def sample_subsets_oracle(m: int, size: int, count: int, seed: int) -> list:
    """Sweep subsets drawn one candidate at a time: candidate t is the `size`
    smallest of the m uniforms at counters t*m .. t*m + m - 1, kept if new,
    for at most 64 * count candidates."""
    if math.comb(m, size) <= count:
        return [tuple(c) for c in itertools.combinations(range(m), size)]
    seen = set()
    out = []
    t = 0
    while len(out) < count and t < 64 * count:
        u = rng.uniforms(seed, rng.STREAM_SUBSETS, t * m, m)
        subset = tuple(sorted(np.argsort(u, kind="stable")[:size].tolist()))
        if subset not in seen:
            seen.add(subset)
            out.append(subset)
        t += 1
    return out


def sweep_oracle(P, sigma: float, sizes, mode: str = "all", sample_count: int = 500,
                 seed: int = 0) -> dict:
    """`subset_radius_sweep` statistics from one gather per subset: np.isin
    for the rows whose argmax lies in the subset, an np.ix_ gather of the
    subset's columns and np.partition for the runner-up, with singleton and
    pair subsets special-cased."""
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    n, m = P.shape
    g = np.argmax(P, axis=1)
    p_top = P[np.arange(n), g]
    out = {}
    for s in sizes:
        if mode == "all":
            subsets = [tuple(c) for c in itertools.combinations(range(m), s)]
        else:
            subsets = sample_subsets_oracle(m, s, sample_count, seed + s)
        finite = []
        n_inf = 0
        for subset in subsets:
            cols = np.fromiter(subset, dtype=np.int64)
            member = np.isin(g, cols)
            if not member.any():
                continue
            if s == 1:
                n_inf += int(member.sum())
                continue
            sub = P[np.ix_(member, cols)]
            if s == 2:
                runner = sub.min(axis=1)
            else:
                runner = np.partition(sub, -2, axis=1)[:, -2]
            radii = margin_radius(sigma, p_top[member], runner)
            inf_mask = np.isinf(radii)
            n_inf += int(inf_mask.sum())
            finite.append(radii[~inf_mask])
        values = np.concatenate(finite) if finite else np.empty(0)
        if values.size:
            q25, med, q75 = np.percentile(values, [25, 50, 75])
            out[s] = SizeStats(size=s, n_finite=values.size, n_infinite=n_inf,
                               mean=float(values.mean()), std=float(values.std()),
                               q25=float(q25), median=float(med), q75=float(q75))
        else:
            out[s] = SizeStats(size=s, n_finite=0, n_infinite=n_inf, mean=math.nan,
                               std=math.nan, q25=math.nan, median=math.nan, q75=math.nan)
    return out


def baseline_radii_oracle(P, sigma: float) -> np.ndarray:
    """Flat-classifier radius of every row: top against the second entry of a
    full row sort; a one-label row has runner-up probability 0."""
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    n, m = P.shape
    order = np.argsort(P, axis=1)
    p_top = P[np.arange(n), np.argmax(P, axis=1)]
    p_second = P[np.arange(n), order[:, -2]] if m > 1 else np.zeros(n)
    return margin_radius(sigma, p_top, p_second)


def vote_counts_oracle(classifier, x, sigma: float, n: int, seed: int,
                       stream: int) -> np.ndarray:
    """Per-input vote counts over n draws of x + sigma * noise, 20k samples at
    a time.

    Sample i, dimension j takes the normal quantile of the uniform at counter
    i*d + j of the seed's substream."""
    x = np.asarray(x, dtype=np.float64)
    d, m = x.size, classifier.n_labels
    counts = np.zeros(m, dtype=np.int64)
    for start in range(0, n, 20_000):
        stop = min(start + 20_000, n)
        noise = special.ndtri(rng.uniforms(seed, stream, start * d, (stop - start) * d))
        batch = noise.reshape(stop - start, d)
        batch *= sigma
        batch += x
        counts += np.bincount(np.argmax(classifier.logits(batch), axis=1), minlength=m)
    return counts


def certify_oracle(classifier, x, sigma: float, n0: int, n: int, alpha: float,
                   seed: int):
    """(label, radius or None, p_a_lower) of CERTIFY for one input."""
    top = int(np.argmax(vote_counts_oracle(classifier, x, sigma, n0, seed, rng.STREAM_SELECT)))
    k = int(vote_counts_oracle(classifier, x, sigma, n, seed, rng.STREAM_NOISE)[top])
    if k == 0:
        p = 0.0
    elif k == n:
        p = float(alpha ** (1.0 / n))
    else:
        p = float(stats.beta.ppf(alpha, k, n - k + 1))
    if p <= 0.5:
        return ABSTAIN, None, p
    if p >= 1.0:
        return top, math.inf, p
    return top, 0.5 * sigma * max(float(special.ndtri(p)) - float(special.ndtri(1.0 - p)), 0.0), p


def softmax_oracle(logits) -> np.ndarray:
    """Row-wise softmax with numpy's row max and fresh arrays at every step."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_oracle(logits, y) -> float:
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    return float(np.mean(lse - z[np.arange(z.shape[0]), y]))


def gradient_check(model, x, y: int) -> float:
    """Max relative error of analytic against central-difference gradients.

    Checks the input gradient (`input_grad_from_dlogits`) and every parameter
    gradient (`_param_grads` at the `_forward` cache) of the cross-entropy
    at a single sample. The logit gradient is `softmax_oracle` minus the
    one-hot, and the differenced loss is `cross_entropy_oracle`. The
    relative error divides by max(1, |analytic|, |numeric|) so that
    near-zero gradients are compared absolutely.
    """
    step = 1e-5
    x = np.asarray(x, dtype=np.float64)
    X = x[None, :]
    G = softmax_oracle(model.logits(X))
    G[0, y] -= 1.0
    analytic_input = model.input_grad_from_dlogits(X, G)[0]
    analytic_params = model._param_grads(X, model._forward(X)[1], G)

    def rel(a: float, n: float) -> float:
        return abs(a - n) / max(1.0, abs(a), abs(n))

    worst = 0.0
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        num = (cross_entropy_oracle(model.logits(xp[None, :]), [y])
               - cross_entropy_oracle(model.logits(xm[None, :]), [y])) / (2 * step)
        worst = max(worst, rel(float(analytic_input[j]), num))

    base_params = model.params()
    for pi, p in enumerate(base_params):
        for j in range(p.size):
            def loss_with(delta: float) -> float:
                tweaked = [q.copy() for q in base_params]
                tweaked[pi].ravel()[j] += delta
                return cross_entropy_oracle(model.with_params(tweaked).logits(X), [y])

            num = (loss_with(step) - loss_with(-step)) / (2 * step)
            worst = max(worst, rel(float(analytic_params[pi].ravel()[j]), num))
    return worst


def gradient_check_random(make_model, n_configs: int, seed: int) -> float:
    """Worst `gradient_check` error over random configurations.

    `make_model(config_seed)` builds a fresh model. Test inputs near a ReLU
    kink (any |pre-activation| < 1e-3) are redrawn so the finite-difference
    oracle stays valid.
    """
    worst = 0.0
    for c in range(n_configs):
        model = make_model(seed + c)
        d = model.input_dim
        for attempt in range(64):
            x = rng.normals(seed, 1000 + c, attempt * d, d)
            if not isinstance(model, SmallMlp) or np.abs(x @ model.W1.T + model.b1).min() >= 1e-3:
                break
        y = int(rng.integers(seed, 2000 + c, 0, 1, model.n_labels)[0])
        worst = max(worst, gradient_check(model, x, y))
    return worst


def exact_smoothed_linear(w, b: float, x, sigma: float) -> float:
    """Closed-form smoothed positive-class probability of a binary linear rule.

    For sign(w.x + b) under N(0, sigma^2 I) noise the smoothed probability is
    Phi((w.x + b) / (sigma * ||w||)), with Phi from the complementary error
    function.
    """
    w = np.asarray(w, dtype=np.float64)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValidationError("weight vector must be nonzero")
    if not sigma > 0:
        raise ValidationError("sigma must be positive")
    z = (float(w @ np.asarray(x, dtype=np.float64)) + b) / (sigma * norm)
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


#: The streams of the toy Gaussian sample's labels, robust-feature flips and
#: features, as `toymodels` numbers them.
GAUSS_STREAMS = (101, 102, 103)


def gauss_sample_oracle(params, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The toy Gaussian sample (X, y) of n rows, each stream read as one array.

    y is uniform in {-1,+1}; column 0 equals y with probability p; columns
    1..d are N(eta*y, 1). Row i's label and flip are draw i of their
    streams, and feature (i, j) is draw i*d + j of its own."""
    label, robust, feat = GAUSS_STREAMS
    y = np.where(rng.uniforms(seed, label, 0, n) < 0.5, -1.0, 1.0)
    flip = np.where(rng.uniforms(seed, robust, 0, n) < params.p, 1.0, -1.0)
    X = np.empty((n, params.d + 1))
    X[:, 0] = y * flip
    X[:, 1:] = rng.normals(seed, feat, 0, n * params.d).reshape(n, params.d)
    X[:, 1:] += params.eta * y[:, None]
    return X, y


def pgd_attack_oracle(model, x, y, params, seed: int = 0) -> np.ndarray:
    """PGD with two passes per step: `logits`, then `input_grad_from_dlogits`
    (which evaluates the first layer again), then `np.clip` into the ball."""
    single = np.asarray(x).ndim == 1
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    n, d = X.shape
    lo, hi = X - params.epsilon, X + params.epsilon
    best = X.copy()
    best_loss = np.full(n, -math.inf)
    for r in range(params.restarts):
        if r == 0:
            cur = X.copy()
        else:
            u = rng.uniforms(seed, rng.STREAM_PGD, (r - 1) * n * d, n * d)
            cur = np.clip(X + params.epsilon * (2.0 * u.reshape(n, d) - 1.0), lo, hi)
        for _ in range(params.iters):
            logits = model.logits(cur)
            G = softmax_oracle(logits)
            G[np.arange(n), y] -= 1.0
            grad = model.input_grad_from_dlogits(cur, G / n)
            cur = np.clip(cur + params.step * np.sign(grad), lo, hi)
        logits = model.logits(cur)
        zmax = logits.max(axis=1)
        losses = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1)) \
            - logits[np.arange(n), y]
        better = losses > best_loss
        best[better] = cur[better]
        best_loss[better] = losses[better]
    return best[0] if single else best


def _param_grads_oracle(model, X: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, ...]:
    """Parameter gradients of a linear or one-hidden-layer model, with the
    first layer evaluated afresh."""
    if isinstance(model, SmallMlp):
        Z = X @ model.W1.T + model.b1
        H = np.maximum(Z, 0.0)
        dZ = (G @ model.W2) * (Z > 0.0)
        return (dZ.T @ X, dZ.sum(axis=0), G.T @ H, G.sum(axis=0))
    return (G.T @ X, G.sum(axis=0))


class _LinearPasses(LinearSoftmax):
    """A linear model with its own passes; its cache is None."""

    def _forward(self, X):
        out = np.asarray(X, dtype=np.float64) @ self.W.T
        out += self.b
        return out, None

    def _backward(self, cache, G):
        return G @ self.W

    def logits(self, X):
        return self._forward(X)[0]

    def input_grad_from_dlogits(self, X, G):
        return self._backward(None, G)

    def _param_grads(self, X, cache, G):
        X = np.asarray(X, dtype=np.float64)
        return (G.T @ X, G.sum(axis=0))


class _MlpPasses(SmallMlp):
    """A one-hidden-layer model with its own passes; its cache is the hidden
    activation H."""

    def _pre_activation(self, X):
        Z = np.asarray(X, dtype=np.float64) @ self.W1.T
        Z += self.b1
        return Z

    def _forward(self, X):
        H = self._pre_activation(X)
        np.maximum(H, 0.0, out=H)
        out = H @ self.W2.T
        out += self.b2
        return out, H

    def _backward(self, H, G):
        dH = G @ self.W2
        dH *= H > 0.0
        return dH @ self.W1

    def logits(self, X):
        return self._forward(X)[0]

    def input_grad_from_dlogits(self, X, G):
        return self._backward(self._pre_activation(X), G)

    def _param_grads(self, X, H, G):
        X = np.asarray(X, dtype=np.float64)
        dW2 = G.T @ H
        db2 = G.sum(axis=0)
        dZ = G @ self.W2
        dZ *= H > 0.0
        return (dZ.T @ X, dZ.sum(axis=0), dW2, db2)


def per_class_passes(model):
    """A copy of a built-in model whose passes are its class's own."""
    return (_MlpPasses if isinstance(model, SmallMlp) else _LinearPasses)(*model.params())


def train_oracle(model, X, y, epochs: int, learning_rate: float,
                 noise_sigma: float | None = None, seed: int = 0):
    """Full-batch gradient descent with two first-layer evaluations per epoch:
    `logits`, then the parameter gradients from a fresh forward pass."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    for epoch in range(epochs):
        inputs = X
        if noise_sigma:
            eta = rng.normals(seed, rng.STREAM_TRAIN, epoch * n * d, n * d)
            inputs = X + noise_sigma * eta.reshape(n, d)
        G = softmax_oracle(model.logits(inputs))
        G[np.arange(n), y] -= 1.0
        grads = _param_grads_oracle(model, inputs, G / n)
        model = model.with_params([p - learning_rate * g
                                   for p, g in zip(model.params(), grads)])
    return model


def evaluate_adversarial_oracle(h, X, y, attack, budget_target=None, seed: int = 0):
    """`evaluate_adversarial` with every row's root-to-leaf path found by its
    own walk down the tree, then grouped per node: clean correctness is
    recomputed for every target node, and each attacked node gets one
    `pgd_attack_oracle` call over all its rows."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    natural = float(np.mean(infer_batch(h, X) == y))

    def labels_below(node):
        if isinstance(node, Leaf):
            return set(node.label_subset)
        return set().union(*map(labels_below, node.children))

    members = {}  # node id -> (node, rows, local targets)
    for row, label in enumerate(y.tolist()):
        node, nid = h.root, "root"
        while True:
            if isinstance(node, Leaf):
                target = node.label_subset.index(label)
            else:
                target = next(i for i, child in enumerate(node.children)
                              if label in labels_below(child))
            entry = members.setdefault(nid, (node, [], []))
            entry[1].append(row)
            entry[2].append(target)
            if isinstance(node, Leaf):
                break
            node, nid = node.children[target], f"{nid}.{target}"

    def unattackable(node):
        return isinstance(node, Leaf) and len(node.label_subset) == 1

    def node_ok(node, Xs, targets, attacked):
        if unattackable(node):
            return np.ones(Xs.shape[0], dtype=bool)
        model = node.classifier
        if attacked:
            Xs = pgd_attack_oracle(model, Xs, targets, attack, seed=seed)
        return np.argmax(model.logits(Xs), axis=1) == targets

    def correctness(attacked_id):
        ok = np.ones(X.shape[0], dtype=bool)
        for nid, (node, rows, targets) in members.items():
            rows = np.array(rows, dtype=np.int64)
            ok[rows] &= node_ok(node, X[rows], np.array(targets, dtype=np.int64),
                                attacked_id is None or nid == attacked_id)
        return ok

    # Each attacked node's rows take iters x restarts steps, counted once per node.
    every = budget_target in (None, "worst")
    steps = sum(len(rows) for nid, (node, rows, _) in members.items()
                if (every or nid == budget_target) and not unattackable(node))
    steps *= attack.iters * attack.restarts
    if budget_target is None:
        return AdversarialReport(natural_acc=natural,
                                 adv_acc=float(np.mean(correctness(None))), pgd_steps=steps)
    if budget_target == "worst":
        per_node = {nid: float(np.mean(correctness(nid))) for nid, _ in h.nodes()}
        return AdversarialReport(natural_acc=natural, budget_acc=min(per_node.values()),
                                 per_node=per_node, pgd_steps=steps)
    return AdversarialReport(natural_acc=natural, pgd_steps=steps,
                             budget_acc=float(np.mean(correctness(budget_target))))


def peak_traced_bytes(fn) -> int:
    """Peak bytes that tracemalloc traces while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Pids of the forks made during a test; afterwards no child may be left."""
    real, pids = os.fork, []

    def counting_fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    yield pids
    assert_no_child_left()


def failing_send(how: str):
    """A stand-in for `split._send` whose child exits 3 having sent its
    whole pickle ("exit-3"), is killed ("sigkill"), or exits 0 having sent
    half of its pickle ("truncated")."""
    def send(child, out):
        try:
            data = pickle.dumps(child(), protocol=pickle.HIGHEST_PROTOCOL)
            if how == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            with os.fdopen(out, "wb") as pipe:
                pipe.write(data[:len(data) // 2] if how == "truncated" else data)
            if how == "truncated":
                os._exit(0)
        finally:
            os._exit(3)

    return send


@contextlib.contextmanager
def killed_after(seconds: int, pids: list):
    """Run the block under an alarm: past `seconds`, SIGKILL each of pids
    and raise TimeoutError, so that a hung parent or child fails the test."""
    def hung(signum, frame):
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise TimeoutError("the call hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
