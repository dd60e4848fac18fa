"""Randomized-smoothing certification.

A base classifier is smoothed by voting over Gaussian perturbations of the
input. The certifier estimates a lower confidence bound on the top-class
probability from Monte-Carlo counts and converts it into a certified
l2 radius:

    one-sided:  R = sigma * Phi^-1(p_a_lower)
    two-sided:  R = sigma / 2 * (Phi^-1(p_top) - Phi^-1(p_runner))

Both forms are computed by one array kernel, `_radii`, on the quantiles
Phi^-1(p_top) and Phi^-1(p_runner). Certificates always take the one-sided
form, as the two-sided form with p_top = p_a_lower and p_runner =
1 - p_a_lower; the hierarchy module's margin estimates over rows (the
renormalization report and the subset sweep) pass a separate runner-up
probability. `margin_radius` is the same formula for one pair of
probabilities, with its range checks and the +inf of a degenerate pair.

Noise is generated counter-mode per (sample index, dimension), so counts
and certificates are bit-identical across runs and chunk sizes.

One kernel, `vote_counts`, does the Monte-Carlo work for a list of vote
passes over one batch of inputs, each pass a (sigma, n, seeds, stream)
with a seed per input. A unit holds about one `rng.PIECE` of draws:
r = max(1, PIECE // d) perturbed rows of width d. When n < r a unit holds
floor(r / n) inputs with all their samples, otherwise a unit is a range of
at most r samples of one input. Working memory is therefore about one
piece whatever n is, and whatever d is up to PIECE (beyond it, one row),
plus one (B, m) int64 table per pass. Each unit's noise comes from one
`rng.normals` call over the unit's seeds, then gets one `logits` call, one
argmax, and one `bincount` over (input, label) pairs. The units of all
passes go through one `split.parts` call: a call of two units or more
whose passes' summed B·n·d draws reach `split.SPLIT_MIN_DRAWS` may count
the first half of its units in a forked child and the rest in this
process, and adds the integer counts, so the counts do not depend on the
split either. `certify_batch` counts the selection and estimation passes
of every config of a command in one kernel call, so a `certify` forks at
most once however many sigmas it certifies; it then bounds each config's
top-label counts with one `clopper_pearson_lower_batch` call and takes its
radii from one `_radii` call. `certify` is the one-input wrapper of
`certify_batch`, and agrees with it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng, split
from .core import ABSTAIN, CertifiedPrediction
from .errors import ValidationError
from .numerics import normal_quantile, special


@dataclass(frozen=True)
class SmoothingConfig:
    """Noise level, sample split, and confidence level for certification."""

    sigma: float
    n0: int = 100
    n: int = 100_000
    alpha_conf: float = 0.001

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValidationError("sigma must be positive")
        if self.n0 < 1 or self.n < 1:
            raise ValidationError("sample counts must be >= 1")
        if not 0.0 < self.alpha_conf < 1.0:
            raise ValidationError("alpha_conf must lie in (0, 1)")


def clopper_pearson_lower_batch(successes, total: int, alpha_conf: float) -> np.ndarray:
    """One-sided exact binomial lower confidence bounds, one per success count.

    All counts share `total`. k == 0 gives 0 and k == total gives
    alpha ** (1 / total); every other count is the alpha quantile of
    Beta(k, n - k + 1), as scipy.stats.beta.ppf gives it (tests pin the two
    together) but without importing scipy.stats.
    """
    k = np.asarray(successes, dtype=np.int64)
    if total < 1:
        raise ValidationError(f"invalid counts: total {total} < 1")
    bad = (k < 0) | (k > total)
    if bad.any():
        raise ValidationError(f"invalid counts: {k[bad].flat[0]}/{total}")
    if not 0.0 < alpha_conf < 1.0:
        raise ValidationError("alpha_conf must lie in (0, 1)")
    inner = (k > 0) & (k < total)
    out = np.where(k == 0, 0.0, float(alpha_conf ** (1.0 / total)))
    out[inner] = special().betaincinv(k[inner], total - k[inner] + 1, alpha_conf)
    return out


def vote_counts(classifier, X, passes) -> np.ndarray:
    """(len(passes), B, m) vote counts of the base classifier on the rows of
    X, one table per pass (sigma, n, seeds, stream).

    Row i of a pass counts the labels of n draws of X[i] + N(0, sigma^2 I)
    under seed seeds[i] of the stream: the noise for sample s, dimension j
    sits at counter s*d + j of that seed's substream, so the counts do not
    depend on how inputs and samples are grouped into units (a unit is
    max(1, PIECE // d) rows, PIECE rows when d is 0). A call of two units
    or more passes `split.parts` its summed B·n·d draws, which may count
    the first half of the units in a forked child and the rest here: a
    command's passes fork at most once between them, and the integer
    counts sum to the one-process count.
    """
    X = np.asarray(X, dtype=np.float64)
    B, d = X.shape
    m = classifier.n_labels
    rows = max(1, rng.PIECE // max(d, 1))
    passes = [(sigma, n, np.asarray(seeds, dtype=np.uint64), stream)
              for sigma, n, seeds, stream in passes]
    units, draws = [], 0
    for p, (_, n, seeds, _) in enumerate(passes):
        if n < 1:
            raise ValidationError("n must be >= 1")
        if seeds.shape != (B,):
            raise ValidationError(f"need one seed per input: {seeds.shape} seeds for {B} inputs")
        per_unit = max(1, rows // n)
        units += [(p, b0, min(b0 + per_unit, B), start, min(start + rows, n))
                  for b0 in range(0, B, per_unit) for start in range(0, n, rows)]
        draws += B * n * d

    def count(a: int, b: int) -> np.ndarray:
        """The counts of units len·a//2 to len·b//2."""
        counts = np.zeros((len(passes), B, m), dtype=np.int64)
        for p, b0, b1, start, stop in units[len(units) * a // 2:len(units) * b // 2]:
            sigma, _, seeds, stream = passes[p]
            k, s = b1 - b0, stop - start
            batch = rng.normals(seeds[b0:b1], stream, start * d, s * d).reshape(k, s, d)
            batch *= sigma
            batch += X[b0:b1, None, :]
            votes = np.argmax(classifier.logits(batch.reshape(k * s, d)), axis=1)
            votes += np.repeat(np.arange(0, k * m, m), s)
            counts[p, b0:b1] += np.bincount(votes, minlength=k * m).reshape(k, m)
        return counts

    if len(units) < 2:  # one unit has no half
        return count(0, 2)
    special()  # imported here, not once in each process of a split
    return sum(split.parts(count, draws, split.SPLIT_MIN_DRAWS))


def margin_radius(sigma: float, p_top: float, p_runner: float) -> float:
    """sigma/2 * (Phi^-1(p_top) - Phi^-1(p_runner)) of two probabilities.

    Degenerate exact probabilities (p_top == 1 or p_runner == 0) yield +inf;
    the margin is floored at zero.
    """
    pt, pr = float(p_top), float(p_runner)
    if not (0.0 <= pt <= 1.0 and 0.0 <= pr <= 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    if pt >= 1.0 or pr <= 0.0:
        return math.inf
    return 0.5 * sigma * max(normal_quantile(pt) - normal_quantile(pr), 0.0)


def _radii(sigma: float, q_top: np.ndarray, q_runner: np.ndarray) -> np.ndarray:
    """sigma/2 * (q_top - q_runner) floored at zero, elementwise, where the
    q are standard-normal quantiles Phi^-1(p) the caller has checked."""
    return 0.5 * sigma * np.maximum(q_top - q_runner, 0.0)


@dataclass(frozen=True)
class CertifiedBatch:
    """Certificates of a batch of inputs as arrays, one entry per input.

    `labels` holds ABSTAIN where the certifier abstained, and `radii` NaN.
    """

    labels: np.ndarray
    radii: np.ndarray
    p_a_lower: np.ndarray
    sigma: float
    n_samples: int

    @property
    def abstained(self) -> np.ndarray:
        return self.labels == ABSTAIN

    def prediction(self, i: int) -> CertifiedPrediction:
        label = int(self.labels[i])
        return CertifiedPrediction(
            label=label, radius=None if label == ABSTAIN else float(self.radii[i]),
            p_a_lower=float(self.p_a_lower[i]), sigma=self.sigma, n_samples=self.n_samples)


def certify_batch(classifier, X, configs: list[SmoothingConfig], seeds) -> list[CertifiedBatch]:
    """Certify every row of X under each config, input i of configs[c] under
    seed seeds[c][i]; one `CertifiedBatch` per config.

    Selects each top label with n0 samples, then bounds its probability
    with n samples. An input abstains when its lower bound does not exceed
    1/2; the runner-up is bounded by 1 - p_a_lower. The selection and
    estimation passes of every config are counted in one `vote_counts`
    call, so they split between two processes at most once.
    """
    if len(seeds) != len(configs):
        raise ValidationError(f"need one seed array per config: {len(seeds)} for "
                              f"{len(configs)} configs")
    counts = vote_counts(classifier, X, [
        (cfg.sigma, n, s, stream) for cfg, s in zip(configs, seeds)
        for n, stream in ((cfg.n0, rng.STREAM_SELECT), (cfg.n, rng.STREAM_NOISE))])
    ndtri = special().ndtri
    batches = []
    for cfg, selection, estimation in zip(configs, counts[0::2], counts[1::2]):
        top = np.argmax(selection, axis=1)
        p_lower = clopper_pearson_lower_batch(
            estimation[np.arange(top.size), top], cfg.n, cfg.alpha_conf)
        certified = p_lower > 0.5
        radii = np.full(p_lower.shape, np.nan)
        p = p_lower[certified]
        radii[certified] = _radii(cfg.sigma, ndtri(p), ndtri(1.0 - p))
        batches.append(CertifiedBatch(labels=np.where(certified, top, ABSTAIN), radii=radii,
                                      p_a_lower=p_lower, sigma=cfg.sigma, n_samples=cfg.n))
    return batches


def certify(classifier, x, config: SmoothingConfig, seed: int) -> CertifiedPrediction:
    """Select the top label with n0 samples, then certify it with n samples.

    Abstains when the estimated lower bound does not exceed 1/2.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return certify_batch(classifier, x, [config], [[seed & 0xFFFFFFFFFFFFFFFF]])[0].prediction(0)
