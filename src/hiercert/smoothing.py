"""Randomized-smoothing certification.

A base classifier is smoothed by voting over Gaussian perturbations of the
input. The certifier estimates a lower confidence bound on the top-class
probability from Monte-Carlo counts and converts it into a certified
l2 radius:

    one-sided:  R = sigma * Phi^-1(p_a_lower)
    two-sided:  R = sigma / 2 * (Phi^-1(p_a_lower) - Phi^-1(p_b_upper))

The one-sided form is the default and equals the two-sided form with
p_b_upper = 1 - p_a_lower. The two-sided form is used where an explicit
runner-up bound exists, e.g. the renormalized leaf certificates in the
hierarchy module.

Noise is generated counter-mode per (sample index, dimension), so counts
and certificates are bit-identical across runs, chunk sizes, and thread
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import rng
from .core import ABSTAIN, CertifiedPrediction
from .errors import ValidationError
from .numerics import normal_cdf, normal_quantile

# Certification formulas conventionally write the quantile as phi_inv.
phi_inv = normal_quantile

_CHUNK = 20_000


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


@dataclass(frozen=True)
class NoiseSampleCounts:
    """Per-label vote counts from one Monte-Carlo pass."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.sum() != self.total:
            raise ValidationError("counts must sum to total")

    def top_label(self) -> int:
        return int(np.argmax(self.counts))


def clopper_pearson_lower(successes: int, total: int, alpha_conf: float) -> float:
    """One-sided exact binomial lower confidence bound on a proportion."""
    if total < 1 or not 0 <= successes <= total:
        raise ValidationError(f"invalid counts: {successes}/{total}")
    if not 0.0 < alpha_conf < 1.0:
        raise ValidationError("alpha_conf must lie in (0, 1)")
    if successes == 0:
        return 0.0
    if successes == total:
        return float(alpha_conf ** (1.0 / total))
    # The alpha quantile of Beta(k, n - k + 1), as scipy.stats.beta.ppf gives
    # it (tests pin the two together) but without importing scipy.stats.
    return float(special.betaincinv(successes, total - successes + 1, alpha_conf))


def predict_labels(classifier, x_batch: np.ndarray) -> np.ndarray:
    """Argmax labels for a batch, ties broken by lowest index."""
    logits = np.asarray(classifier.logits(x_batch), dtype=np.float64)
    return np.argmax(logits, axis=1)


def sample_under_noise(classifier, x, sigma: float, n: int, seed: int,
                       stream: int = rng.STREAM_NOISE) -> NoiseSampleCounts:
    """Vote counts of the base classifier over n draws of x + N(0, sigma^2 I).

    The noise for sample i, dimension j sits at counter i*d + j of the given
    substream, making the result independent of chunking.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    m = classifier.n_labels
    counts = np.zeros(m, dtype=np.int64)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        batch = rng.normals(seed, stream, start * d, (stop - start) * d).reshape(stop - start, d)
        batch *= sigma
        batch += x
        labels = predict_labels(classifier, batch)
        counts += np.bincount(labels, minlength=m)
    return NoiseSampleCounts(counts=counts, total=n)


def one_sided_radius(sigma: float, p_a_lower: float) -> float:
    """Certified radius from a top-class lower bound alone."""
    return margin_radius(sigma, p_a_lower, 1.0 - p_a_lower)


def two_sided_radius(sigma: float, p_a_lower: float, p_b_upper: float) -> float:
    """Certified radius from explicit top and runner-up probability bounds."""
    return margin_radius(sigma, p_a_lower, p_b_upper)


def margin_radius(sigma: float, p_top, p_runner):
    """sigma/2 * (Phi^-1(p_top) - Phi^-1(p_runner)), scalar or vectorized.

    Degenerate exact probabilities (p_top == 1 or p_runner == 0) yield +inf;
    the margin is floored at zero.
    """
    if np.isscalar(p_top) and np.isscalar(p_runner):
        pt, pr = float(p_top), float(p_runner)
        if not (0.0 <= pt <= 1.0 and 0.0 <= pr <= 1.0):
            raise ValidationError("probabilities must lie in [0, 1]")
        if pt >= 1.0 or pr <= 0.0:
            return math.inf
        return 0.5 * sigma * max(normal_quantile(pt) - normal_quantile(pr), 0.0)

    pt = np.atleast_1d(np.asarray(p_top, dtype=np.float64))
    pr = np.atleast_1d(np.asarray(p_runner, dtype=np.float64))
    pt, pr = np.broadcast_arrays(pt, pr)
    if np.any(pt < 0) or np.any(pt > 1) or np.any(pr < 0) or np.any(pr > 1):
        raise ValidationError("probabilities must lie in [0, 1]")
    degenerate = (pt >= 1.0) | (pr <= 0.0)
    safe_t = np.where(degenerate, 0.5, pt)
    safe_r = np.where(degenerate, 0.5, pr)
    gap = normal_quantile(safe_t) - normal_quantile(safe_r)
    return np.where(degenerate, math.inf, 0.5 * sigma * np.maximum(gap, 0.0))


def certify(classifier, x, config: SmoothingConfig, seed: int,
            p_b_upper: float | None = None) -> CertifiedPrediction:
    """Select the top label with n0 samples, then certify it with n samples.

    Abstains when the estimated lower bound does not exceed 1/2. When
    p_b_upper is given, the two-sided radius is reported instead of the
    one-sided default.
    """
    selection = sample_under_noise(classifier, x, config.sigma, config.n0, seed,
                                   stream=rng.STREAM_SELECT)
    top = selection.top_label()
    estimation = sample_under_noise(classifier, x, config.sigma, config.n, seed,
                                    stream=rng.STREAM_NOISE)
    p_lower = clopper_pearson_lower(int(estimation.counts[top]), config.n,
                                    config.alpha_conf)
    if p_lower <= 0.5:
        return CertifiedPrediction(label=ABSTAIN, radius=None, p_a_lower=p_lower,
                                   sigma=config.sigma, n_samples=config.n)
    if p_b_upper is None:
        radius = one_sided_radius(config.sigma, p_lower)
    else:
        radius = two_sided_radius(config.sigma, p_lower, p_b_upper)
    return CertifiedPrediction(label=top, radius=radius, p_a_lower=p_lower,
                               sigma=config.sigma, n_samples=config.n)


def exact_smoothed_linear(w, b: float, x, sigma: float) -> float:
    """Closed-form smoothed positive-class probability of a binary linear rule.

    For sign(w.x + b) under N(0, sigma^2 I) noise the smoothed probability is
    Phi((w.x + b) / (sigma * ||w||)). Used as the analytic oracle in the
    calibration tests.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValidationError("weight vector must be nonzero")
    if not sigma > 0:
        raise ValidationError("sigma must be positive")
    return float(normal_cdf((float(w @ x) + b) / (sigma * norm)))
