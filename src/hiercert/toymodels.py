"""Analytic robustness-accuracy constructions at desk scale.

Two self-contained models:

1. A Gaussian-feature binary task with one noisy-but-robust feature and d
   moderately informative features. An l-inf adversary can flip the
   informative features' distribution outright, capping adversarial
   accuracy at p*gamma/(1-p) for any classifier with natural error gamma.
   Protecting the first k informative features lets a sign-of-mean
   meta-feature recover reliability Phi(sqrt(k)*eta), breaking the cap.

2. A keyed-bit construction: messages carry an error-corrected payload
   whose last bit is a keyed pseudorandom function of the rest. With the
   key, classification survives any within-tolerance bit flips; without
   it, a first-bit flip leaves nothing better than chance, unless an
   invariant pins the first bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import rng, split
from .errors import ValidationError
from .numerics import normal_cdf, normal_quantile, special

_STREAM_LABEL = 101
_STREAM_ROBUST = 102
_STREAM_FEAT = 103
_STREAM_PRF_X = 104
_STREAM_PRF_B = 105


@dataclass(frozen=True)
class GaussModelParams:
    """Gaussian-feature task: d informative features, robust-feature reliability p."""

    d: int
    p: float
    eta: float

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        if not 0.5 < self.p < 1.0:
            raise ValidationError("p must lie in (1/2, 1)")
        if self.eta < 0.0:
            raise ValidationError("eta must be >= 0")


# The sample is drawn in blocks of max(1, rng.PIECE // d) rows, one
# `rng.normals` piece of features each. The experiments count their hits
# block by block and drop each block, so their working memory stays about
# one piece whatever n_samples and d are (up to d = PIECE).
def _block_rows(d: int) -> int:
    return max(1, rng.PIECE // d)


def _gauss_blocks(params: GaussModelParams, seed: int, start: int, stop: int):
    """Fresh arrays (X, y) of each block of rows start..stop-1 of the
    sample, in order; start is a multiple of `_block_rows`, so the blocks
    are the sample's own.

    y is uniform in {-1,+1}; column 0 equals y with probability p; columns
    1..d are N(eta*y, 1). Row i's label and robust feature are draw i of
    their substreams, and feature (i, j) is draw i*d + j of its own."""
    d = params.d
    step = _block_rows(d)
    for lo in range(start, stop, step):
        count = min(step, stop - lo)
        y = np.where(rng.uniforms(seed, _STREAM_LABEL, lo, count) < 0.5, -1.0, 1.0)
        flip = np.where(rng.uniforms(seed, _STREAM_ROBUST, lo, count) < params.p,
                        1.0, -1.0)
        X = np.empty((count, d + 1))
        np.multiply(y, flip, out=X[:, 0])
        feats = rng.normals(seed, _STREAM_FEAT, lo * d, count * d).reshape(count, d)
        np.add(feats, params.eta * y[:, None], out=X[:, 1:])
        yield X, y


def meta_feature(X, k: int) -> np.ndarray:
    """Sign of the mean of the k protected informative features of each row; sign(0) = +1."""
    if k < 1:
        raise ValidationError("the meta-feature needs k >= 1 protected features")
    V = np.asarray(X, dtype=np.float64)
    if k > V.shape[1] - 1:
        raise ValidationError(f"k={k} exceeds the {V.shape[1] - 1} informative features")
    return np.where(V[:, 1:k + 1].mean(axis=1) >= 0.0, 1.0, -1.0)


def meta_feature_accuracy(eta: float, k: int) -> float:
    """P(meta-feature == y) in closed form: Phi(sqrt(k)*eta)."""
    if not eta > 0.0:
        raise ValidationError("eta must be positive")
    if k < 1:
        raise ValidationError("k must be >= 1")
    return normal_cdf(math.sqrt(k) * eta)


def adversarial_accuracy_bound(p: float, gamma: float) -> float:
    """Upper bound p*gamma/(1-p) on adversarial accuracy, clamped to [0, 1].

    Holds for any classifier with natural accuracy at least 1-gamma when
    no features are protected; the raw expression can exceed 1, at which
    point the bound is vacuous.
    """
    if not 0.5 < p < 1.0:
        raise ValidationError("p must lie in (1/2, 1)")
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError("gamma must lie in [0, 1]")
    return min(1.0, p * gamma / (1.0 - p))


def linf_flip_attack(X, y, eta: float, k_protected: int) -> np.ndarray:
    """Shift every unprotected informative feature of the rows X by -2*eta*y.

    This moves their distribution from N(eta*y, 1) to N(-eta*y, 1). The
    robust feature (column 0) and the first k_protected informative
    features are untouched; the perturbation has l-inf norm exactly 2*eta
    whenever any feature is unprotected.
    """
    V = np.array(X, dtype=np.float64)
    d = V.shape[1] - 1
    if not 0 <= k_protected <= d:
        raise ValidationError("k_protected must lie in 0..d")
    V[:, 1 + k_protected:] -= 2.0 * eta * np.asarray(y, dtype=np.float64)[:, None]
    return V


def _hits(samples, cells, start: int, stop: int) -> np.ndarray:
    """Natural and attacked hits of each cell on rows start..stop-1 of each
    sample, int64 of shape (samples, cells, 2). A sample is (params, seed),
    a cell (predict, k): a classifier of X and the 0 <= k <= d informative
    features the attack leaves alone.

    Each block is attacked in place once its natural hits are counted. The
    cells are taken in descending k, each shifting only the columns 1+k ..
    that the cells before it left alone, by `linf_flip_attack`'s -2*eta*y:
    every feature is shifted once, so each cell sees the bits that
    `linf_flip_attack` would give it."""
    hits = np.zeros((len(samples), len(cells), 2), dtype=np.int64)
    descending = sorted(range(len(cells)), key=lambda c: -cells[c][1])
    for s, (params, seed) in enumerate(samples):
        for X, y in _gauss_blocks(params, seed, start, stop):
            for c, (predict, _) in enumerate(cells):
                hits[s, c, 0] += np.count_nonzero(predict(X) == y)
            shift, stop_col = 2.0 * params.eta * y[:, None], params.d + 1
            for c in descending:
                predict, k = cells[c]
                X[:, 1 + k:stop_col] -= shift
                stop_col = 1 + k
                hits[s, c, 1] += np.count_nonzero(predict(X) == y)
            del X, y, shift  # before the next block is drawn
    return hits


def _count_hits(samples, cells, n: int, d: int) -> np.ndarray:
    """`_hits` over all n rows of each sample of d features. With two blocks
    or more, `split.parts` may count the blocks before the middle one in a
    forked child, by the feature draws of all samples and SPLIT_MIN_DRAWS.
    The counts are integers, so their sum is the same whichever process
    counted which rows."""
    step = _block_rows(d)
    n_blocks = -(-n // step)
    mid = n_blocks // 2 * step
    if mid == 0:  # one block has no half
        return _hits(samples, cells, 0, n)
    bounds = (0, mid, n)
    special()  # imported here, not once in each process of a split
    return sum(split.parts(lambda a, b: _hits(samples, cells, bounds[a], bounds[b]),
                           len(samples) * n * d, split.SPLIT_MIN_DRAWS))


@dataclass(frozen=True)
class GaussCell:
    eta: float
    k: int
    natural_acc: float
    adversarial_acc: float


def _check_sample_count(n_samples: int) -> None:
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")


def gauss_experiment(eta_list: Sequence[float], k_list: Sequence[int], d: int,
                     p: float, n_samples: int, seed: int) -> list[GaussCell]:
    """Natural and adversarial accuracy over an (eta, k) grid.

    k = 0 evaluates the plain averaging classifier, which is `meta_feature`
    over all d informative features; k >= 1 evaluates the meta-feature over
    the k protected features. The attack flips every unprotected
    informative feature. Each eta's sample is drawn, predicted and attacked
    one block at a time (`_count_hits`).
    """
    for k in k_list:
        if not 0 <= k <= d:
            raise ValidationError(f"k={k} inadmissible for d={d}")
    _check_sample_count(n_samples)
    cells = [(partial(meta_feature, k=int(k) or d), int(k)) for k in k_list]
    samples = [(GaussModelParams(d=d, p=p, eta=float(eta)), rng.mix64(seed + ei))
               for ei, eta in enumerate(eta_list)]
    hits = _count_hits(samples, cells, n_samples, d)
    return [GaussCell(eta=params.eta, k=k, natural_acc=int(nat) / n_samples,
                      adversarial_acc=int(adv) / n_samples)
            for (params, _), sample_hits in zip(samples, hits)
            for (_, k), (nat, adv) in zip(cells, sample_hits)]


def tuned_feature_weight(p: float, gamma: float, eta: float, d: int) -> float:
    """Weight c so that sign(c*x0 + mean of informative features) has natural
    accuracy 1 - gamma.

    Requires 1 - gamma > p: the classifier leans on the robust feature for
    a p-fraction and on the informative-feature average for the rest; its
    adversarial accuracy then sits at the p*gamma/(1-p) cap.
    """
    if not 0.5 < p < 1.0 or not 0.0 < gamma < 1.0:
        raise ValidationError("need p in (1/2,1) and gamma in (0,1)")
    target = (1.0 - gamma - p) / (1.0 - p)
    if not 0.0 < target < 1.0:
        raise ValidationError("requires p < 1 - gamma < 1")
    return eta - normal_quantile(target) / math.sqrt(d)


def weighted_predict(X, weight: float) -> np.ndarray:
    """Sign of weight*x0 + mean of the informative features; sign(0) = +1."""
    V = np.asarray(X, dtype=np.float64)
    score = weight * V[:, 0] + V[:, 1:].mean(axis=1)
    return np.where(score >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class TradeoffResult:
    natural_acc: float
    adversarial_acc: float
    bound: float


def tradeoff_experiment(p: float, gamma: float, eta: float, d: int,
                        n_samples: int, seed: int) -> TradeoffResult:
    """Measure the accuracy-robustness cap on a classifier tuned to natural
    accuracy 1 - gamma with no protected features, one block at a time
    (`_count_hits`)."""
    params = GaussModelParams(d=d, p=p, eta=eta)
    _check_sample_count(n_samples)
    c = tuned_feature_weight(p, gamma, eta, d)
    natural, attacked = _count_hits([(params, seed)], [(partial(weighted_predict, weight=c), 0)],
                                    n_samples, d)[0, 0]
    return TradeoffResult(natural_acc=int(natural) / n_samples,
                          adversarial_acc=int(attacked) / n_samples,
                          bound=adversarial_accuracy_bound(p, gamma))


@dataclass(frozen=True)
class PrfModelParams:
    """Keyed-bit construction: message length, key, per-bit repetition."""

    n_bits: int
    key: int
    repetition: int = 3

    def __post_init__(self):
        if not 1 <= self.n_bits <= 64:
            raise ValidationError("n_bits must lie in 1..64")
        if self.repetition < 1 or self.repetition % 2 == 0:
            raise ValidationError("repetition must be a positive odd integer")


def keyed_bit(key: int, messages: np.ndarray) -> np.ndarray:
    """Toy keyed pseudorandom bit of packed messages (uint64 array)."""
    mixed = rng.mix64(np.asarray(messages, dtype=np.uint64) ^ np.uint64(key & 0xFFFFFFFFFFFFFFFF))
    return (rng.mix64(mixed) & np.uint64(1)).astype(np.int64)


def majority_decode(bits: np.ndarray, repetition: int) -> np.ndarray:
    """Per-group majority vote; tolerates (repetition-1)//2 flips per group."""
    arr = np.asarray(bits, dtype=np.int64)
    groups = arr.reshape(*arr.shape[:-1], -1, repetition)
    return (groups.sum(axis=-1) * 2 > repetition).astype(np.int64)


def _unpack_bits(values: np.ndarray, n_bits: int) -> np.ndarray:
    shifts = np.arange(n_bits, dtype=np.uint64)
    return ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    shifts = np.arange(bits.shape[1], dtype=np.uint64)
    return (bits.astype(np.uint64) << shifts[None, :]).sum(axis=1, dtype=np.uint64)


def prf_encode(x_bits: np.ndarray, bit, repetition: int) -> np.ndarray:
    """Concatenate the message bits and the check bits (an array of the
    messages' rank whose last axis holds one bit), then repetition-encode."""
    if repetition % 2 == 0 or repetition < 1:
        raise ValidationError("repetition must be a positive odd integer")
    x = np.asarray(x_bits, dtype=np.int64)
    payload = np.concatenate([x, np.asarray(bit, dtype=np.int64)], axis=-1)
    return np.repeat(payload, repetition, axis=-1)


@dataclass(frozen=True)
class PrfResult:
    keyed_accuracy: float
    keyless_accuracy: float
    within_tolerance: bool


def prf_experiment(params: PrfModelParams, flip_budget: int,
                   attack_first_bit: bool, n_trials: int, seed: int) -> PrfResult:
    """Keyed vs keyless classification under bit-flip attacks.

    Samples carry a class bit b, followed by the repetition-encoded pair
    (x, keyed_bit(x) xor b). The adversary flips `flip_budget` copies inside
    every repetition group and, when attack_first_bit is set, the class bit
    itself.

    The keyed classifier decodes and checks the last payload bit against
    the keyed bit; it is exact whenever the flips stay within the code's
    tolerance. The keyless classifier trusts the class bit when the
    first-bit invariant holds (attack_first_bit False); under a first-bit
    attack its best effort is the same decode-and-check with a key it does
    not have, which is right only by chance. Budgets beyond tolerance are
    reported as-is (stress mode), not raised.
    """
    if flip_budget < 0 or flip_budget > params.repetition:
        raise ValidationError("flip_budget must lie in 0..repetition")
    n, r, nb = n_trials, params.repetition, params.n_bits
    b = (rng.uniforms(seed, _STREAM_PRF_B, 0, n) < 0.5).astype(np.int64)
    x_packed = rng.raw64(seed, _STREAM_PRF_X, 0, n)
    if nb < 64:
        x_packed &= np.uint64((1 << nb) - 1)
    x_bits = _unpack_bits(x_packed, nb)
    check = keyed_bit(params.key, x_packed) ^ b
    encoded = prf_encode(x_bits, check[:, None], r)

    received = encoded.copy()
    if flip_budget:
        groups = received.reshape(n, nb + 1, r)
        groups[:, :, :flip_budget] ^= 1
    first_bit = b ^ (1 if attack_first_bit else 0)

    decoded = majority_decode(received, r)
    x_hat = _pack_bits(decoded[:, :nb])
    check_hat = decoded[:, nb]
    keyed_pred = check_hat ^ keyed_bit(params.key, x_hat)
    keyed_acc = float(np.mean(keyed_pred == b))

    if attack_first_bit:
        surrogate = rng.mix64(seed ^ 0x5BD1E995)
        if surrogate == params.key:
            surrogate = rng.mix64(surrogate)
        keyless_pred = check_hat ^ keyed_bit(surrogate, x_hat)
    else:
        keyless_pred = first_bit
    keyless_acc = float(np.mean(keyless_pred == b))

    return PrfResult(keyed_accuracy=keyed_acc, keyless_accuracy=keyless_acc,
                     within_tolerance=flip_budget <= (r - 1) // 2)
