"""Built-in classifiers and attacks.

Everything here is desk scale and dependency free: a linear softmax model,
a one-hidden-layer ReLU network with manual backpropagation, full-batch
gradient-descent training (optionally under Gaussian input noise), and an
l-inf PGD attack.

Models are immutable; training returns a new instance. All randomness
(parameter init, training noise, attack restarts) flows through the
counter-mode streams in `rng`, so results are pure functions of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng
from .errors import CapabilityError, TrainingDivergenceError, ValidationError


def _row_max(z: np.ndarray) -> np.ndarray:
    """Max over the last axis, equal bit for bit to `z.max(axis=-1)`.

    numpy reduces a contiguous row at a time, at a fixed cost per row that
    dominates short rows (with numpy 2.4 on a 2-vCPU Xeon, 343 us against
    37 us for this form on 4000 x 8). Reducing a transposed copy down its
    first axis is one elementwise maximum per column over all rows; max is
    exact, so only the cost changes.
    """
    flat = z.reshape(-1, z.shape[-1])
    return np.ascontiguousarray(flat.T).max(axis=0).reshape(z.shape[:-1])


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - _row_max(z)[..., None]
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _row_losses(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy of each row of logits z at its integer label y."""
    zmax = _row_max(z)
    e = z - zmax[:, None]
    np.exp(e, out=e)
    lse = zmax + np.log(e.sum(axis=1))
    lse -= z[np.arange(z.shape[0]), y]
    return lse


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of integer labels y under the given logits."""
    z = np.asarray(logits, dtype=np.float64)
    return float(np.mean(_row_losses(z, np.asarray(y, dtype=np.int64))))


def _dlogits(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of mean cross-entropy with respect to the logits."""
    g = softmax(logits)
    g[np.arange(g.shape[0]), np.asarray(y, dtype=np.int64)] -= 1.0
    g /= g.shape[0]
    return g


def _freeze(arr: np.ndarray) -> np.ndarray:
    try:
        out = np.array(arr, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"model parameters must be numeric arrays ({exc})") from None
    if not np.all(np.isfinite(out)):
        raise ValidationError("model parameters must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LinearSoftmax:
    """Affine logits: W x + b."""

    W: np.ndarray  # (m, d)
    b: np.ndarray  # (m,)

    def __post_init__(self):
        object.__setattr__(self, "W", _freeze(self.W))
        object.__setattr__(self, "b", _freeze(self.b))
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValidationError("W must be (m, d) and b (m,)")

    @property
    def n_labels(self) -> int:
        return self.W.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]

    @staticmethod
    def init(n_labels: int, dim: int, seed: int, scale: float = 0.1) -> "LinearSoftmax":
        w = rng.normals(seed, rng.STREAM_INIT, 0, n_labels * dim) * scale
        return LinearSoftmax(W=w.reshape(n_labels, dim), b=np.zeros(n_labels))

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, None]:
        """Logits, and the (empty) cache `_backward` takes."""
        out = np.asarray(X, dtype=np.float64) @ self.W.T
        out += self.b
        return out, None

    def _backward(self, cache: None, G: np.ndarray) -> np.ndarray:
        """Input gradient from the logit gradients G."""
        return G @ self.W

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)[0]

    def input_grad_from_dlogits(self, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        return self._backward(None, G)

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.W, self.b)

    def _param_grads(self, X: np.ndarray, cache: None, G: np.ndarray) -> tuple[np.ndarray, ...]:
        """Parameter gradients from the logit gradients G at inputs X."""
        X = np.asarray(X, dtype=np.float64)
        return (G.T @ X, G.sum(axis=0))

    def with_params(self, params: Sequence[np.ndarray]) -> "LinearSoftmax":
        W, b = params
        return LinearSoftmax(W=W, b=b)


@dataclass(frozen=True)
class SmallMlp:
    """One ReLU hidden layer: W2 relu(W1 x + b1) + b2."""

    W1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (m, h)
    b2: np.ndarray  # (m,)

    def __post_init__(self):
        for name in ("W1", "b1", "W2", "b2"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if self.W1.shape[0] < 1:
            raise ValidationError("hidden width must be >= 1")
        if self.W2.shape[1] != self.W1.shape[0]:
            raise ValidationError("W2 width must match hidden size")

    @property
    def n_labels(self) -> int:
        return self.W2.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W1.shape[1]

    @staticmethod
    def init(n_labels: int, dim: int, hidden: int, seed: int, scale: float = 0.5) -> "SmallMlp":
        w = rng.normals(seed, rng.STREAM_INIT, 0, hidden * dim + n_labels * hidden)
        w1 = w[: hidden * dim].reshape(hidden, dim) * scale
        w2 = w[hidden * dim:].reshape(n_labels, hidden) * scale
        return SmallMlp(W1=w1, b1=np.zeros(hidden), W2=w2, b2=np.zeros(n_labels))

    def _pre_activation(self, X: np.ndarray) -> np.ndarray:
        Z = np.asarray(X, dtype=np.float64) @ self.W1.T
        Z += self.b1
        return Z

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Logits, and the hidden activation H that `_backward` takes.

        The ReLU runs in place on the pre-activation, so a batch holds one
        hidden-width array instead of two.
        """
        H = self._pre_activation(X)
        np.maximum(H, 0.0, out=H)
        out = H @ self.W2.T
        out += self.b2
        return out, H

    def _backward(self, H: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Input gradient from the logit gradients G at hidden activation H.

        H > 0 exactly where the pre-activation is > 0 (NaN included), so the
        pre-activation may be passed as H: the ReLU mask is the same.
        """
        dH = G @ self.W2
        dH *= H > 0.0
        return dH @ self.W1

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)[0]

    def input_grad_from_dlogits(self, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        return self._backward(self._pre_activation(X), G)

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.W1, self.b1, self.W2, self.b2)

    def _param_grads(self, X: np.ndarray, H: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, ...]:
        """Parameter gradients from the logit gradients G at inputs X and
        hidden activation H (the cache of `_forward`)."""
        X = np.asarray(X, dtype=np.float64)
        dW2 = G.T @ H
        db2 = G.sum(axis=0)
        dZ = G @ self.W2
        dZ *= H > 0.0
        return (dZ.T @ X, dZ.sum(axis=0), dW2, db2)

    def with_params(self, params: Sequence[np.ndarray]) -> "SmallMlp":
        W1, b1, W2, b2 = params
        return SmallMlp(W1=W1, b1=b1, W2=W2, b2=b2)


@dataclass(frozen=True)
class MaskedModel:
    """A model restricted to a label subset; logits are selected columns.

    Local label i corresponds to global label subset[i]. Gradients chain
    through to the base model, so the restriction stays attackable.
    """

    base: object
    subset: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "subset", tuple(int(i) for i in self.subset))

    @property
    def n_labels(self) -> int:
        return len(self.subset)

    @property
    def input_dim(self) -> int:
        return self.base.input_dim

    def logits(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.base.logits(X))[:, list(self.subset)]

    def input_grad_from_dlogits(self, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        full = np.zeros((G.shape[0], self.base.n_labels))
        full[:, list(self.subset)] = G
        return self.base.input_grad_from_dlogits(X, full)


def _unmask(model) -> tuple[object, Optional[np.ndarray]]:
    """The model under a chain of MaskedModels, and the columns of its
    logits that the chain selects (None for an unmasked model)."""
    cols = None
    while isinstance(model, MaskedModel):
        subset = np.asarray(model.subset, dtype=np.int64)
        cols = subset if cols is None else subset[cols]
        model = model.base
    return model, cols


def _fused_step(base, cols: Optional[np.ndarray], X: np.ndarray, y: np.ndarray,
                pad: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Logits over `cols` of a built-in model and the input gradient of their
    mean cross-entropy at labels y, from one forward and one backward pass.

    The forward pass stays full width and the columns are selected after it;
    the logit gradient is written into `pad`, a zeroed (rows x base labels)
    buffer whose other columns stay zero, before the backward pass. Both
    keep the matmuls of the unmasked model, so the bits match the two-pass
    `logits` then `input_grad_from_dlogits` of a MaskedModel.
    """
    logits, cache = base._forward(X)
    if cols is None:
        return logits, base._backward(cache, _dlogits(logits, y))
    logits = logits[:, cols]
    pad[:, cols] = _dlogits(logits, y)
    return logits, base._backward(cache, pad)


@dataclass(frozen=True)
class PgdParams:
    """l-inf PGD attack budget and schedule."""

    epsilon: float
    step: float
    iters: int = 20
    restarts: int = 1

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")
        if not self.step > 0:
            raise ValidationError("step must be positive")
        if self.iters < 1 or self.restarts < 1:
            raise ValidationError("iters and restarts must be >= 1")


def train(model, X: np.ndarray, y: np.ndarray, epochs: int, learning_rate: float,
          noise_sigma: float | None = None, seed: int = 0):
    """Full-batch gradient descent on cross-entropy; returns the trained model.

    With noise_sigma set, every epoch sees a fresh Gaussian perturbation of
    the inputs (the standard way to fit a base classifier that will be
    smoothed at the same noise level). Each epoch makes one forward pass,
    whose cache also serves the parameter gradients.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[0] != y.shape[0]:
        raise ValidationError("dataset must be a nonempty (n, d) matrix with n labels")
    n, d = X.shape
    current = model
    # overflow is how divergence manifests; it is caught via the loss check
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            if noise_sigma:
                eta = rng.normals(seed, rng.STREAM_TRAIN, epoch * n * d, n * d)
                inputs = X + noise_sigma * eta.reshape(n, d)
            else:
                inputs = X
            logits, cache = current._forward(inputs)
            loss = cross_entropy(logits, y)
            if not math.isfinite(loss):
                raise TrainingDivergenceError(epoch, loss)
            grads = current._param_grads(inputs, cache, _dlogits(logits, y))
            if not all(np.all(np.isfinite(g)) for g in grads):
                raise TrainingDivergenceError(epoch, loss)
            current = current.with_params(
                [p - learning_rate * g for p, g in zip(current.params(), grads)]
            )
    return current


def accuracy(model, X: np.ndarray, y: np.ndarray) -> float:
    pred = np.argmax(model.logits(np.asarray(X, dtype=np.float64)), axis=1)
    return float(np.mean(pred == np.asarray(y)))


def pgd_attack(model, x, y, params: PgdParams, seed: int = 0) -> np.ndarray:
    """Untargeted l-inf PGD: ascend cross-entropy, project after every step.

    Accepts a single (d,) input or a batch (n, d); the perturbed output never
    leaves the epsilon ball around the input. Restarts beyond the first begin
    at a deterministic random offset inside the ball; the restart with the
    highest final loss wins per sample.

    Each step takes its logits and input gradient from one forward and one
    backward pass of the model under any MaskedModel chain (`_fused_step`),
    and updates the iterate in place; the result equals the two-pass form
    (`logits`, then `input_grad_from_dlogits`, then `np.clip`) bit for bit.
    """
    single = np.asarray(x).ndim == 1
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    base, cols = _unmask(model)
    if not hasattr(base, "_backward"):
        raise CapabilityError(f"{type(base).__name__} cannot be attacked: no gradients")
    n, d = X.shape
    lo, hi = X - params.epsilon, X + params.epsilon
    pad = None if cols is None else np.zeros((n, base.n_labels))

    best = X.copy()
    best_loss = np.full(n, -math.inf)
    for r in range(params.restarts):
        if r == 0:
            cur = X.copy()
        else:
            cur = rng.uniforms(seed, rng.STREAM_PGD, (r - 1) * n * d, n * d).reshape(n, d)
            cur *= 2.0
            cur -= 1.0
            cur *= params.epsilon
            cur += X
            _project(cur, lo, hi)
        for _ in range(params.iters):
            grad = _fused_step(base, cols, cur, y, pad)[1]
            np.sign(grad, out=grad)
            grad *= params.step
            cur += grad
            _project(cur, lo, hi)
        losses = _row_losses(model.logits(cur), y)
        better = losses > best_loss
        best[better] = cur[better]
        best_loss[better] = losses[better]
    return best[0] if single else best


def _project(cur: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Clip cur into [lo, hi] in place; equals np.clip whenever lo <= hi."""
    np.minimum(cur, hi, out=cur)
    np.maximum(cur, lo, out=cur)


def gradient_check(model, x, y: int, step: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Checks both the input gradient and every parameter gradient of the
    cross-entropy loss at a single sample. The relative error divides by
    max(1, |analytic|, |numeric|) so that near-zero gradients are compared
    absolutely.
    """
    x = np.asarray(x, dtype=np.float64)
    X = x[None, :]
    ya = np.asarray([y], dtype=np.int64)
    logits = model.logits(X)
    G = _dlogits(logits, ya)
    analytic_input = model.input_grad_from_dlogits(X, G)[0]
    analytic_params = model._param_grads(X, model._forward(X)[1], G)

    worst = 0.0

    def rel(a: float, n: float) -> float:
        return abs(a - n) / max(1.0, abs(a), abs(n))

    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        num = (cross_entropy(model.logits(xp[None, :]), ya)
               - cross_entropy(model.logits(xm[None, :]), ya)) / (2 * step)
        worst = max(worst, rel(float(analytic_input[j]), num))

    base_params = model.params()
    for pi, p in enumerate(base_params):
        flat = p.ravel()
        for j in range(flat.size):
            def loss_with(delta: float) -> float:
                tweaked = [q.copy() for q in base_params]
                tweaked[pi].ravel()[j] += delta
                return cross_entropy(model.with_params(tweaked).logits(X), ya)

            num = (loss_with(step) - loss_with(-step)) / (2 * step)
            worst = max(worst, rel(float(analytic_params[pi].ravel()[j]), num))
    return worst


def gradient_check_random(make_model, n_configs: int, seed: int,
                          dim: int | None = None) -> float:
    """Worst gradient-check error over random configurations.

    `make_model(config_seed)` builds a fresh model. Test inputs near a ReLU
    kink (any |pre-activation| < 1e-3) are redrawn so the finite-difference
    oracle stays valid.
    """
    worst = 0.0
    for c in range(n_configs):
        model = make_model(seed + c)
        d = dim if dim is not None else model.input_dim
        for attempt in range(64):
            x = rng.normals(seed, 1000 + c, attempt * d, d)
            z = model._pre_activation(x[None, :]) if isinstance(model, SmallMlp) else None
            if z is None or np.min(np.abs(z)) >= 1e-3:
                break
        y = int(rng.integers(seed, 2000 + c, 0, 1, model.n_labels)[0])
        worst = max(worst, gradient_check(model, x, y))
    return worst
